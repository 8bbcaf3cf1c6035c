"""The README's library example runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_library_example_gives_the_values_in_its_comments():
    [block] = python_blocks()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        line = block.splitlines()[statement.end_lineno - 1]
        comment = line.partition("  # ")[2].strip()
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        # a comment states a Python literal, or a polynomial as it prints
        if comment.startswith("QPolynomial: "):
            assert str(value) == comment.removeprefix("QPolynomial: "), code
        else:
            assert value == ast.literal_eval(comment), code
        checked.append(comment)
    assert checked == [
        "True",
        "QPolynomial: -q^3 + q^8 + q^11",
        "2296",
        "(1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1)",
    ]
