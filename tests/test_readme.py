"""The README's library and shell examples run and give what their comments state."""

import ast
import re
import shlex
from pathlib import Path

from monoid_orders import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    pattern = rf"^```{language}\n(.*?)^```$"
    return re.findall(pattern, README.read_text(encoding="utf-8"), re.M | re.S)


def test_library_example_gives_the_values_in_its_comments():
    [block] = blocks("python")
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


def test_shell_examples_exit_0_and_print_the_lines_in_their_comments(capsys):
    # each monoid-orders line runs through cli.main; each whole-line comment
    # under it is a line of its stdout
    examples: list[tuple[str, list[str]]] = []
    for line in "\n".join(blocks("sh")).splitlines():
        if line.startswith("monoid-orders "):
            examples.append((line.partition("  #")[0], []))
        elif line.startswith("# ") and examples:
            examples[-1][1].append(line.removeprefix("# "))
    checked = []
    for command, comments in examples:
        code = cli.main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), command
        assert set(comments) <= set(out.splitlines()), command
        checked += comments
    assert len(examples) == 5
    assert checked == [
        "total: -q^3 + q^8 + q^11",
        "q=2: 2296",
        "4 formulas agree",
        "coefficients (22): 1 1 1 2 2 3 4 4 4 5 5 5 5 4 4 4 3 2 2 1 1 1",
        "palindromic: yes",
    ]
