"""Semantic checks on one captured CLI output, beyond its reference digest.

These parse the printed text themselves and import nothing from
monoid_orders, so a defect in the package cannot hide a defect in its output.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

ROUTES = ("thm31", "thm33", "thm34", "thm41")


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def parse_poly(text: str) -> list[int]:
    """Coefficient list of a polynomial printed by QPolynomial.__str__."""
    coeffs: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if "q" in tok:
            mag, _, var = tok.rpartition("*")
            power = int(var[2:]) if var.startswith("q^") else 1
            value = int(mag) if mag else 1
        else:
            power, value = 0, int(tok)
        coeffs[power] = coeffs.get(power, 0) + sign * value
        sign = 1
    return _add([], [coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)])


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _check_routes(argv: list[str], text: str) -> list[str]:
    """order --formula all must report all four routes agreeing, none skipped."""
    problems = []
    if "skipped" in text:
        problems.append("a route was skipped")
    if _option(argv, "--format", "table") == "json":
        agreed = json.loads(text).get("agreement", [])
        if sorted(agreed) != sorted(ROUTES):
            problems.append(f"agreement lists {agreed}")
    elif f"{len(ROUTES)} formulas agree" not in text.splitlines():
        problems.append(f"no '{len(ROUTES)} formulas agree' line")
    return problems


def _check_unit_total(coeffs: list[int], what: str) -> list[str]:
    """|M|(1) = 1: the coefficients of an order total sum to 1."""
    if sum(coeffs) != 1:
        return [f"{what} gives |M|(1) = {sum(coeffs)}, not 1"]
    return []


def _check_strata(argv: list[str], text: str) -> list[str]:
    fmt = _option(argv, "--format", "table")
    if fmt == "json":
        payload = json.loads(text)
        rows = [row["coeffs"] for row in payload["strata"]]
        total = payload["total_coeffs"]
    elif fmt == "csv":
        lines = text.splitlines()[1:]
        rows = [[int(c) for c in line.split(",")[1].split()] for line in lines]
        total = None
    else:
        lines = text.splitlines()
        rows = [parse_poly(line.split("  q=")[0].split(None, 1)[1]) for line in lines[1:-1]]
        total = parse_poly(lines[-1].removeprefix("total:"))
    row_sum: list[int] = []
    for row in rows:
        row_sum = _add(row_sum, row)
    problems = []
    if total is not None and row_sum != total:
        problems.append("strata rows do not sum to the total")
    return problems + _check_unit_total(row_sum, "strata row sum")


def check_output(argv: list[str], rc: int | None, text: str) -> list[str]:
    """Problems found in the stdout of one successful query."""
    if rc != 0:
        return []
    command = argv[0]
    problems: list[str] = []
    if command == "order" and _option(argv, "--formula", "all") == "all":
        problems += _check_routes(argv, text)
    if command == "order" and _option(argv, "--format") == "json":
        problems += _check_unit_total(json.loads(text)["total_coeffs"], "order total")
    if command == "strata":
        problems += _check_strata(argv, text)
    return problems
