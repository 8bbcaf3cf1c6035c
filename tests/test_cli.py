"""CLI surface: subcommands, formats, round-trips, and exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoid_orders import cli, crosssection, orders, qpoly, rootsystem, verify
from monoid_orders.crosssection import (
    LatticeEntry,
    fundamental_lattice,
    j_irreducible_lattice,
)
from monoid_orders.rootsystem import CartanType, build, parse_subset
from monoid_orders.qpoly import ONE, QPolynomial
from routes import route
from subdiagrams import star, substar
from test_qpoly import render_by_loop
from test_rootsystem import table


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_is_built_once_per_process(capsys, monkeypatch, fresh_parser):
    built = []

    class CountedParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountedParser)
    a1 = ("order", "--type", "A1", "--preset", "first-fundamental", "--formula", "thm34")
    code, out, _ = run(capsys, *a1, "--q", "2")
    assert code == 0 and out.endswith("q=2: 16\n")
    assert built.count("monoid-orders") == 1
    parsers = len(built)
    # the second call parses with the same parser, and the first call's
    # --q did not leak into the shared default
    code, out, _ = run(capsys, *a1)
    assert code == 0 and out.endswith("total: q^4\n")
    assert len(built) == parsers


def test_order_all_formulas_agree(capsys):
    code, out, _ = run(
        capsys,
        "order", "--type", "C2", "--preset", "last-fundamental",
        "--q", "2", "--formula", "all",
    )
    assert code == 0
    assert "q=2: 2296" in out
    assert "4 formulas agree" in out


def test_order_single_formula_json(capsys):
    code, out, _ = run(
        capsys,
        "order", "--type", "A2", "--preset", "first-fundamental",
        "--q", "2,3", "--formula", "thm34", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == "thm34"
    assert payload["total_coeffs"] == [0] * 9 + [1]  # q^9
    assert payload["evaluations"] == {"2": "512", "3": "19683"}


def test_order_with_explicit_j0(capsys):
    code, out, _ = run(
        capsys, "order", "--type", "C2", "--j0", "1", "--q", "2"
    )
    assert code == 0
    assert "q=2: 2296" in out


def test_order_csv(capsys):
    code, out, _ = run(
        capsys,
        "order", "--type", "A1", "--preset", "first-fundamental",
        "--q", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,coeffs,q=2"
    assert lines[-1].startswith("total,")
    assert lines[-1].endswith(",16")


def test_hpoly_c3(capsys):
    code, out, _ = run(
        capsys, "hpoly", "--type", "C3", "--preset", "last-fundamental"
    )
    assert code == 0
    assert "coefficients (22):" in out
    assert "palindromic: yes" in out


def test_hpoly_json_matches_frozen_list(capsys):
    code, out, _ = run(
        capsys,
        "hpoly", "--type", "C2", "--preset", "last-fundamental",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h_coeffs"] == [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
    assert payload["palindromic"] is True


def test_strata_gl(capsys):
    code, out, _ = run(
        capsys,
        "strata", "--type", "A1", "--preset", "first-fundamental", "--q", "2",
    )
    assert code == 0
    assert "q=2: 9" in out
    assert "q=2: 6" in out


def test_strata_symplectic_json(capsys):
    code, out, _ = run(
        capsys,
        "strata", "--type", "C2", "--preset", "last-fundamental",
        "--q", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    values = [row["evaluations"]["2"] for row in payload["strata"]]
    assert values == ["1", "225", "1350", "720"]


def broken_strata(monkeypatch, changes):
    """Make the strata producers in orders (gl_strata, symplectic_order)
    expand their strata with changes[r] added to stratum r, so the sums
    they check are the sums of the changed strata."""

    def broken(products):
        strata = qpoly.expand_all(products)
        return [s + changes.get(r, QPolynomial()) for r, s in enumerate(strata)]

    monkeypatch.setattr(orders, "expand_all", broken)


C3_STRATA_ERROR = "error: C3 strata sum has no palindromic H-polynomial\n"


def test_strata_sum_mismatch_exits_2(capsys, monkeypatch):
    # the type C sum must have an exact H-polynomial (sum - 1)/(q - 1)
    broken_strata(monkeypatch, {1: ONE})
    code, out, err = run(
        capsys, "strata", "--type", "C3", "--preset", "last-fundamental"
    )
    assert (code, out, err) == (2, "", C3_STRATA_ERROR)


def test_strata_asymmetric_h_polynomial_exits_2(capsys, monkeypatch):
    # (q - 1) q keeps (sum - 1)/(q - 1) exact but adds q to H alone
    broken_strata(monkeypatch, {1: QPolynomial([0, -1, 1])})
    code, out, err = run(
        capsys, "strata", "--type", "C3", "--preset", "last-fundamental"
    )
    assert (code, out, err) == (2, "", C3_STRATA_ERROR)


def test_matrix_strata_sum_mismatch_exits_2(capsys, monkeypatch):
    # the strata M^0..M^n come from one expand_all call; M^1 is one too many
    broken_strata(monkeypatch, {1: ONE})
    code, out, err = run(
        capsys, "strata", "--type", "A3", "--preset", "first-fundamental"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "strata sum" in err


def corrupted_expansion(monkeypatch, index, change):
    """Make the expand_all of orders add change to the coefficients of the
    value at index of each call and keep the product that value records:
    eval_big still reads the value from its product, while its printed
    coefficients, and the total summed from them, carry the change."""

    def corrupted(products):
        values = qpoly.expand_all(products)
        value = values[index]
        coeffs = (QPolynomial(value.coeffs) + change).coeffs
        values[index] = QPolynomial._of_trimmed(coeffs, value._product)
        return values

    monkeypatch.setattr(orders, "expand_all", corrupted)


SUM_ERROR = (
    "error: the rows' values do not sum to the value of the total's coefficients"
    " at q={}\n"
)


@pytest.mark.parametrize("formula", ["thm34", "thm41"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("qs", ["2,3", "3,2"])
def test_order_terms_must_sum_to_the_total_at_each_q(capsys, monkeypatch, formula, fmt, qs):
    # q - q^2 is 0 at q = 1, so the total passes its |M|(1) = 1 check
    corrupted_expansion(monkeypatch, 1, QPolynomial([0, 1, -1]))
    code, out, err = run(
        capsys, "order", "--type", "C3", "--preset", "last-fundamental",
        "--formula", formula, "--q", qs, "--format", fmt,
    )
    assert (code, out, err) == (2, "", SUM_ERROR.format(qs.split(",")[0]))


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_strata_must_sum_to_the_total_at_each_q(capsys, monkeypatch, fmt):
    # the C3 total has degree 22 and its H degree 21; q^12 - q^10 adds
    # q^10 + q^11 to H, which keeps it palindromic, and M^1 is not the top
    # stratum checked against its own expansion
    assert orders.symplectic_order(3).total.degree == 22
    corrupted_expansion(monkeypatch, 1, QPolynomial([0] * 10 + [-1, 0, 1]))
    code, out, err = run(
        capsys, "strata", "--type", "C3", "--preset", "last-fundamental",
        "--q", "5,2", "--format", fmt,
    )
    assert (code, out, err) == (2, "", SUM_ERROR.format(5))
    # with no q, nothing is evaluated and nothing checked
    code, out, _ = run(capsys, "strata", "--type", "C3", "--preset", "last-fundamental")
    assert code == 0 and out


def test_strata_unsupported_family(capsys):
    code, _, err = run(
        capsys, "strata", "--type", "G2", "--preset", "last-fundamental"
    )
    assert code == 1
    assert "strata" in err


def test_lattice_table(capsys):
    code, out, _ = run(
        capsys, "lattice", "--type", "C3", "--preset", "last-fundamental"
    )
    assert code == 0
    assert "paper-verified" in out
    assert "lambda*={2,3}" in out


def test_lattice_json_round_trips_into_order(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "lattice", "--type", "C2", "--preset", "last-fundamental",
        "--format", "json",
    )
    assert code == 0
    path = tmp_path / "lattice.json"
    path.write_text(out)
    code, out2, _ = run(
        capsys, "order", "--lattice-file", str(path), "--q", "2"
    )
    assert code == 0
    assert "q=2: 2296" in out2


def test_lattice_csv(capsys):
    code, out, _ = run(
        capsys,
        "lattice", "--type", "A1", "--preset", "first-fundamental",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "label,lambda_star,lambda_substar,torus_index_exponent"
    assert len(out.strip().splitlines()) == 4


def test_lattice_too_large_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "--type", "A40", "--j0", "")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "exceeds the bound 1000000" in err


@pytest.mark.parametrize("command", ["order", "hpoly", "lattice"])
def test_repeated_j0_index_exits_1(capsys, command):
    # --j0 2,2 was read as {2}; a repeated index is now refused, not merged
    code, out, err = run(capsys, command, "--type", "C3", "--j0", "2,2")
    assert (code, out, err) == (1, "", "error: subset '2,2' repeats an index\n")


def test_lattice_bound_follows_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "6")
    code, _, err = run(capsys, "lattice", "--type", "A3", "--j0", "")
    assert code == 2
    assert "grows 7 nonempty lambda_star sets" in err
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "7")
    assert run(capsys, "lattice", "--type", "A3", "--j0", "")[0] == 0


def test_lattice_long_symplectic_chain(capsys):
    code, out, _ = run(
        capsys,
        "lattice", "--type", "C40", "--preset", "last-fundamental",
        "--format", "csv",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 42


def _c2_lattice_file(tmp_path, **changes):
    raw = fundamental_lattice(CartanType("C", 2), 2).to_json()
    for field, value in changes.items():
        if field == "torus_rank":
            raw[field] = value
        else:
            raw["entries"][1][field] = value
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize(
    "change, message",
    [
        ({"torus_rank": "x"}, "torus_rank must be an integer, got 'x'"),
        ({"lambda_substar": "12"}, "lambda_substar must be a list of integers"),
        ({"torus_index_exponent": True}, "torus_index_exponent must be an integer"),
        ({"lambda_star": [3]}, "entry 'e{}': simple-root indices outside 1..2"),
        ({"lambda_star": [0]}, "entry 'e{}': simple-root indices outside 1..2"),
        ({"lambda_star": [-1]}, "entry 'e{}': simple-root indices outside 1..2"),
        # refused before its mask, a 10**9-bit int, is built
        ({"lambda_star": [10**9]}, "entry 'e{}': simple-root indices outside 1..2"),
        ({"lambda_substar": [3]}, "entry 'e{}': simple-root indices outside 1..2"),
        ({"lambda_star": [1, 1]}, "lambda_star repeats an index: [1, 1]"),
    ],
    ids=[
        "torus-rank-string", "substar-string", "exponent-bool", "index-outside-rank",
        "index-outside-rank-zero", "index-outside-rank-negative",
        "index-outside-rank-huge", "substar-index-outside-rank", "repeated-index",
    ],
)
def test_malformed_lattice_file_exits_2(capsys, tmp_path, change, message):
    path = _c2_lattice_file(tmp_path, **change)
    code, out, err = run(
        capsys, "order", "--lattice-file", str(path), "--formula", "thm34"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("command", ["lattice", "order", "hpoly"])
@pytest.mark.parametrize("torus_rank", [-1, 0])
def test_lattice_file_torus_rank_below_one_exits_2(
    capsys, tmp_path, command, torus_rank
):
    # not reported as an entry's exponent exceeding the torus rank
    path = _c2_lattice_file(tmp_path, torus_rank=torus_rank)
    assert run(capsys, command, "--lattice-file", str(path)) == (
        2,
        "",
        f"error: torus_rank must be at least 1, got {torus_rank}\n",
    )


@pytest.mark.parametrize("command", ["lattice", "order", "hpoly"])
def test_lattice_file_identity_exponent_below_torus_rank_exits_2(
    capsys, tmp_path, command
):
    # [T:T(1)] = |T|; every route would agree on the wrong total, and at
    # q = 2, where q - 1 = 1, it would even read the right one
    raw = fundamental_lattice(CartanType("A", 2), 1).to_json()
    identity = raw["entries"][-1]
    assert raw["torus_rank"] == 3 and identity["lambda_star"] == [1, 2]
    identity["torus_index_exponent"] = 1
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(raw))
    assert run(capsys, command, "--lattice-file", str(path)) == (
        2,
        "",
        "error: entry '1': identity entry must have torus_index_exponent 3,"
        " the torus rank\n",
    )


def unreadable_lattice_file(tmp_path, kind):
    if kind == "directory":
        return tmp_path
    path = tmp_path / "lattice.json"
    if kind == "not-utf8":
        path.write_bytes(bytes([0xFF, 0xFE, 0x00]))
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    return path


@pytest.mark.parametrize("command", ["order", "lattice"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8", "nested-100000-deep"])
def test_unreadable_lattice_file_exits_2(capsys, tmp_path, command, kind):
    path = unreadable_lattice_file(tmp_path, kind)
    code, out, err = run(capsys, command, "--lattice-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_lattice_file_array_exits_2(capsys, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps([{"type": "C2"}]))
    code, out, err = run(capsys, "lattice", "--lattice-file", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: lattice description must be a JSON object\n"


A1_EXTRA_MIDDLE_ENTRY = {
    "type": "A1",
    "torus_rank": 1,
    "entries": [
        {"label": "0", "lambda_star": [], "lambda_substar": [1], "torus_index_exponent": 0},
        {"label": "e{}", "lambda_star": [], "lambda_substar": [], "torus_index_exponent": 0},
        {"label": "1", "lambda_star": [1], "lambda_substar": [], "torus_index_exponent": 1},
    ],
}


@pytest.mark.parametrize(
    "argv",
    [["order", "--formula", f] for f in ("thm31", "thm33", "thm34", "all")]
    + [["hpoly"]],
)
def test_nonzero_entry_with_exponent_zero_exits_2(capsys, tmp_path, argv):
    # an exponent-0 non-zero entry would make every total wrong at q=1
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(A1_EXTRA_MIDDLE_ENTRY))
    code, out, err = run(capsys, *argv, "--lattice-file", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: entry 'e{}': non-zero entry must have torus_index_exponent >= 1\n"
    )


def test_verify_names_skip_and_crash_lines_from_the_table(capsys, monkeypatch):
    def crashing_check(enum_bound=None):
        raise RuntimeError("injected crash")

    def large_lattice_check(enum_bound=None):
        j_irreducible_lattice(build(CartanType("A", 40)), frozenset())
        return True, "unreachable"

    monkeypatch.setattr(
        verify,
        "ALL_CHECKS",
        {
            "crashing": crashing_check,
            "solomon-poincare": verify.check_solomon,
            "large-lattice": large_lattice_check,
        },
    )
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "100")
    code, out, _ = run(capsys, "verify")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "FAIL crashing: RuntimeError: injected crash"
    assert lines[1].startswith("skip solomon-poincare: GroupTooLarge")
    assert lines[2].startswith("skip large-lattice: LatticeTooLarge: the A40 lattice")
    assert lines[3] == "0/3 checks passed, 2 skipped"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_run_all_passes_the_bound_to_checks_that_take_one(monkeypatch):
    def bounded(enum_bound=None):
        return True, f"bound {enum_bound}"

    def unbounded(enum_bound=None):
        return True, "no bound"

    monkeypatch.setattr(verify, "ALL_CHECKS", {"bounded": bounded, "unbounded": unbounded})
    assert [(r.name, r.ok, r.detail) for r in verify.run_all(7)] == [
        ("bounded", True, "bound 7"),
        ("unbounded", True, "no bound"),
    ]


def test_every_enumerating_check_takes_the_bound():
    # every check is called with the bound; at a bound of 1 exactly the
    # checks that enumerate are stopped by it, and the others ignore it
    results = verify.run_all(1)
    assert len(results) == 10
    stopped = {r.name for r in results if r.skipped}
    assert stopped == {
        "solomon-poincare",
        "coset-identity",
        "rank-histogram",
        "subspace-count",
        "formula-agreement",
    }
    assert all(r.ok for r in results if r.name not in stopped)


def test_verify_failure_exits_3(capsys, monkeypatch):
    def broken_check(enum_bound=None):
        return False, "injected failure"

    monkeypatch.setattr(verify, "ALL_CHECKS", {"broken": broken_check})
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "FAIL broken" in out


def test_verify_small_bound_skips_instead_of_failing(capsys, monkeypatch):
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "100")
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    skips = [line.split(":")[:2] for line in lines if line.startswith("skip ")]
    assert skips == [
        ["skip solomon-poincare", " GroupTooLarge"],
        ["skip rank-histogram", " EnumerationTooLarge"],
        ["skip formula-agreement", " GroupTooLarge"],
    ]
    assert (
        "skip solomon-poincare: GroupTooLarge: |W(A4)| = 120 exceeds the bound 100"
        in lines
    )
    assert lines[-1] == "7/10 checks passed, 3 skipped"


def test_verify_failure_beside_skip_exits_3(capsys, monkeypatch):
    def broken_check(enum_bound=None):
        return False, "injected failure"

    monkeypatch.setattr(
        verify,
        "ALL_CHECKS",
        {"broken": broken_check, "solomon-poincare": verify.check_solomon},
    )
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "100")
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert out.splitlines()[-1] == "0/2 checks passed, 1 skipped"


def test_order_all_notes_both_enumeration_skips(capsys):
    code, out, _ = run(
        capsys,
        "order", "--type", "E7", "--preset", "last-fundamental",
        "--formula", "all", "--q", "2",
    )
    assert code == 0
    assert "3 formulas agree" in out
    notes = [line for line in out.splitlines() if line.startswith("note: ")]
    assert notes[-2:] == [
        "note: skipped thm31 (GroupTooLarge)",
        "note: skipped thm33 coset cross-check (GroupTooLarge)",
    ]


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "order", "--type", "Z9", "--j0", "")[0] == 1
    assert run(capsys, "order", "--type", "A2")[0] == 1  # no weight support
    assert run(capsys, "order", "--type", "A2", "--preset", "bogus")[0] == 1
    assert run(capsys, "order", "--type", "A2", "--j0", "1", "--q", "1")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


@pytest.mark.parametrize("command", ["order", "hpoly", "lattice"])
@pytest.mark.parametrize(
    "source",
    [("--preset", "last-fundamental"), ("--j0", ""), ("--j0", "1")],
    ids=["preset", "empty-j0", "j0"],
)
def test_lattice_file_with_preset_or_j0_exits_1(capsys, tmp_path, command, source):
    # the file was used and the --preset or --j0 silently dropped
    path = _c2_lattice_file(tmp_path)
    code, out, err = run(capsys, command, "--lattice-file", str(path), *source)
    assert (code, out) == (1, "")
    assert err == "error: --lattice-file excludes --preset and --j0\n"


def test_preset_and_j0_conflict(capsys):
    # an empty --j0 names J0 = {}, so it conflicts with --preset as "2" does
    for command in ("order", "hpoly", "lattice"):
        for j0 in ("2", ""):
            code, out, err = run(
                capsys,
                command, "--type", "A2", "--preset", "first-fundamental", "--j0", j0,
            )
            assert (code, out) == (1, "")
            assert err == "error: --preset and --j0 are mutually exclusive\n"


@pytest.mark.parametrize(
    "raised, err",
    [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("cannot allocate"), "error: out of memory: cannot allocate\n"),
    ],
    ids=["bare", "with-message"],
)
def test_memory_error_exits_2_with_one_line(capsys, monkeypatch, raised, err):
    def exhausted(*args, **kwargs):
        raise raised

    argv = ["--type", "A2", "--preset", "first-fundamental"]
    monkeypatch.setattr(cli, "all_orders", exhausted)
    assert run(capsys, "order", *argv, "--formula", "thm34") == (2, "", err)
    monkeypatch.setattr(cli, "_write_json", exhausted)
    assert run(capsys, "lattice", *argv, "--format", "json") == (2, "", err)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the modules a fresh interpreter adds by importing the CLI, against
    # the ones its start-up already holds
    code = (
        "import sys; before = set(sys.modules); import monoid_orders.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "monoid_orders.cli" in added
    # csv rows are written directly, so csv is not loaded either
    assert not added & {"dataclasses", "inspect", "csv"}


def test_computation_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "A1", "entries": [{"label": "x"}]}')
    code, _, err = run(capsys, "order", "--lattice-file", str(bad))
    assert code == 2
    assert "error" in err
    assert run(capsys, "order", "--lattice-file", str(tmp_path / "nope.json"))[0] == 2


def test_closed_stdout_exits_without_traceback():
    # the 800 kB of output overfill the pipe, so the CLI is still writing
    # when the reader goes, as with `| head -c 10`
    argv = ["order", "--type", "C30", "--preset", "last-fundamental"]
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "monoid_orders.cli", *argv, "--formula", "thm41"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"type C30  "
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert err == ""  # no traceback, nor any other line


def test_enum_bound_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "1")
    # thm31 needs enumeration, so a tiny bound kills it
    code, _, err = run(
        capsys,
        "order", "--type", "A1", "--preset", "first-fundamental",
        "--formula", "thm31",
    )
    assert code == 2
    assert "exceeds" in err
    # thm34 never enumerates
    code, out, _ = run(
        capsys,
        "order", "--type", "A1", "--preset", "first-fundamental",
        "--formula", "thm34", "--q", "2",
    )
    assert code == 0
    assert "q=2: 16" in out
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "not-a-number")
    assert run(capsys, "verify")[0] == 1


@pytest.mark.parametrize(
    "value",
    ["-5", "+5", "1_000", " 7 ", "\u0663", "7.0", "1e3", "9" * 5000],
    ids=["negative", "plus", "underscore", "spaces", "arabic-indic-3", "float",
         "exponent", "past-the-digit-limit"],
)
def test_enum_bound_env_var_takes_ascii_digits_only(capsys, monkeypatch, value):
    # int() took the first five: -5 became a negative bound, and an
    # Arabic-Indic 3 a bound of 3 that made order skip thm31
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", value)
    code, out, err = run(
        capsys, "order", "--type", "A1", "--preset", "first-fundamental"
    )
    assert (code, out) == (1, "")
    assert err == f"error: MONOID_ORDERS_ENUM_BOUND={value!r} is not an integer\n"


# 2021 = 43 * 47 and 1373653 = 829 * 1657, a strong pseudoprime to bases 2
# and 3, reach the Miller-Rabin loop; the last has the witness 2 as a factor
@pytest.mark.parametrize(
    "q", ["6", "10", "12", "2,6", "2021", "1373653", str(2 * 3317044064679887385961981)],
)
def test_q_must_be_prime_power(capsys, q):
    for argv in (
        ("order", "--type", "A1", "--preset", "first-fundamental", "--q", q),
        ("strata", "--type", "A1", "--preset", "first-fundamental", "--q", q),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: q values must be prime powers, got {q.split(',')[-1]}\n"


# each was coerced: ',' gave no evaluation, '2,,3' dropped the empty item,
# '1_6' evaluated at 16, the Arabic-Indic four at 4, and '2,2' printed one
# column under order but two under strata
@pytest.mark.parametrize(
    "qs, message",
    [
        ([","], "bad q value ''"),
        (["2,,3"], "bad q value ''"),
        (["1_6"], "bad q value '1_6'"),
        (["\u0664"], "bad q value '\u0664'"),
        (["2, 3"], "bad q value ' 3'"),
        (["2,2"], "q value 2 is given twice"),
        (["3", "3"], "q value 3 is given twice"),
        (["02,2"], "q value 2 is given twice"),
    ],
    ids=["comma", "empty-item", "underscore", "arabic-indic", "space", "repeat",
         "repeat-flag", "repeat-leading-zero"],
)
@pytest.mark.parametrize("command", ["order", "strata"])
def test_malformed_q_exits_1(capsys, command, qs, message):
    argv = [command, "--type", "A1", "--preset", "first-fundamental"]
    for q in qs:
        argv += ["--q", q]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_evaluation_past_the_digit_limit_exits_1(capsys, fmt):
    # q = 2^4000 makes q^4 and q^9 longer than Python prints by default
    q = str(2**4000)
    limit = sys.get_int_max_str_digits()
    for argv in (
        ("order", "--type", "A1", "--preset", "first-fundamental",
         "--formula", "thm34"),
        ("strata", "--type", "A2", "--preset", "first-fundamental"),
    ):
        assert run(capsys, *argv, "--q", q, "--format", fmt) == (
            1,
            "",
            f"error: an evaluation has more than {limit} digits; use a smaller --q\n",
        )


def test_evaluation_past_the_digit_limit_at_q_2_names_the_smallest_q(capsys):
    # |M|(2) of C36 has about 790 digits; no smaller q exists to advise
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = run(capsys, "strata", "--type", "C36", "--preset", "last-fundamental",
                     "--q", "2")
    finally:
        sys.set_int_max_str_digits(limit)
    assert result == (
        1,
        "",
        "error: an evaluation has more than 640 digits at q=2, the smallest q\n",
    )


def test_evaluation_past_the_digit_limit_is_found_at_the_smallest_q_first(capsys):
    # |M|(2) of C33 has about 666 digits, and strata rows before the total
    # pass 640 digits at q = 3 already: the values are checked q by q in
    # ascending q over all rows, so q = 2 is named, not a smaller --q advised
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        results = [
            run(capsys, "strata", "--type", "C33", "--preset", "last-fundamental",
                "--q", qs)
            for qs in ("2,3", "3,2")
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    line = "error: an evaluation has more than 640 digits at q=2, the smallest q\n"
    assert results == [(1, "", line)] * 2


@pytest.fixture
def digit_limit_640():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


COEFFICIENT_TOO_LONG = (1, "", "error: a coefficient has more than 640 digits\n")


def _wide_torus_file(tmp_path, k: int) -> str:
    """An A1 lattice file whose identity entry and torus rank are k, so its
    thm34 total holds the binomial coefficients of (q - 1)^k."""
    entries = [
        {"label": "0", "lambda_star": [], "lambda_substar": [1], "torus_index_exponent": 0},
        {"label": "1", "lambda_star": [1], "lambda_substar": [], "torus_index_exponent": k},
    ]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"type": "A1", "torus_rank": k, "entries": entries}))
    return str(path)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", [["order", "--formula", "thm34"], ["hpoly"]])
def test_coefficient_past_the_digit_limit_exits_1(
    capsys, tmp_path, digit_limit_640, command, fmt
):
    # C(2200, 1100) has 661 digits, while every value at q = 2 is small
    path = _wide_torus_file(tmp_path, 2200)
    argv = [*command, "--lattice-file", path, "--format", fmt]
    assert run(capsys, *argv) == COEFFICIENT_TOO_LONG


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_stratum_coefficient_past_the_digit_limit_exits_1(
    capsys, monkeypatch, digit_limit_640, fmt
):
    # no stratum of the two presets has a coefficient this long before its
    # value at q = 2 is too long to print, so one is put in their place
    wide = qpoly.expand(qpoly.QProduct(0, ((1, 2200),)))  # (q - 1)^2200
    monkeypatch.setattr(cli, "_strata_rows", lambda args: ("wide", [("W", wide)], wide))
    argv = ["strata", "--type", "C2", "--preset", "last-fundamental", "--format", fmt]
    assert run(capsys, *argv) == COEFFICIENT_TOO_LONG


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_coefficient_of_the_limit_s_length_prints_and_one_digit_more_does_not(
    capsys, monkeypatch, digit_limit_640, fmt
):
    # the sign does not count against the limit: -(10^640 - 1), 640 digits
    # and a sign, prints; -10^640, 641 digits, does not
    argv = ["strata", "--type", "C2", "--preset", "last-fundamental", "--format", fmt]
    for magnitude in (10**640 - 1, 10**640):
        edge = QPolynomial([-magnitude, 1])
        monkeypatch.setattr(cli, "_strata_rows", lambda args: ("edge", [("E", edge)], edge))
        code, out, err = run(capsys, *argv)
        if magnitude < 10**640:
            assert (code, err) == (0, "")
            assert str(magnitude) in out
        else:
            assert (code, out, err) == COEFFICIENT_TOO_LONG


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_value_of_the_limit_s_length_prints_and_one_digit_more_does_not(
    capsys, monkeypatch, digit_limit_640, fmt
):
    # a row whose 0/1 coefficients are the binary digits of its value at
    # q = 2: 10^640 - 1, 640 digits, prints; 10^640, 641 digits, does not,
    # as str() of either decides under the same limit
    argv = ["strata", "--type", "C2", "--preset", "last-fundamental", "--q", "2",
            "--format", fmt]
    for value in (10**640 - 1, 10**640):
        edge = QPolynomial([int(bit) for bit in reversed(f"{value:b}")])
        monkeypatch.setattr(cli, "_strata_rows", lambda args: ("edge", [("E", edge)], edge))
        code, out, err = run(capsys, *argv)
        if value < 10**640:
            assert (code, err) == (0, "")
            assert str(value) in out
        else:
            line = "error: an evaluation has more than 640 digits at q=2, the smallest q\n"
            assert (code, out, err) == (1, "", line)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_wide_strata_total_refuses_only_the_formats_that_print_it(
    capsys, monkeypatch, digit_limit_640, fmt
):
    narrow, wide = QPolynomial([1, 1]), QPolynomial([-(10**640), 1])
    monkeypatch.setattr(cli, "_strata_rows", lambda args: ("wide", [("N", narrow)], wide))
    result = run(capsys, "strata", "--type", "C2", "--preset", "last-fundamental",
                 "--format", fmt)
    # the csv prints no total
    assert result == ((0, "label,coeffs\r\nN,1 1\r\n", "") if fmt == "csv"
                      else COEFFICIENT_TOO_LONG)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["strata", "--type", "C30", "--preset", "last-fundamental"],
        ["order", "--type", "A8", "--j0=", "--formula", "thm34"],
    ],
    ids=["strata-C30", "order-A8"],
)
def test_rows_are_rendered_as_they_are_written(monkeypatch, argv, fmt):
    # no polynomial text is built before the first write, but the first
    # stratum's json item, which is written when it is done
    built = Counter()
    renders = counting_term_renders(monkeypatch)  # the json lists' texts
    first_write = []

    class Sink:
        def write(self, text):
            if not first_write:
                first_write.append(built.total() + renders.total())
            return len(text)

    def counted(real):
        def call(*args):
            built[real.__name__] += 1
            return real(*args)

        return call

    monkeypatch.setattr(QPolynomial, "__str__", counted(QPolynomial.__str__))
    monkeypatch.setattr(cli, "_term_fields", counted(cli._term_fields))
    monkeypatch.setattr(sys, "stdout", Sink())
    code = cli.main([*argv, "--format", fmt])
    assert code == 0
    assert built.total() + renders.total() > 30  # every row's text, in the end
    assert first_write == [1 if fmt == "json" and argv[0] == "strata" else 0]


class _Text(str):
    """A text that takes weak references, as a plain str does not."""


def test_rendered_keeps_only_the_texts_of_objects_two_rows_hold():
    # once a row is taken and let go, its text is gone unless a later row
    # holds the same object; each object is rendered once, at its first row
    shared, *once = (QPolynomial([1, i]) for i in range(1, 6))
    rows = [("a", once[0]), ("b", shared), ("c", once[1]), ("d", shared),
            ("e", once[2]), ("f", once[3]), ("g", shared)]
    held = Counter(id(poly) for _, poly in rows)
    renders = Counter()

    def render(poly):
        renders[id(poly)] += 1
        return _Text(poly)

    texts = cli._rendered(rows, held, render)
    refs = []
    for i, (label, poly) in enumerate(rows):
        taken, text = next(texts)
        assert (taken, text) == (label, str(poly))
        refs.append(weakref.ref(text))
        del text
        alive = [label for (label, _), ref in zip(rows, refs) if ref() is not None]
        assert alive == [label for label, poly in rows[: i + 1] if poly is shared]
    assert next(texts, None) is None
    assert not [ref for ref in refs if ref() is not None]
    assert renders == dict.fromkeys(map(id, [shared, *once]), 1)


def test_order_table_rows_come_through_the_render_once_helper(capsys, monkeypatch):
    # C12 thm41 has one distinct term object per entry: each row's text is
    # gone once the table has written it, so the table keeps no text
    lat = j_irreducible_lattice(build(CartanType("C", 12)), frozenset(range(1, 12)))
    real, taken = cli._rendered, []

    def spy(rows, held, render):
        assert set(held.values()) == {1}
        refs = []
        for label, text in real(rows, held, lambda poly: _Text(render(poly))):
            # the row before the one just written is gone
            assert [ref() for ref in refs[:-1]] == [None] * len(refs[:-1])
            refs.append(weakref.ref(text))
            taken.append(label)
            yield label, text

    monkeypatch.setattr(cli, "_rendered", spy)
    argv = ["order", "--type", "C12", "--preset", "last-fundamental", "--formula", "thm41"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert taken == [e.label for e in lat.entries]
    rows = [line for line in out.splitlines() if line.startswith("  ")]
    terms = [f"  {term}" for _, term in route(lat, "thm41").terms]
    assert [row[-len(term):] for row, term in zip(rows, terms)] == terms


def test_thm41_refusing_a_type_support_is_a_lattice_fault(capsys, monkeypatch, tmp_path):
    # a weight-support lattice keeps thm41's |lambda*| + 1 rule by
    # construction; with the torus exponent of X = {1,2,3} raised, thm31,
    # thm33 and thm34 still agree, and only thm41's refusal shows the fault
    real = cli.j_irreducible_lattice

    def faulty(rs, j0, bound=None):
        lat = real(rs, j0, bound)
        raised = [
            e.replace(torus_index_exponent=e.torus_index_exponent + 1)
            if e.star_mask == 0b111 else e
            for e in lat.entries
        ]
        return lat.replace(entries=tuple(raised))

    monkeypatch.setattr(cli, "j_irreducible_lattice", faulty)
    argv = ["order", "--type", "A5", "--preset", "first-fundamental", "--q", "2,3"]
    assert run(capsys, *argv) == (
        2,
        "",
        "error: the weight-support lattice of A5: lattice torus-index exponents"
        " do not follow the |lambda*|+1 rule\n",
    )
    # the same lattice from a file is no weight-support lattice: thm41 is skipped
    path = tmp_path / "raised.json"
    lat = faulty(build(CartanType("A", 5)), frozenset({2, 3, 4, 5}))
    path.write_text(json.dumps(lat.to_json()))
    code, out, err = run(capsys, "order", "--lattice-file", str(path), "--q", "2,3")
    assert (code, err) == (0, "")
    assert "note: skipped thm41 (NotJIrreducible)\n" in out
    assert out.endswith("3 formulas agree\n")


def raise_exponent_of_123(real):
    """real, a lattice builder, with the torus exponent of X = {1,2,3} raised
    by one: a fault that thm31, thm33 and thm34 agree on."""

    def faulty(rs, j0, bound=None):
        lat = real(rs, j0, bound)
        raised = [
            e.replace(torus_index_exponent=e.torus_index_exponent + 1)
            if e.star_mask == 0b111 else e
            for e in lat.entries
        ]
        return lat.replace(entries=tuple(raised))

    return faulty


@pytest.mark.parametrize("support", [("--preset", "first-fundamental"), ("--j0", "2,3,4,5")])
def test_a_omega_1_total_must_be_the_matrix_monoid_order(capsys, monkeypatch, support):
    # A5 with J0 = Delta - {1} is the matrix monoid M_6, of order q^36; thm34
    # alone meets no rule of its own under the fault, and its q = 2 value is
    # still 2^36, since every (q - 1)^k is 1 there
    faulty = raise_exponent_of_123(cli.j_irreducible_lattice)
    monkeypatch.setattr(cli, "j_irreducible_lattice", faulty)
    argv = ["order", "--type", "A5", *support, "--formula", "thm34", "--q", "2,3"]
    assert run(capsys, *argv) == (2, "", "error: the A5 omega_1 total is not |M_6| = q^36\n")
    # another support of A5 has no closed form to meet, and the fault passes
    code, out, err = run(capsys, "order", "--type", "A5", "--j0", "1,2,3,4", "--formula", "thm34")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("n", range(1, 9))
def test_a_omega_1_totals_are_matrix_monoid_orders(capsys, n):
    for formula in ("thm34", "thm41"):
        argv = ["order", "--type", f"A{n}", "--preset", "first-fundamental"]
        code, out, err = run(capsys, *argv, "--formula", formula)
        assert (code, err) == (0, "")
        assert f"\ntotal: q^{(n + 1) ** 2}\n" in out


ROOT_FREE_LATTICES = [
    ("C16", ("--preset", "last-fundamental"), ()),
    ("D14", ("--preset", "last-fundamental"), ()),
    ("A12", ("--j0", ""), ("--format", "csv")),
    ("B12", ("--j0", "1,3,5,7,9,11"), ("--format", "json")),
]


def spy_on(monkeypatch, *names):
    """The root systems that cli's names (lattice builders, hpoly's sums)
    are called with, each call still made."""
    seen = []

    def spied(real):
        def call(rs, *args, **kwargs):
            seen.append(rs)
            return real(rs, *args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(cli, name, spied(getattr(cli, name)))
    return seen


@pytest.mark.parametrize("spec, support, fmt", ROOT_FREE_LATTICES)
def test_lattice_enumerates_no_root(capsys, monkeypatch, spec, support, fmt):
    # the lattice reads the Dynkin diagram alone, so the root table of the
    # root system it is built on is never read
    def refuse(rs):
        raise AssertionError(f"{rs.cartan_type}'s roots were enumerated")

    expected = run(capsys, "lattice", "--type", spec, *support, *fmt)
    seen = spy_on(monkeypatch, "j_irreducible_lattice")
    monkeypatch.setattr(rootsystem, "_enumerate", refuse)
    assert run(capsys, "lattice", "--type", spec, *support, *fmt) == expected
    assert expected[0] == 0 and len(seen) == 1 and table(seen[0]) == (None, None, None)


@pytest.mark.parametrize("spec, support, fmt", ROOT_FREE_LATTICES)
def test_order_and_hpoly_read_the_root_table(capsys, monkeypatch, spec, support, fmt):
    # both read parabolic degrees, so they run on built root systems
    seen = spy_on(monkeypatch, "j_irreducible_lattice", "census_total", "chain_total")
    assert run(capsys, "order", "--type", spec, *support, "--formula", "thm34")[0] == 0
    assert run(capsys, "hpoly", "--type", spec, *support)[0] == 0
    assert len(seen) == 2
    assert all(None not in table(rs) for rs in seen)


def test_lattice_file_enumerates_no_root(capsys, monkeypatch, tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(fundamental_lattice(CartanType("C", 5), 5).to_json()))
    seen = spy_on(monkeypatch, "load_lattice")
    build.cache_clear()  # lattice shares build's cache, which earlier reads fill
    code, out, err = run(capsys, "lattice", "--lattice-file", str(path))
    assert (code, err) == (0, "") and out.startswith("type C5  torus rank 6  (user-supplied)")
    assert len(seen) == 1 and table(seen[0]) == (None, None, None)
    # order on the same file reads degrees, from the same root system's table
    assert run(capsys, "order", "--lattice-file", str(path), "--formula", "thm34")[0] == 0
    assert len(seen) == 2 and seen[1] is seen[0] and None not in table(seen[1])


def test_lattice_keeps_the_build_cap(capsys):
    # no root table is built, but a type whose table would exceed the cap
    # is still refused, with the same line and exit code as order's
    for command in ("lattice", "order"):
        argv = [command, "--type", "A2000", "--preset", "last-fundamental"]
        assert run(capsys, *argv) == (
            1,
            "",
            "error: A2000 has 2001000 positive roots of rank 2000: a root table"
            " of 4002000000 entries exceeds the cap 1000000\n",
        )


MERSENNE_61 = 2**61 - 1


# no witness divides 43, 97 or 2^61 - 1, so Miller-Rabin decides them; 97 - 1
# is 3 * 2^5, so its squaring loop runs
@pytest.mark.parametrize(
    "q, value",
    [
        ("4", "256"),
        ("8", "4096"),
        ("9", "6561"),
        ("43", "3418801"),
        ("1849", str(43**8)),
        ("97", "88529281"),
        pytest.param(str(MERSENNE_61), str(MERSENNE_61**4), id="2^61-1"),
        pytest.param(str(MERSENNE_61**2), str(MERSENNE_61**8), id="(2^61-1)^2"),
    ],
)
def test_q_accepts_prime_powers(capsys, q, value):
    code, out, _ = run(
        capsys,
        "order", "--type", "A1", "--preset", "first-fundamental",
        "--formula", "thm34", "--q", q,
    )
    assert code == 0
    assert f"q={q}: {value}" in out  # |M_2| = q^4


def test_long_q_is_refused_within_a_second(capsys):
    # no k-th root of 10^4000 + 1 is taken for k >= 2: a prime p = 1 (mod k)
    # shows that it is no k-th power residue, so only the primality test runs
    q = 10**4000 + 1
    start = time.perf_counter()
    code, out, err = run(capsys, *ORDER_A1, "--q", str(q))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        f"error: cannot certify that {q} is prime: the primality test is"
        f" exact only below {UNCERTIFIED}\n"
    )


def reference_is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def test_prime_power_verdicts_match_trial_division():
    assert [n for n in range(2, 5001) if cli._is_prime_power(n)] == [
        n for n in range(2, 5001) if reference_is_prime_power(n)
    ]


# SHA-256 of stdout, with exit code and stderr, for every subcommand in
# every format on small types; the benchmark catalog never runs order CSV or
# hpoly CSV/JSON, so these are their only byte-level pins.
ORDER_C2 = ("order", "--type", "C2", "--preset", "last-fundamental", "--q", "2,4")
ORDER_A2 = (
    "order", "--type", "A2", "--preset", "first-fundamental",
    "--q", "3", "--formula", "thm31",
)
HPOLY_B3 = ("hpoly", "--type", "B3", "--preset", "last-fundamental")
STRATA_A3 = ("strata", "--type", "A3", "--preset", "first-fundamental", "--q", "2,3")
STRATA_C3 = ("strata", "--type", "C3", "--preset", "last-fundamental", "--q", "2")
LATTICE_G2 = ("lattice", "--type", "G2", "--preset", "first-fundamental")
PINNED_OUTPUT = [
    (ORDER_C2, "table", "7088f71df6615e4f18b231cf4ba9667a8df1039b16309c1e263f61eac1e338f6"),
    (ORDER_C2, "csv", "27cfa49ffb1f43bdba090c64869094b5f7afa2ec1370de8660dcc959175f009d"),
    (ORDER_C2, "json", "891867e50719645f4ce9eb5a3ff9a4947061a974300cf657b068d8332f339aaa"),
    (ORDER_A2, "table", "b0cdc9009fb0095cd6d8879fd964264dd4ed64a4e6c197af1dfed3756c499aff"),
    (ORDER_A2, "csv", "5f6ee493c32a862b7c941fe919caa6bae62b4d6912566766ee0d1d9b02808986"),
    (ORDER_A2, "json", "2fa1d25608dab56dfc1077321dc01f71d1b8ba21c4445d40e0ccb6cb6e0a1d42"),
    (HPOLY_B3, "table", "1392fd6ddeaf7b4e292cbf7349b2eb4067ab813f80ce0aae1676076f7c2d08b6"),
    (HPOLY_B3, "csv", "ba134f18ed2032c524812c4a43c2baa5a1964cd84bc962e794d17486c8b3228a"),
    (HPOLY_B3, "json", "e70bf49d80dcf2ce6b8360867928ddfe51ca996d5649d8ec3a2b0f0576746ea4"),
    (STRATA_A3, "table", "3f578c8677efeb0dcdf5483872531c3ecafd64f3308c27bcf670ab3236ddd894"),
    (STRATA_A3, "csv", "1ce5d75abf6c2bb5bafb8db9a742e29acaaccafd61884c9427baec0b59a3383f"),
    (STRATA_A3, "json", "0611fb6f1ccd1b2caa04366732057116e4671d622c10b49090ba706757d038d3"),
    (STRATA_C3, "table", "d86218f2a3e61270e52b5a068ca13a3f8e772f2cae9d849234d9ca81ec8ae29c"),
    (STRATA_C3, "csv", "65be28071c08a7538d2a989e15d7c0f0ad3d66ac28560ec6beaac2b40dd8c908"),
    (STRATA_C3, "json", "0ce860ad2918883aa74b18a40ab73dc0e5421f51d2b0bff6ae5506b6aa2df11f"),
    (LATTICE_G2, "table", "503c3d911958d3977814bdb6259e9ef1ef209c6fb7a0e71ca79ac80ae1562d9c"),
    (LATTICE_G2, "csv", "29990490747dc99037cb258aedae1015c6dc2fda32a908706c292246f26d1877"),
    (LATTICE_G2, "json", "8bf2f194a3a9bc3116da30251baaebe8ff0a1a0e0202eb173a4a345da253c90f"),
]
# 3317044064679887385961981 = 1287836182261 * 2575672364521 passes
# Miller-Rabin for all 13 witnesses
UNCERTIFIED = 3317044064679887385961981
UNCERTIFIED_LINE = (
    f"error: cannot certify that {UNCERTIFIED} is prime: the primality test is"
    f" exact only below {UNCERTIFIED}\n"
)
ORDER_A1 = ("order", "--type", "A1", "--preset", "first-fundamental")
PINNED_USAGE_ERRORS = [
    (
        ("order", "--type", "A2", "--preset", "first-fundamental", "--q", "6"),
        "error: q values must be prime powers, got 6\n",
    ),
    (
        ("strata", "--type", "A2", "--preset", "first-fundamental", "--q", "x"),
        "error: bad q value 'x'\n",
    ),
    (
        ("order", "--preset", "last-fundamental"),
        "error: --type is required without --lattice-file\n",
    ),
    (("strata", "--preset", "last-fundamental"), "error: --type is required\n"),
    ((*ORDER_A1, "--formula", "thm34", "--q", str(UNCERTIFIED)), UNCERTIFIED_LINE),
    ((*ORDER_A1, "--q", str(UNCERTIFIED**2)), UNCERTIFIED_LINE),
]
USAGE_ERROR_IDS = [
    "order",
    "strata",
    "order-without-type",
    "strata-without-type",
    "uncertified-root",
    "uncertified-root-squared",
]


@pytest.mark.parametrize(
    "src, fmt, digest",
    PINNED_OUTPUT,
    ids=[f"{src[0]}-{src[2]}-{fmt}" for src, fmt, _ in PINNED_OUTPUT],
)
def test_output_bytes_are_pinned(capsys, src, fmt, digest):
    code, out, err = run(capsys, *src, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, err_line", PINNED_USAGE_ERRORS, ids=USAGE_ERROR_IDS)
def test_usage_error_bytes_are_pinned(capsys, argv, err_line):
    assert run(capsys, *argv) == (1, "", err_line)



def test_order_all_reports_swapped_terms_with_equal_totals(capsys, monkeypatch):
    # the swap is in thm41's factored terms, so all_orders expands thm41 on
    # its own
    thm41 = orders.thm41_products

    def swapped(lat):
        first, second, *rest = thm41(lat)
        return [second, first, *rest]

    monkeypatch.setattr(orders, "thm41_products", swapped)
    code, out, err = run(
        capsys, "order", "--type", "C2", "--preset", "last-fundamental",
        "--formula", "all",
    )
    assert (code, out) == (3, "")
    terms = route(fundamental_lattice(CartanType("C", 2), 2), "thm34").terms
    (label, first), (_, second) = terms[:2]
    assert first != second
    assert err.splitlines() == [
        f"formula disagreement at entry {label!r}:",
        f"  thm31: {first}",
        f"  thm33: {first}",
        f"  thm34: {first}",
        f"  thm41: {second}",
    ]


def test_order_all_reports_a_formula_disagreement(capsys, monkeypatch):
    # a total one too high has |M|(1) = 2, which _checked refuses inside the
    # route, so the fault goes into thm41's report after its check
    finish = orders._finish

    def off_by_one(formula, *args, **kwargs):
        report = finish(formula, *args, **kwargs)
        return report.replace(total=report.total + ONE) if formula == "thm41" else report

    monkeypatch.setattr(orders, "_finish", off_by_one)
    code, out, err = run(
        capsys, "order", "--type", "C2", "--preset", "last-fundamental",
        "--formula", "all",
    )
    assert (code, out) == (3, "")
    total = route(fundamental_lattice(CartanType("C", 2), 2), "thm34").total
    assert err.splitlines() == [
        "formula disagreement:",
        f"  thm31: {total}",
        f"  thm33: {total}",
        f"  thm34: {total}",
        f"  thm41: {total + ONE}",
    ]


def test_order_all_names_the_route_of_an_extra_factored_term(capsys, monkeypatch):
    # one more factored term, 1, past the last entry: thm41 is expanded on
    # its own, and its total is refused under its own name
    thm41 = orders.thm41_products
    monkeypatch.setattr(orders, "thm41_products", lambda lat: [*thm41(lat), qpoly.QProduct()])
    code, out, err = run(
        capsys, "order", "--type", "C2", "--preset", "last-fundamental",
        "--formula", "all",
    )
    assert (code, out, err) == (2, "", "error: thm41 total is 2 at q=1, not 1\n")


@pytest.mark.parametrize(
    "change, code, err_line",
    [
        (
            lambda raw: raw.pop("type"),
            1,
            "error: lattice file carries no type and --type not given\n",
        ),
        (
            lambda raw: raw["entries"][0].update(torus_index_exponent=1),
            2,
            "error: entry '0': zero entry must have torus_index_exponent 0\n",
        ),
        (lambda raw: raw.update(entries=[1]), 2, "error: entry #0 is not an object\n"),
    ],
    ids=["no-type", "zero-entry-exponent-1", "entries-not-objects"],
)
def test_lattice_file_error_lines(capsys, tmp_path, change, code, err_line):
    raw = fundamental_lattice(CartanType("C", 2), 2).to_json()
    change(raw)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(raw))
    assert run(capsys, "order", "--lattice-file", str(path)) == (code, "", err_line)


def test_explicit_j0_equal_to_a_preset_keeps_its_provenance(capsys):
    preset = run(capsys, "lattice", "--type", "C3", "--preset", "last-fundamental")
    explicit = run(capsys, "lattice", "--type", "C3", "--j0", "1,2")
    assert preset == explicit
    assert "(paper-verified)" in explicit[1]


@pytest.mark.parametrize("spec", ["E8", "C13"])
def test_hpoly_csv_is_what_csv_writer_writes(capsys, spec):
    argv = ("hpoly", "--type", spec, "--preset", "last-fundamental")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["power", "coefficient"])
    writer.writerows(enumerate(json.loads(out)["h_coeffs"]))
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.encode() == expected.getvalue().encode()


def listed_hpoly(capsys, spec, j0, fmt):
    """hpoly's bytes from the thm34 route on the listed lattice."""
    rs = build(CartanType.parse(spec))
    cli._print_hpoly(route(j_irreducible_lattice(rs, j0), "thm34"), fmt)
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_hpoly_chain_sum_prints_the_listed_bytes(capsys, fmt):
    for rank in range(1, 10):
        expected = listed_hpoly(capsys, f"A{rank}", frozenset(), fmt)
        got = run(capsys, "hpoly", "--type", f"A{rank}", "--j0", "", "--format", fmt)
        assert got == (0, expected, ""), rank


def raise_on_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"hpoly called {name}")

    return fail


def test_hpoly_prints_the_h_polynomial_of_order_thm34(capsys, tmp_path):
    def lattice(spec, j0):
        return j_irreducible_lattice(build(CartanType.parse(spec)), frozenset(j0))

    d5 = lattice("D5", {2, 4})
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(d5.to_json()))
    cases = [
        (("--type", "C3", "--preset", "last-fundamental"), lattice("C3", {1, 2})),
        (("--type", "D5", "--j0", "2,4"), d5),
        (("--type", "A5", "--j0", ""), lattice("A5", ())),
        (("--lattice-file", str(path)), d5),
    ]
    for argv, lat in cases:
        code, out, err = run(capsys, "hpoly", *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        h = orders.h_polynomial(route(lat, "thm34").total)
        assert json.loads(out)["h_coeffs"] == list(h.coeffs), argv


def test_hpoly_chain_sum_lists_no_lattice(capsys, monkeypatch):
    expected = run(capsys, "hpoly", "--type", "A10", "--j0", "")
    fail = raise_on_call("j_irreducible_lattice")
    monkeypatch.setattr(crosssection, "j_irreducible_lattice", fail)
    monkeypatch.setattr(cli, "j_irreducible_lattice", fail)
    assert expected[0] == 0
    assert run(capsys, "hpoly", "--type", "A10", "--j0", "") == expected


@pytest.mark.parametrize("spec", ["A20", "A30"])
def test_hpoly_past_the_lattice_bound(capsys, spec):
    code, out, err = run(capsys, "hpoly", "--type", spec, "--j0", "")
    assert (code, err) == (0, "")
    assert "palindromic: yes" in out


@pytest.mark.parametrize(
    "argv",
    [("lattice",), ("order",), ("order", "--formula", "thm34")],
    ids=["lattice", "order", "order-thm34"],
)
def test_listing_a20_still_exceeds_the_lattice_bound(capsys, argv):
    code, out, err = run(capsys, *argv, "--type", "A20", "--j0", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: the A20 lattice for J0 = [] grows ")
    assert err.endswith("which exceeds the bound 1000000\n")


def test_hpoly_over_the_chain_bound_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "hpoly", "--type", "A52", "--j0", "")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err == (
        "error: the A52 chain sum for J0 = [] holds 1048022 coefficients in its"
        " products, which exceeds the bound 1000000\n"
    )


def test_hpoly_chain_bound_follows_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "2375")
    code, out, err = run(capsys, "hpoly", "--type", "A10", "--j0", "")
    assert (code, out) == (2, "")
    assert "holds 2376 coefficients in its products" in err
    assert err.endswith("exceeds the bound 2375\n")
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "2376")
    assert run(capsys, "hpoly", "--type", "A10", "--j0", "")[0] == 0


# a B/C note, F4 with and without the double bond in J0, branch nodes of
# D and E, the triple bond of G2, and type A off J0 = {}
CENSUS_SAMPLE = [
    ("C3", "1,2"),
    ("B6", "1,3,5"),
    ("F4", "1"),
    ("F4", "2,3"),
    ("D5", "2,4"),
    ("E6", "1,3,5"),
    ("G2", "2"),
    ("A6", "1"),
]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_hpoly_census_prints_the_listed_bytes(capsys, fmt):
    for spec, j0 in CENSUS_SAMPLE:
        J0 = frozenset(map(int, j0.split(",")))
        expected = listed_hpoly(capsys, spec, J0, fmt)
        got = run(capsys, "hpoly", "--type", spec, "--j0", j0, "--format", fmt)
        assert got == (0, expected, ""), (spec, j0)


def test_hpoly_census_lists_no_lattice(capsys, monkeypatch):
    queries = [("--type", spec, "--j0", j0) for spec, j0 in CENSUS_SAMPLE]
    queries += [("--type", "C13", "--preset", "last-fundamental")]
    expected = [run(capsys, "hpoly", *argv) for argv in queries]
    fail = raise_on_call("j_irreducible_lattice")
    monkeypatch.setattr(crosssection, "j_irreducible_lattice", fail)
    monkeypatch.setattr(cli, "j_irreducible_lattice", fail)
    for argv, before in zip(queries, expected):
        assert before[0] == 0
        assert run(capsys, "hpoly", *argv) == before, argv


@pytest.mark.parametrize("spec", ["B20", "D20"])
def test_hpoly_census_answers_past_the_lattice_bound(capsys, spec):
    # 1,048,577 entries, which lattice and order refuse to list
    code, out, err = run(capsys, "hpoly", "--type", spec, "--j0", "")
    assert (code, err) == (0, "")
    notes = [line for line in out.splitlines() if line.startswith("note: ")]
    assert notes == ["note: type map: " + crosssection.RULE_DERIVED] + (
        ["note: " + orders.BC_NOTE] if spec == "B20" else []
    )
    assert out.endswith("palindromic: yes\n")


def test_hpoly_census_bound_follows_env_var(capsys, monkeypatch):
    d10 = ("hpoly", "--type", "D10", "--j0", "2,4,6,8")
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "12960")
    assert run(capsys, *d10) == (
        2,
        "",
        "error: the D10 census sum for J0 = [2, 4, 6, 8] holds 12961 coefficients"
        " in its products, which exceeds the bound 12960\n",
    )
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "12961")
    assert run(capsys, *d10)[0] == 0
    monkeypatch.setenv("MONOID_ORDERS_ENUM_BOUND", "137")
    assert run(capsys, "hpoly", "--type", "A10", "--j0", "1") == (
        2,
        "",
        "error: the A10 census for J0 = [1] holds 138 partial keys at node 1,"
        " which exceeds the bound 137\n",
    )


def test_hpoly_census_bound_defaults_to_the_enumeration_bound(capsys):
    code, out, err = run(capsys, "hpoly", "--type", "C22", "--j0", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: the C22 census sum for J0 = [] holds ")
    assert err.endswith(" coefficients in its products, which exceeds the bound 1000000\n")


@pytest.mark.parametrize("command", ["order", "hpoly", "lattice"])
def test_j0_equal_to_delta_keeps_its_error_line(capsys, command):
    assert run(capsys, command, "--type", "A3", "--j0", "1,2,3") == (
        2,
        "",
        "error: J0 = Delta admits no nonzero minimal idempotent\n",
    )


@pytest.mark.parametrize(
    "argv, err_line",
    [
        (("hpoly", "--type", "A12", "--j0", "1_0"), "simple-root subset '1_0'"),
        (("hpoly", "--type", "A12", "--j0", "+1"), "simple-root subset '+1'"),
        (("hpoly", "--type", "A12", "--j0", "\uff11"), "simple-root subset '\uff11'"),
        (("hpoly", "--type", "A12", "--j0", "1, 2"), "simple-root subset '1, 2'"),
        (("lattice", "--type", "A12", "--j0", " 1"), "simple-root subset ' 1'"),
        (("order", "--type", "A12", "--j0", "1,-2"), "simple-root subset '1,-2'"),
        (("hpoly", "--type", "A\uff13", "--j0", "1"), "Cartan type 'A\uff13'"),
        (("order", "--type", "A+3", "--preset", "last-fundamental"), "Cartan type 'A+3'"),
        (("lattice", "--type", " C3", "--preset", "last-fundamental"), "Cartan type ' C3'"),
    ],
    ids=["1_0", "plus", "fullwidth-1", "space", "leading-space", "minus", "fullwidth-3",
         "type-plus", "type-space"],
)
def test_j0_and_type_take_ascii_digits_only(capsys, argv, err_line):
    assert run(capsys, *argv) == (1, "", f"error: cannot parse {err_line}\n")


@pytest.mark.parametrize("declared", ["C\uff13", "C+3", "C 3", "C3 "])
def test_lattice_file_type_takes_ascii_digits_only(capsys, tmp_path, declared):
    raw = fundamental_lattice(CartanType("C", 3), 3).to_json()
    raw["type"] = declared
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(raw))
    line = f"error: cannot parse Cartan type {declared!r}\n"
    assert run(capsys, "hpoly", "--lattice-file", str(path)) == (1, "", line)
    # with --type given, the declared type is still checked against it
    assert run(capsys, "hpoly", "--type", "C3", "--lattice-file", str(path)) == (
        1, "", line,
    )


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\t\n\x1f\x7f", "é ☃ 😀", " ", ""])
)
# entries as a lattice file may hold them: any label, empty index sets
lattice_entries = st.builds(
    LatticeEntry,
    st.text() | st.sampled_from(['"', "\\", "a,b", "\x00\n", "é ☃ 😀", ""]),
    st.integers(0, 2**12 - 1),
    st.integers(0, 2**12 - 1),
    st.integers(0, 12),
)
json_values = st.recursive(
    json_scalars | st.builds(QPolynomial, st.lists(st.integers(-(10**60), 10**60))),
    lambda children: st.lists(children)
    | st.lists(st.integers(-(10**60), 10**60))  # the one-join path
    | st.lists(lattice_entries, min_size=1)  # the one-write-per-entry path
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


def plain(value):
    """value with each QPolynomial as its coefficient list and each lattice
    entry as its to_json dict, as json.dumps takes it."""
    if isinstance(value, QPolynomial):
        return list(value.coeffs)
    if isinstance(value, LatticeEntry):
        return value.to_json()
    if isinstance(value, list):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def written_json(value, held=Counter()) -> list[str]:
    sink: list[str] = []
    cli._write_json(value, held, sink.append)
    return sink


def polynomials(value) -> list:
    """The QPolynomials value holds, each once per place it sits at."""
    if isinstance(value, QPolynomial):
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else []
    return [poly for item in items for poly in polynomials(item)]


@given(json_values, st.data())
def test_json_text_is_json_dumps_indent_2(value, data):
    # the count of shared polynomials only decides which texts the writer
    # keeps: exact, too high, too low or empty, the bytes are json.dumps's
    payload = [value, {"again": value}, value]  # every polynomial shared
    exact = Counter(map(id, polynomials(payload)))
    drawn = Counter({key: data.draw(st.integers(0, 5)) for key in exact})
    for held in (Counter(), exact, drawn):
        for obj in (value, payload):
            assert "".join(written_json(obj, held)) == json.dumps(plain(obj), indent=2) + "\n"


A_ENTRY = LatticeEntry("e", 1, 2, 0)


@pytest.mark.parametrize(
    "value",
    [
        1.5, (1, 2), {3}, [1, 2.0], {"a": (1,)}, [[{"b": {4}}]], {1: "a"},
        A_ENTRY, [A_ENTRY, 1], (A_ENTRY,), [ONE, 1.5],
    ],
    ids=[
        "float", "tuple", "set", "float-in-list", "tuple-in-dict", "nested-set", "int-key",
        "bare-entry", "entry-in-mixed-list", "entry-tuple", "float-after-term",
    ],
)
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        written_json(value)


def test_matrix_strata_step_from_the_stratum_before(capsys, monkeypatch):
    steps = Counter()
    times, over = qpoly._times_binomial, qpoly._over_binomial
    monkeypatch.setattr(
        qpoly, "_times_binomial", lambda c, d: steps.update(["multiply"]) or times(c, d)
    )
    # expand_all divides low halves, passing their degree
    monkeypatch.setattr(
        qpoly,
        "_over_binomial",
        lambda c, d, *degree: steps.update(["divide"]) or over(c, d, *degree),
    )
    code, _, _ = run(capsys, "strata", "--type", "A24", "--preset", "first-fundamental")
    # 26 strata, each from 1 on its own, took 481 multiplications and 156
    # divisions
    assert code == 0
    assert steps == {"multiply": 49, "divide": 24}


def matrix_stratum(n, r):
    """The rank-r stratum of M_n expanded on its own, from 1:
    q^{r(r-1)/2} prod_{i<=r} (q^i - 1) [n, r]_q^2."""
    factored = qpoly.QProduct.of(range(1, r + 1), shift=r * (r - 1) // 2)
    return qpoly.expand(factored * qpoly.gaussian_factors(n, r) ** 2)


@pytest.mark.parametrize("n", range(2, 13))
def test_stepped_matrix_strata_equal_gl_strata(n):
    args = argparse.Namespace(type=f"A{n - 1}", preset="first-fundamental")
    _, rows, total = cli._strata_rows(args)
    assert rows == [(f"M^{r}", matrix_stratum(n, r)) for r in range(n + 1)]
    assert total == QPolynomial.monomial(n * n)


@pytest.mark.parametrize("spec, preset", [("A3", "first"), ("C3", "last")])
def test_strata_negative_row_exits_2(capsys, monkeypatch, spec, preset):
    # 10^6 q moved from M^1 to M^2 keeps the sum, and its check, as they
    # were, but M^1 at q = 2 is below 2 * 10^6 in both monoids (225, 18225)
    moved = QPolynomial([0, 10**6])
    broken_strata(monkeypatch, {1: -moved, 2: moved})
    code, out, err = run(
        capsys, "strata", "--type", spec, "--preset", f"{preset}-fundamental",
        "--q", "2,3",
    )
    assert (code, out) == (2, "")
    assert err == "error: term 'M^1' is not positive at q=2\n"


def counted_evaluations(monkeypatch) -> Counter:
    """Count eval_big calls by (id of the polynomial, q0)."""
    real = qpoly.eval_big
    calls = Counter()

    def counted(poly, q0):
        calls[id(poly), q0] += 1
        return real(poly, q0)

    for module in (cli, orders, qpoly):
        if getattr(module, "eval_big", None) is real:
            monkeypatch.setattr(module, "eval_big", counted)
    return calls


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("qs", ["2", "2,3", "5,3,2"])
def test_order_evaluates_each_row_once_per_q(capsys, monkeypatch, fmt, qs):
    # the k distinct terms and the total, each evaluated once at each of
    # the m values of q
    calls = counted_evaluations(monkeypatch)
    code, _, _ = run(
        capsys, "order", "--type", "B6", "--j0", "1,3", "--formula", "thm34",
        "--q", qs, "--format", fmt,
    )
    lat = j_irreducible_lattice(build(CartanType("B", 6)), frozenset({1, 3}))
    k = len({term for _, term in route(lat, "thm34").terms})
    assert k < len(lat.entries)  # entries share terms
    m = len(qs.split(","))
    assert code == 0
    assert set(calls.values()) == {1}
    assert Counter(q0 for _, q0 in calls) == {int(q0): k + 1 for q0 in qs.split(",")}
    assert len(calls) == (k + 1) * m


def order_by_rows(report, fmt, qs, agreed) -> str:
    """order's output built row by row, as before terms were shared: each
    term rendered by render_by_loop, each value by eval_big, csv by
    csv.writer and json by json.dumps(indent=2)."""
    values = {q0: str(qpoly.eval_big(report.total, q0)) for q0 in qs}
    if fmt == "json":
        payload = {
            "formula": report.formula,
            "type": str(report.cartan_type),
            "lattice": report.lattice.to_json(),
            "terms": [
                {"label": label, "coeffs": list(t.coeffs)} for label, t in report.terms
            ],
            "total_coeffs": list(report.total.coeffs),
            "evaluations": {str(q0): v for q0, v in values.items()},
            "notes": list(report.notes),
        }
        if agreed:
            payload["agreement"] = agreed
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["label", "coeffs"] + [f"q={q0}" for q0 in sorted(qs)])
        for label, term in [*report.terms, ("total", report.total)]:
            shown = [str(qpoly.eval_big(term, q0)) for q0 in sorted(qs)]
            writer.writerow([label, " ".join(map(str, term.coeffs)), *shown])
        return out.getvalue()
    entries = {e.label: e for e in report.lattice.entries}
    width = max(len(label) for label, _ in report.terms)
    lines = [f"type {report.cartan_type}  formula {report.formula}"]
    lines += [f"note: {note}" for note in report.notes]
    lines += [
        f"  {label:<{width}}  lambda*={subset_str(star(entries[label])):<12}"
        f" lambda_*={subset_str(substar(entries[label])):<12}  {render_by_loop(term)}"
        for label, term in report.terms
    ]
    lines.append(f"total: {render_by_loop(report.total)}")
    lines += [f"q={q0}: {v}" for q0, v in values.items()]
    if agreed:
        lines.append(f"{len(agreed)} formulas agree")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("formula", ["thm34", "all"])
def test_order_renders_each_distinct_term_once(capsys, monkeypatch, fmt, formula):
    # A8 --j0 "" has 257 entries but far fewer distinct terms
    lat = j_irreducible_lattice(build(CartanType("A", 8)), frozenset())
    report = route(lat, "thm41" if formula == "all" else "thm34")
    agreed = ["thm31", "thm33", "thm34", "thm41"] if formula == "all" else None
    expected = order_by_rows(report, fmt, [3, 2], agreed)
    distinct = len({term for _, term in report.terms}) + 1  # and the total
    assert distinct < len(lat.entries) / 2
    calls = counted_evaluations(monkeypatch)
    built = Counter()

    def counting(name, real):
        def call(poly, *args):
            built[name, id(poly)] += 1
            return real(poly, *args)

        return call

    monkeypatch.setattr(QPolynomial, "__str__", counting("str", QPolynomial.__str__))
    renders = counting_term_renders(monkeypatch)
    monkeypatch.setattr(cli, "_term_fields", counting("csv", cli._term_fields))
    decimals = Counter()

    class Value(int):
        """A value that counts its decimal renders: str() and f-strings."""

        def __str__(self):
            decimals[int(self)] += 1
            return int.__repr__(self)

    real_evaluated = cli._evaluated

    def counted_values(*args):
        held, values = real_evaluated(*args)
        return held, {key: {q0: Value(v) for q0, v in at.items()} for key, at in values.items()}

    monkeypatch.setattr(cli, "_evaluated", counted_values)
    code, out, err = run(
        capsys, "order", "--type", "A8", "--j0", "", "--formula", formula,
        "--q", "3,2", "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert out == expected
    built.update({("json", key): n for key, n in renders.items()})
    # one evaluation per distinct term per q, plus the total's, and each
    # printed value rendered once: csv prints every term's
    assert set(calls.values()) == {1} and len(calls) == 2 * distinct
    assert sum(decimals.values()) == 2 * (distinct if fmt == "csv" else 1)
    # and each distinct term's text built once: by __str__ for the table,
    # by its csv fields or its json list
    name = {"table": "str", "csv": "csv", "json": "json"}[fmt]
    assert set(built.values()) == {1}
    assert sum(kind == name for kind, _ in built) == distinct


def test_order_names_the_first_of_two_entries_sharing_a_non_positive_term(
    capsys, monkeypatch, tmp_path
):
    # A3 --j0 "" lists entries that share a thm34 term; in a lattice file
    # under new labels, the first two sharing one get it negated, still
    # shared, and the error names the first of them in row order
    raw = j_irreducible_lattice(build(CartanType("A", 3)), frozenset()).to_json()
    for i, entry in enumerate(raw["entries"]):
        entry["label"] = f"row {i}"
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(raw))
    real = cli.all_orders
    seen = []

    def negated_shared_term(lat, **kwargs):
        report = real(lat, **kwargs)["thm34"]
        ids = [id(term) for _, term in report.terms]
        shared = next(t for _, t in report.terms if ids.count(id(t)) > 1)
        bad = -shared
        terms = tuple((label, bad if t is shared else t) for label, t in report.terms)
        seen.extend(label for label, t in terms if t is bad)
        return {"thm34": report.replace(terms=terms)}

    monkeypatch.setattr(cli, "all_orders", negated_shared_term)
    code, out, err = run(
        capsys, "order", "--lattice-file", str(path), "--formula", "thm34", "--q", "2",
        "--format", "csv",
    )
    assert len(seen) >= 2
    line = f"error: term {seen[0]!r} is not positive at q=2\n"
    assert (code, out, err) == (2, "", line)


def test_order_csv_quotes_labels_as_csv_writer_does(capsys, tmp_path):
    path, lat = awkward_lattice_file(tmp_path)
    report = route(lat, "thm34")
    assert any("," in label or '"' in label for label, _ in report.terms)
    code, out, err = run(
        capsys, "order", "--lattice-file", str(path), "--formula", "thm34",
        "--q", "2,4", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out == order_by_rows(report, "csv", [2, 4], None)


def test_csv_q_columns_keep_each_command_s_order(capsys):
    # strata writes its q columns in --q order and order sorts them; both
    # against csv.writer over rows built from the library
    def oracle(header, rows, qs):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(header)
        for label, term in rows:
            values = [qpoly.eval_big(term, q0) for q0 in qs]
            writer.writerow([label, " ".join(map(str, term.coeffs)), *values])
        return out.getvalue()

    strata = orders.symplectic_order(8).terms
    code, out, err = run(
        capsys, "strata", "--type", "C8", "--preset", "last-fundamental",
        "--q", "3,2", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out.startswith("label,coeffs,q=3,q=2\r\n")
    assert out == oracle(["label", "coeffs", "q=3", "q=2"], strata, [3, 2])
    report = route(j_irreducible_lattice(build(CartanType("A", 8)), frozenset()), "thm34")
    code, out, err = run(
        capsys, "order", "--type", "A8", "--j0=", "--formula", "thm34",
        "--q", "3,2", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out.startswith("label,coeffs,q=2,q=3\r\n")
    rows = [*report.terms, ("total", report.total)]
    assert out == oracle(["label", "coeffs", "q=2", "q=3"], rows, [2, 3])


def counting_term_renders(monkeypatch) -> Counter:
    """Reads of each QPolynomial's coefficients, by object, while
    _write_json runs: the writer reads them once per rendering."""
    reads: Counter = Counter()
    writing = []
    slot = QPolynomial.coeffs

    def read(poly):
        if writing:
            reads[id(poly)] += 1
        return slot.__get__(poly)

    monkeypatch.setattr(QPolynomial, "coeffs", property(read, slot.__set__))
    write_json = cli._write_json

    def flagged(obj, held, write):
        writing.append(True)
        try:
            write_json(obj, held, write)
        finally:
            writing.clear()

    monkeypatch.setattr(cli, "_write_json", flagged)
    return reads


def test_json_text_renders_a_shared_term_once_per_depth(monkeypatch):
    shared = QPolynomial([3, -1, 10**30])
    payload = {"a": shared, "b": [shared, {"c": shared}, shared], "d": shared}
    reads = counting_term_renders(monkeypatch)
    text = "".join(written_json(payload, Counter({id(shared): 5})))
    # once at each of the three depths it sits at
    assert reads == {id(shared): 3}
    assert text == json.dumps(plain(payload), indent=2) + "\n"
    # counted once, as an unshared row is, it is rendered at each of its places
    reads.clear()
    assert "".join(written_json(payload, Counter({id(shared): 1}))) == text
    assert reads == {id(shared): 5}


@pytest.mark.parametrize("command", ["order", "lattice"])
def test_json_rows_reach_stdout_as_they_are_written(monkeypatch, command):
    # A8 --j0= lists 257 entries, and order writes a term row for each
    writes: list[str] = []

    class Sink:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    extra = ["--formula", "thm34"] if command == "order" else []
    code = cli.main([command, "--type", "A8", "--j0=", *extra, "--format", "json"])
    out = "".join(writes)
    lat = j_irreducible_lattice(build(CartanType("A", 8)), frozenset())
    if command == "order":
        expected = order_by_rows(route(lat, "thm34"), "json", [], None)
    else:
        expected = json.dumps(lat.to_json(), indent=2) + "\n"
    assert (code, out) == (0, expected)
    assert len(writes) > len(lat.entries)
    assert max(map(len, writes)) <= len(out) / 10


def subset_str(indices) -> str:
    """The table's index set as the table printed it before entries kept
    their index text."""
    return "{" + ",".join(str(i) for i in sorted(indices)) + "}"


def expected_lattice_outputs(lat) -> dict[str, str]:
    """lattice's table, csv and json output built from the lattice's sets."""
    width = max(len(e.label) for e in lat.entries)
    table = [
        f"type {lat.root_system.cartan_type}  torus rank {lat.torus_rank}"
        f"  ({lat.provenance})"
    ]
    table += [
        f"  {e.label:<{width}}  lambda*={subset_str(star(e)):<12}"
        f" lambda_*={subset_str(substar(e)):<12}"
        f" [T:T(e)]=(q-1)^{e.torus_index_exponent}"
        for e in lat.entries
    ]
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["label", "lambda_star", "lambda_substar", "torus_index_exponent"])
    for e in lat.entries:
        writer.writerow(
            [
                e.label,
                " ".join(map(str, sorted(star(e)))),
                " ".join(map(str, sorted(substar(e)))),
                e.torus_index_exponent,
            ]
        )
    return {
        "table": "\n".join(table) + "\n",
        "csv": rows.getvalue(),
        "json": json.dumps(lat.to_json(), indent=2) + "\n",
    }


def assert_lattice_formats(capsys, lat, *source):
    for fmt, expected in expected_lattice_outputs(lat).items():
        code_out_err = run(capsys, "lattice", *source, "--format", fmt)
        assert code_out_err == (0, expected, ""), fmt


@pytest.mark.parametrize(
    "spec", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4"]
)
def test_lattice_formats_match_their_oracles_on_every_support(capsys, spec):
    ct = CartanType.parse(spec)
    rs = build(ct)
    for mask in range(2**ct.rank - 1):  # every J0 except Delta
        j0 = ",".join(str(i + 1) for i in range(ct.rank) if mask >> i & 1)
        lat = j_irreducible_lattice(rs, parse_subset(j0, ct.rank))
        assert_lattice_formats(capsys, lat, "--type", spec, "--j0", j0)


@pytest.mark.parametrize(
    "spec, j0", [("B12", "1,3,5,7,9,11"), ("E6", ""), ("E6", "1,3,5")]
)
def test_lattice_formats_match_their_oracles_on_long_lattices(capsys, spec, j0):
    # B12's indices reach 10 and 11, which sort after 9
    ct = CartanType.parse(spec)
    lat = j_irreducible_lattice(build(ct), parse_subset(j0, ct.rank))
    assert_lattice_formats(capsys, lat, "--type", spec, "--j0", j0)


# labels json.dumps and csv must escape or quote, all distinct
AWKWARD_LABELS = ['say "0"', "back\\slash", "a,b", "line\nbreak", "λ-é", "e{2,10}"]


def awkward_lattice_file(tmp_path):
    """C11's last-fundamental lattice with index arrays in decreasing order
    and labels that need escaping, as a lattice file."""
    raw = fundamental_lattice(CartanType("C", 11), 11).to_json()
    for entry, label in zip(raw["entries"], AWKWARD_LABELS):
        entry["label"] = label
    for entry in raw["entries"]:
        entry["lambda_star"].reverse()
        entry["lambda_substar"].reverse()
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    return path, crosssection.load_lattice(build(CartanType("C", 11)), raw)


def test_lattice_formats_match_their_oracles_on_a_lattice_file(capsys, tmp_path):
    path, lat = awkward_lattice_file(tmp_path)
    assert [e.label for e in lat.entries[: len(AWKWARD_LABELS)]] == AWKWARD_LABELS
    assert_lattice_formats(capsys, lat, "--lattice-file", str(path))


def test_order_table_lists_the_index_sets_as_before(capsys, tmp_path):
    path, from_file = awkward_lattice_file(tmp_path)
    sources = [(from_file, ["--lattice-file", str(path)])]
    for spec, j0 in (("B12", "1,3,5,7,9,11"), ("C4", "2"), ("D4", "")):
        ct = CartanType.parse(spec)
        lat = j_irreducible_lattice(build(ct), parse_subset(j0, ct.rank))
        sources.append((lat, ["--type", spec, "--j0", j0]))
    for lat, source in sources:
        report = route(lat, "thm34")
        width = max(len(label) for label, _ in report.terms)
        entries = {e.label: e for e in lat.entries}
        expected = [f"type {report.cartan_type}  formula thm34"]
        expected += [f"note: {note}" for note in report.notes]
        expected += [
            f"  {label:<{width}}  lambda*={subset_str(star(entries[label])):<12}"
            f" lambda_*={subset_str(substar(entries[label])):<12}  {term}"
            for label, term in report.terms
        ]
        expected.append(f"total: {report.total}")
        assert run(capsys, "order", *source, "--formula", "thm34") == (
            0, "\n".join(expected) + "\n", ""
        )


# order --type E6 --preset last-fundamental --formula all, table format:
# the bytes that expanding each route's terms on its own gave
E6_ALL_DIGEST = "ca10ec5aa2908feed814fa9b4ba6ccec314100a783e2cb4bf5d302a6f3d24e95"


def test_order_all_expands_the_agreed_terms_once(capsys, monkeypatch):
    # thm33's walked coset sums in one expand_all call, the terms thm33,
    # thm34 and thm41 agree on in one more; each route on its own made 16
    calls = []
    for module in (qpoly, orders):
        real = module.expand_all

        def counted(products, _real=real):
            calls.append(1)
            return _real(products)

        monkeypatch.setattr(module, "expand_all", counted)
    code, out, err = run(
        capsys, "order", "--type", "E6", "--preset", "last-fundamental", "--formula", "all"
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == E6_ALL_DIGEST
    assert len(calls) == 2


def test_order_all_reports_a_broken_coset_step(capsys, monkeypatch):
    # doubling every multiply step keeps each step divisible; the first
    # walked coset sum that differs is named, as when each was expanded alone
    real = qpoly._times_binomial
    monkeypatch.setattr(qpoly, "_times_binomial", lambda c, d: [2 * x for x in real(c, d)])
    assert run(
        capsys, "order", "--type", "C3", "--preset", "last-fundamental", "--formula", "all"
    ) == (2, "", "error: coset sum mismatch for J=[1, 2]\n")


def test_order_all_checks_the_shared_expansion_against_thm31(capsys, monkeypatch):
    # a fault in the one expansion the degree routes share reaches all
    # three, and (q - 1) q^0 keeps |M|(1) = 1; thm31's walked terms differ
    real = orders.expand_all

    def corrupted(products):
        values = real(products)
        if sys._getframe(1).f_code is orders.all_orders.__code__:
            values[-1] = values[-1] + qpoly.Q_MINUS_ONE
        return values

    monkeypatch.setattr(orders, "expand_all", corrupted)
    code, out, err = run(
        capsys, "order", "--type", "C3", "--preset", "last-fundamental", "--formula", "all"
    )
    assert (code, out) == (3, "")
    total = route(fundamental_lattice(CartanType("C", 3), 3), "thm31").total
    wrong = total + qpoly.Q_MINUS_ONE
    assert err.splitlines() == [
        "formula disagreement:",
        f"  thm31: {total}",
        f"  thm33: {wrong}",
        f"  thm34: {wrong}",
        f"  thm41: {wrong}",
    ]
