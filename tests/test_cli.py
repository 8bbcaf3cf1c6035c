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
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoid_orders import cli, crosssection, orders, qpoly, verify
from monoid_orders.crosssection import fundamental_lattice, j_irreducible_lattice
from monoid_orders.rootsystem import CartanType, build, parse_subset
from monoid_orders.qpoly import ONE, QPolynomial
from subdiagrams import star, substar


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
    def exhausted(*args):
        raise raised

    argv = ["--type", "A2", "--preset", "first-fundamental"]
    monkeypatch.setitem(cli.FORMULAS, "thm34", exhausted)
    assert run(capsys, "order", *argv, "--formula", "thm34") == (2, "", err)
    monkeypatch.setattr(cli, "_json_text", exhausted)
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
    assert not added & {"dataclasses", "inspect"}


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
    thm41 = cli.FORMULAS["thm41"]

    def swapped(lat):
        report = thm41(lat)
        (a, term_a), (b, term_b), *rest = report.terms
        return report.replace(terms=((a, term_b), (b, term_a), *rest))

    monkeypatch.setitem(cli.FORMULAS, "thm41", swapped)
    code, out, err = run(
        capsys, "order", "--type", "C2", "--preset", "last-fundamental",
        "--formula", "all",
    )
    assert (code, out) == (3, "")
    terms = orders.order_thm34(fundamental_lattice(CartanType("C", 2), 2)).terms
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
    thm41 = cli.FORMULAS["thm41"]

    def off_by_one(lat):
        report = thm41(lat)
        return report.replace(total=report.total + ONE)

    monkeypatch.setitem(cli.FORMULAS, "thm41", off_by_one)
    code, out, err = run(
        capsys, "order", "--type", "C2", "--preset", "last-fundamental",
        "--formula", "all",
    )
    assert (code, out) == (3, "")
    total = orders.order_thm34(fundamental_lattice(CartanType("C", 2), 2)).total
    assert err.splitlines() == [
        "formula disagreement:",
        f"  thm31: {total}",
        f"  thm33: {total}",
        f"  thm34: {total}",
        f"  thm41: {total + ONE}",
    ]


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


def listed_hpoly(capsys, spec, j0, fmt):
    """hpoly's bytes from order_thm34 on the listed lattice."""
    rs = build(CartanType.parse(spec))
    cli._print_hpoly(orders.order_thm34(j_irreducible_lattice(rs, j0)), fmt)
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
        h = orders.h_polynomial(orders.order_thm34(lat).total)
        assert json.loads(out)["h_coeffs"] == h.to_json(), argv


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
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children)
    | st.lists(st.integers(-(10**60), 10**60))  # the one-join path
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@given(json_values)
def test_json_text_is_json_dumps_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {3}, [1, 2.0], {"a": (1,)}, [[{"b": {4}}]], {1: "a"}],
    ids=["float", "tuple", "set", "float-in-list", "tuple-in-dict", "nested-set", "int-key"],
)
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


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


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("qs", ["2", "2,3", "5,3,2"])
def test_order_evaluates_each_row_once_per_q(capsys, monkeypatch, fmt, qs):
    # k terms and the total, each evaluated once at each of the m values of q
    real = qpoly.eval_big
    calls = Counter()

    def counted(poly, q0):
        calls[q0] += 1
        return real(poly, q0)

    for module in (cli, orders, qpoly):
        if getattr(module, "eval_big", None) is real:
            monkeypatch.setattr(module, "eval_big", counted)
    code, _, _ = run(
        capsys, "order", "--type", "B6", "--j0", "1,3", "--formula", "thm34",
        "--q", qs, "--format", fmt,
    )
    k = len(j_irreducible_lattice(build(CartanType("B", 6)), frozenset({1, 3})).entries)
    m = len(qs.split(","))
    assert code == 0
    assert calls == {int(q0): k + 1 for q0 in qs.split(",")}
    assert sum(calls.values()) == (k + 1) * m


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
        report = orders.order_thm34(lat)
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
