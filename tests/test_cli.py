"""CLI surface: subcommands, formats, round-trips, and exit codes."""

import dataclasses
import json
import time

import pytest

from monoid_orders import cli, orders, verify
from monoid_orders.crosssection import j_irreducible_lattice, symplectic_lattice
from monoid_orders.rootsystem import CartanType, build
from monoid_orders.qpoly import ONE


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_strata_sum_mismatch_exits_2(capsys, monkeypatch):
    # symplectic_order takes its strata from its own H terms, so the
    # off-by-one stratum goes into the report that the strata command reads
    symplectic_order = orders.symplectic_order

    def broken(l):
        report = symplectic_order(l)
        terms = list(report.terms)
        label, stratum = terms[1]
        terms[1] = (label, stratum + ONE)
        return dataclasses.replace(report, terms=tuple(terms))

    monkeypatch.setattr(cli, "symplectic_order", broken)
    code, out, err = run(
        capsys, "strata", "--type", "C3", "--preset", "last-fundamental"
    )
    assert code == 2
    assert out == ""
    assert "strata sum" in err and len(err.splitlines()) == 1


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
    raw = symplectic_lattice(2).to_json()
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
    ],
    ids=["torus-rank-string", "substar-string", "exponent-bool"],
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
    def crashing_check():
        raise RuntimeError("injected crash")

    def large_lattice_check():
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


def test_verify_failure_exits_3(capsys, monkeypatch):
    def broken_check():
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
    def broken_check():
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


def test_preset_and_j0_conflict(capsys):
    code, _, err = run(
        capsys,
        "order", "--type", "A2", "--preset", "first-fundamental", "--j0", "2",
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_computation_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "A1", "entries": [{"label": "x"}]}')
    code, _, err = run(capsys, "order", "--lattice-file", str(bad))
    assert code == 2
    assert "error" in err
    assert run(capsys, "order", "--lattice-file", str(tmp_path / "nope.json"))[0] == 2


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


@pytest.mark.parametrize("q", ["6", "10", "12", "2,6"])
def test_q_must_be_prime_power(capsys, q):
    for argv in (
        ("order", "--type", "A1", "--preset", "first-fundamental", "--q", q),
        ("strata", "--type", "A1", "--preset", "first-fundamental", "--q", q),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: q values must be prime powers, got {q.split(',')[-1]}\n"


@pytest.mark.parametrize("q, value", [("4", "256"), ("8", "4096"), ("9", "6561")])
def test_q_accepts_prime_powers(capsys, q, value):
    code, out, _ = run(
        capsys,
        "order", "--type", "A1", "--preset", "first-fundamental",
        "--formula", "thm34", "--q", q,
    )
    assert code == 0
    assert f"q={q}: {value}" in out  # |M_2| = q^4
