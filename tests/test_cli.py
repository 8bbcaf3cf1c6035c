"""CLI surface: subcommands, formats, round-trips, and exit codes."""

import json

import pytest

from monoid_orders import cli, orders, verify
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
    stratum = orders.symplectic_stratum

    def broken(l, r):
        return stratum(l, r) + ONE if r == 1 else stratum(l, r)

    monkeypatch.setattr(orders, "symplectic_stratum", broken)
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


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_failure_exits_3(capsys, monkeypatch):
    def broken_check():
        return verify.CheckResult("broken", False, "injected failure")

    monkeypatch.setattr(verify, "ALL_CHECKS", (broken_check,))
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "FAIL broken" in out


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
