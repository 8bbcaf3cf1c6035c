"""Acceptance suite: one test per criterion, with its stated runtime budget.

Each test prints a single PASS line when its assertions hold; pytest -v plus
these lines give the per-criterion report.
"""

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout

import pytest

from monoid_orders import cli, verify
from monoid_orders.oracle import enumerate_rank_histogram, subspace_counts
from monoid_orders.crosssection import fundamental_lattice, j_irreducible_lattice
from monoid_orders.orders import h_polynomial, symplectic_order
from monoid_orders.qpoly import (
    ONE,
    Q_MINUS_ONE,
    QPolynomial,
    is_palindromic,
    q_power_minus_one,
)
from monoid_orders.rootsystem import CartanType, build, degrees
from routes import route

H_COEFFS_L2 = [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
H_COEFFS_L3 = [1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 4, 4, 4, 3, 2, 2, 1, 1, 1]


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {criterion} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {seconds:g}s)")


def test_criterion_1_symplectic_h_polynomial_l2():
    with budget("1 (H-polynomial, l=2)", 1.0):
        h = h_polynomial(symplectic_order(2).total)
        assert list(h.coeffs) == H_COEFFS_L2


def test_criterion_2_symplectic_h_polynomial_l3():
    with budget("2 (H-polynomial, l=3)", 1.0):
        h = h_polynomial(symplectic_order(3).total)
        assert list(h.coeffs) == H_COEFFS_L3


def test_criterion_3_matrix_monoid_ground_truth():
    with budget("3 (rank histograms)", 30.0):
        ok, detail = verify.check_rank_histograms()
        assert ok, detail


def test_criterion_4_four_formula_agreement():
    cases = [
        ("A1", "first"), ("A2", "first"), ("A3", "first"),
        ("C2", "last"), ("C3", "last"), ("C4", "last"),
    ]
    assert list(verify.AGREEMENT_CASES) == cases
    with budget("4 (formula agreement)", 10.0):
        ok, detail = verify.check_formula_agreement()
        assert ok, detail


def test_criterion_5_symplectic_closed_form():
    with budget("5 (closed-form consistency)", 5.0):
        ok, detail = verify.check_symplectic_closed_form()
        assert ok, detail
        assert detail == "l = 2..6"


def test_criterion_6_solomon_poincare_oracle():
    types = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2"]
    assert list(verify.SOLOMON_TYPES) == types
    with budget("6 (Solomon/Poincare)", 10.0):
        ok, detail = verify.check_solomon()
        assert ok, detail


def test_criterion_7_coset_sum_identity():
    assert list(verify.COSET_TYPES) == ["A3", "B3", "C3"]
    with budget("7 (coset-sum identity)", 10.0):
        ok, detail = verify.check_coset_identity()
        assert ok, detail


def test_criterion_8_structural_sanity():
    # (type, i) for the fundamental weight omega_i
    cases = [("A1", 1), ("A2", 1), ("A3", 1), ("C2", 2), ("C3", 3), ("C4", 4)]
    with budget("8 (structural sanity)", 30.0):
        for spec, i in cases:
            lat = fundamental_lattice(CartanType.parse(spec), i)
            for report in (route(lat, "thm31"), route(lat, "thm33"),
                           route(lat, "thm34"), route(lat, "thm41")):
                terms = dict(report.terms)
                assert terms[lat.zero_entry.label] == ONE
                rs = lat.root_system
                unit = QPolynomial.monomial(rs.num_positive) * Q_MINUS_ONE
                for d in degrees(rs.cartan_type):
                    unit = unit * q_power_minus_one(d)
                assert terms[lat.identity_entry.label] == unit
                h_polynomial(report.total)  # exact division by (q-1)
        for l in range(2, 7):
            assert is_palindromic(h_polynomial(symplectic_order(l).total)), l


def test_criterion_9_gaussian_binomial_oracle():
    with budget("9 (subspace counts)", 5.0):
        ok, detail = verify.check_subspace_counts()
        assert ok, detail


def test_criterion_10_dense_a14_h_polynomial(capsys):
    # 16,385 entries; the ROADMAP gate is 0.5 s in process
    with budget("10 (hpoly A14 --j0 \"\")", 1.0):
        code = cli.main(["hpoly", "--type", "A14", "--j0", ""])
        out = capsys.readouterr().out
    assert code == 0
    assert "palindromic: yes" in out


def test_criterion_11_long_symplectic_lattice(capsys):
    # C80 has 6,400 positive roots
    with budget("11 (lattice C80)", 1.5):
        code = cli.main(["lattice", "--type", "C80", "--preset", "last-fundamental"])
        out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 1 + 82


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_criterion_12_oversize_root_system_refused_at_once():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["lattice", "--type", "A100000", "--preset", "first-fundamental"]
    with budget("12 (A100000 refused under 1 GiB)", 1.0):
        result = subprocess.run(
            [sys.executable, "-m", "monoid_orders.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=limit_address_space,
            capture_output=True,
            text=True,
            timeout=10,
        )
    assert result.returncode == 1
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "exceeds the cap" in result.stderr


def test_criterion_13_rank_walk_over_f5():
    # all 5^9 = 1,953,125 three-by-three matrices over F_5, one leaf each
    with budget("13 (rank histogram n=3, p=5)", 1.0):
        counts = enumerate_rank_histogram(3, 5)
    assert counts == [1, 3844, 461280, 1488000]


def test_criterion_14_symplectic_routes_at_rank_60():
    lat = fundamental_lattice(CartanType("C", 60), 60)
    strata = symplectic_order(60).terms
    for name in ("thm41", "thm34"):
        with budget(f"14 ({name} C60)", 0.3):
            report = route(lat, name)
        assert [term for _, term in report.terms] == [term for _, term in strata]


def hpoly_stdout(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["hpoly", *argv]) == 0
    return out.getvalue()


def test_criterion_15_hpoly_past_the_lattice_bound():
    # type A with J0 = {} is summed along the Dynkin chain: A18 lists no
    # 2^18 entries, and A30 is far over the lattice bound
    for spec, seconds in (("A18", 0.2), ("A30", 1.0)):
        with budget(f"15 (hpoly {spec} --j0 \"\")", seconds):
            out = hpoly_stdout("--type", spec, "--j0", "")
        assert "palindromic: yes" in out
    lat = j_irreducible_lattice(build(CartanType("A", 14)), frozenset())
    listed = io.StringIO()
    with redirect_stdout(listed):
        cli._print_hpoly(route(lat, "thm34"), "table")
    assert hpoly_stdout("--type", "A14", "--j0", "") == listed.getvalue()


def test_criterion_16_verify_in_process():
    # every check of the verify subcommand in one call, then a subspace walk
    # one dimension past verify's: each of F_3^5's 2,664 spaces built once
    with budget("16 (verify run_all)", 0.25):
        results = verify.run_all()
    assert [r.ok for r in results] == [True] * 10, results
    with budget("16 (subspace counts n=5, p=3)", 0.25):
        counts = subspace_counts(5, 3)
    assert counts == [1, 121, 1210, 1210, 121, 1]


def test_criterion_17_hpoly_by_census_on_long_lattices():
    # no lattice is listed: A20 --j0 1 counts its 786,433 entries as 1,282
    # thm34 keys, and B20 and D20 have more entries than the lattice bound
    for spec, j0, seconds in (
        ("A20", "1", 1.0),
        ("C18", "", 0.5),
        ("B20", "", 2.0),
        ("D20", "", 2.0),
    ):
        with budget(f"17 (hpoly {spec} --j0 \"{j0}\")", seconds):
            out = hpoly_stdout("--type", spec, "--j0", j0)
        assert out.endswith("palindromic: yes\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_criterion_18_long_lattice_listing(fmt):
    # 65,537 entries, each printed from the index text the builder stored
    out = io.StringIO()
    with budget(f"18 (lattice A16 --j0 \"\" --format {fmt})", 0.5):
        with redirect_stdout(out):
            code = cli.main(["lattice", "--type", "A16", "--j0", "", "--format", fmt])
    assert code == 0
    text = out.getvalue()
    if fmt == "json":
        assert len(json.loads(text)["entries"]) == 65537
    else:
        assert len(text.splitlines()) == 1 + 65537
