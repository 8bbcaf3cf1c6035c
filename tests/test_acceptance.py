"""Acceptance suite: one test per criterion, with its stated runtime budget.

Each test prints a single PASS line when its assertions hold; pytest -v plus
these lines give the per-criterion report.
"""

import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from monoid_orders import cli, verify
from monoid_orders.oracle import enumerate_rank_histogram
from monoid_orders.crosssection import fundamental_lattice
from monoid_orders.orders import (
    h_polynomial,
    order_thm31,
    order_thm33,
    order_thm34,
    order_thm41,
    symplectic_order,
)
from monoid_orders.qpoly import (
    ONE,
    Q_MINUS_ONE,
    QPolynomial,
    is_palindromic,
    q_power_minus_one,
)
from monoid_orders.rootsystem import CartanType, degrees

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
            for report in (order_thm31(lat), order_thm33(lat),
                           order_thm34(lat), order_thm41(lat)):
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
