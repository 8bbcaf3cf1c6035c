"""Acceptance suite: one test per criterion, with its stated runtime budget.

Each test prints a single PASS line when its assertions hold; pytest -v plus
these lines give the per-criterion report.
"""

import time
from contextlib import contextmanager

import pytest

from monoid_orders.crosssection import j_irreducible_lattice, symplectic_lattice
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
from monoid_orders.rootsystem import CartanType, build, degrees, poincare_product
from monoid_orders.verify import check_rank_histograms, check_subspace_counts
from monoid_orders.weyl import coset_length_poly

H_COEFFS_L2 = [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
H_COEFFS_L3 = [1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 4, 4, 4, 3, 2, 2, 1, 1, 1]


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {criterion} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {seconds:g}s)")


def weight_lattice(spec, weight):
    rs = build(CartanType.parse(spec))
    delta = frozenset(range(1, rs.rank + 1))
    omitted = 1 if weight == "first" else rs.rank
    return j_irreducible_lattice(rs, delta - {omitted})


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
        ok, detail = check_rank_histograms()
        assert ok, detail


def test_criterion_4_four_formula_agreement():
    cases = [
        ("A1", "first"), ("A2", "first"), ("A3", "first"),
        ("C2", "last"), ("C3", "last"), ("C4", "last"),
    ]
    with budget("4 (formula agreement)", 10.0):
        for spec, weight in cases:
            lat = weight_lattice(spec, weight)
            totals = {
                order_thm31(lat).total,
                order_thm33(lat).total,
                order_thm34(lat).total,
                order_thm41(lat).total,
            }
            assert len(totals) == 1, spec


def test_criterion_5_symplectic_closed_form():
    with budget("5 (closed-form consistency)", 5.0):
        for l in range(2, 7):
            assert (
                symplectic_order(l).total
                == order_thm41(symplectic_lattice(l)).total
            ), l


def test_criterion_6_solomon_poincare_oracle():
    types = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2"]
    with budget("6 (Solomon/Poincare)", 10.0):
        for spec in types:
            ct = CartanType.parse(spec)
            rs = build(ct)
            delta = frozenset(range(1, rs.rank + 1))
            walked = coset_length_poly(rs, delta, frozenset())
            assert walked == poincare_product(ct), spec


def test_criterion_7_coset_sum_identity():
    with budget("7 (coset-sum identity)", 10.0):
        for spec in ("A3", "B3", "C3"):
            rs = build(CartanType.parse(spec))
            delta = frozenset(range(1, rs.rank + 1))
            total = coset_length_poly(rs, delta, frozenset())
            for mask in range(2**rs.rank):
                J = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
                assert (
                    coset_length_poly(rs, delta, J)
                    * coset_length_poly(rs, J, frozenset())
                    == total
                ), (spec, sorted(J))


def test_criterion_8_structural_sanity():
    cases = [
        ("A1", "first"), ("A2", "first"), ("A3", "first"),
        ("C2", "last"), ("C3", "last"), ("C4", "last"),
    ]
    with budget("8 (structural sanity)", 30.0):
        for spec, weight in cases:
            lat = weight_lattice(spec, weight)
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
        ok, detail = check_subspace_counts()
        assert ok, detail
