"""The four order formulas, closed forms, strata, and H-polynomials."""

import dataclasses
import os
import subprocess
import sys
import time

import pytest

import monoid_orders
from monoid_orders import orders, qpoly, verify
from monoid_orders.crosssection import (
    CrossSectionLattice,
    LatticeEntry,
    fundamental_lattice,
    j_irreducible_lattice,
)
from monoid_orders.errors import (
    IndexOutOfRange,
    InvariantViolation,
    MonoidOrdersError,
    NonExactDivision,
    NotJIrreducible,
)
from monoid_orders.oracle import enumerate_rank_histogram
from monoid_orders.orders import (
    OrderReport,
    gl_strata,
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
    QProduct,
    div_exact,
    eval_big,
    is_palindromic,
    q_power_minus_one,
)
from monoid_orders.rootsystem import (
    CartanType,
    build,
    degrees,
    subset_degrees,
)
from monoid_orders.weyl import coset_length_poly
from subdiagrams import components

H_COEFFS_L2 = (1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1)
H_COEFFS_L3 = (1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 4, 4, 4, 3, 2, 2, 1, 1, 1)


AGREEMENT_LATTICES = [
    fundamental_lattice(CartanType("A", 1), 1),
    fundamental_lattice(CartanType("A", 2), 1),
    fundamental_lattice(CartanType("A", 3), 1),
    fundamental_lattice(CartanType("C", 2), 2),
    fundamental_lattice(CartanType("C", 3), 3),
    fundamental_lattice(CartanType("C", 4), 4),
]


def unit_group_order(lat):
    """|G| = q^N (q-1) prod(q^d - 1) for a weight-support lattice."""
    rs = lat.root_system
    total = QPolynomial.monomial(rs.num_positive) * Q_MINUS_ONE
    for d in degrees(rs.cartan_type):
        total = total * q_power_minus_one(d)
    return total


def test_matrix_monoid_rank1_total():
    lat = fundamental_lattice(CartanType("A", 1), 1)
    report = order_thm41(lat)
    terms = dict(report.terms)
    assert terms["0"] == ONE
    assert terms["e{}"] == Q_MINUS_ONE * QPolynomial([1, 1]) ** 2
    assert terms["1"] == unit_group_order(lat)
    assert report.total == QPolynomial.monomial(4)


def test_matrix_monoid_terms_match_rank_enumeration():
    # per-entry orbit sizes equal brute-force rank counts over small fields
    for n, p in ((2, 2), (2, 3), (3, 2)):
        lat = fundamental_lattice(CartanType("A", n - 1), 1)
        report = order_thm31(lat)
        counts = enumerate_rank_histogram(n, p)
        # entries are ordered zero, then by growing lambda*: rank 0, 1, ..., n
        assert [eval_big(term, p) for _, term in report.terms] == counts


def test_a2_total_is_q_to_nine():
    lat = fundamental_lattice(CartanType("A", 2), 1)
    assert order_thm34(lat).total == QPolynomial.monomial(9)


@pytest.mark.parametrize("lat", AGREEMENT_LATTICES, ids=lambda l: str(l.root_system.cartan_type))
def test_four_formulas_agree(lat):
    r31 = order_thm31(lat)
    r33 = order_thm33(lat)
    r34 = order_thm34(lat)
    r41 = order_thm41(lat)
    assert r31.total == r33.total == r34.total == r41.total
    # per-entry terms agree too, not just the totals
    assert r31.terms == r33.terms == r34.terms == r41.terms


@pytest.mark.parametrize("lat", AGREEMENT_LATTICES, ids=lambda l: str(l.root_system.cartan_type))
def test_zero_and_identity_terms(lat):
    report = order_thm34(lat)
    terms = dict(report.terms)
    assert terms[lat.zero_entry.label] == ONE
    assert terms[lat.identity_entry.label] == unit_group_order(lat)
    h_polynomial(report.total)  # (total - 1) divisible by (q - 1)


def test_symplectic_l2_at_q2():
    lat = fundamental_lattice(CartanType("C", 2), 2)
    for fn in (order_thm31, order_thm33, order_thm34, order_thm41):
        assert eval_big(fn(lat).total, 2) == 2296


def test_middle_orbit_size_of_2x2_matrices():
    # orbit of the rank-1 idempotent: |G|^2 / isotropy = 9 at q=2
    lat = fundamental_lattice(CartanType("A", 1), 1)
    middle = next(
        e for e in lat.entries if not lat.is_zero(e) and not lat.is_identity(e)
    )
    orbit = dict(order_thm31(lat).terms)[middle.label]
    assert eval_big(orbit, 2) == 9


def test_thm31_walks_each_subset_once_per_call(monkeypatch):
    lat = fundamental_lattice(CartanType("C", 4), 4)
    delta = frozenset(range(1, 5))
    subsets = {delta} | {
        X
        for e in lat.entries
        if not lat.is_zero(e)
        for X in (e.lambda_union, e.lambda_substar)
    }
    walked = []

    def counting_walk(rs, gens, fixed, bound=None):
        walked.append(gens)
        return coset_length_poly(rs, gens, fixed, bound)

    monkeypatch.setattr(orders, "coset_length_poly", counting_walk)
    for _ in range(2):
        del walked[:]
        order_thm31(lat)
        assert sorted(walked, key=sorted) == sorted(subsets, key=sorted)


def test_thm41_requires_weight_support_exponents():
    lat = fundamental_lattice(CartanType("C", 2), 2)
    tweaked = CrossSectionLattice(
        lat.root_system,
        tuple(
            LatticeEntry(
                e.label,
                e.lambda_star,
                e.lambda_substar,
                e.torus_index_exponent + (0 if lat.is_zero(e) else 1),
            )
            for e in lat.entries
        ),
        torus_rank=lat.torus_rank + 1,
    )
    with pytest.raises(NotJIrreducible):
        order_thm41(tweaked)
    # the general formulas still run on it
    order_thm34(tweaked)


@pytest.mark.parametrize("l", range(2, 7))
def test_symplectic_closed_form_matches_lattice_route(l):
    assert symplectic_order(l).total == order_thm41(fundamental_lattice(CartanType("C", l), l)).total


def test_closed_form_check_compares_each_stratum(monkeypatch):
    # swapping two strata keeps the total and every sum of strata, so only
    # a stratum-by-stratum comparison with the thm41 terms can see it
    def swapped(l):
        report = symplectic_order(l)
        (a, p), (b, r) = report.terms[1:3]
        terms = report.terms[:1] + ((a, r), (b, p)) + report.terms[3:]
        return dataclasses.replace(report, terms=terms)

    monkeypatch.setattr(verify, "symplectic_order", swapped)
    assert verify.check_symplectic_closed_form() == (
        False,
        "strata differ from the thm41 terms, l=2",
    )


@pytest.mark.parametrize("l", range(2, 7))
def test_symplectic_strata_partition(l):
    report = symplectic_order(l)
    total = QPolynomial()
    for _, term in report.terms:
        total = total + term
    assert total == report.total
    # top stratum is the unit group of the symplectic monoid
    top = dict(report.terms)[f"M^{l + 1}"]
    lattice_terms = dict(order_thm41(fundamental_lattice(CartanType("C", l), l)).terms)
    assert top == lattice_terms["1"]


def dense_gaussian(n, r, base_power=1):
    acc = ONE
    for i in range(1, r + 1):
        acc = div_exact(
            acc * q_power_minus_one(base_power * (n - r + i)),
            q_power_minus_one(base_power * i),
        )
    return acc


def dense_symplectic_term(l, r):
    """q^{r^2} [l, r]_{q^2}^2 prod (q^{2i}-1) prod (q^i+1)^2, multiplied densely."""
    term = QPolynomial.monomial(r * r) * dense_gaussian(l, r, 2) ** 2
    for i in range(1, r + 1):
        term = term * q_power_minus_one(2 * i)
    for i in range(1, l - r + 1):
        term = term * (QPolynomial.monomial(i) + ONE) ** 2
    return term


@pytest.mark.parametrize("l", range(2, 13))
def test_symplectic_closed_forms_match_dense_products(l):
    h = QPolynomial()
    for r in range(l + 1):
        h = h + dense_symplectic_term(l, r)
    report = symplectic_order(l)
    assert h_polynomial(report.total).coeffs == h.coeffs
    assert report.terms[0] == ("M^0", ONE)
    for r in range(1, l + 2):
        expected = Q_MINUS_ONE * dense_symplectic_term(l, r - 1)
        assert report.terms[r] == (f"M^{r}", expected), r


@pytest.mark.parametrize("n", range(1, 9))
def test_gl_strata_match_dense_products(n):
    for r in range(n + 1):
        expected = QPolynomial.monomial(r * (r - 1) // 2) * dense_gaussian(n, r) ** 2
        for i in range(1, r + 1):
            expected = expected * q_power_minus_one(i)
        assert gl_strata(n, r).coeffs == expected.coeffs, r


def test_symplectic_order_at_rank_40():
    start = time.perf_counter()
    report = symplectic_order(40)
    strata_sum = QPolynomial()
    for _, term in report.terms:
        strata_sum = strata_sum + term
    assert strata_sum == report.total
    assert sum(report.total.coeffs) == 1  # |M|(1) = 1
    assert is_palindromic(h_polynomial(report.total))
    print(f"symplectic_order(40) checked in {time.perf_counter() - start:.2f} s")


def test_symplectic_order_expands_each_h_term_once(monkeypatch):
    calls = []
    real_expand = orders.expand

    def counting_expand(product):
        calls.append(product)
        return real_expand(product)

    monkeypatch.setattr(orders, "expand", counting_expand)
    report = symplectic_order(30)
    # H term 0, then the top term for the end check; the other H terms come
    # from ratio steps and the strata from shift-subtracts, with no expansion
    evens = [2 * i for i in range(1, 31)]
    assert calls == [
        QProduct.of(evens) ** 2 / QProduct.of(range(1, 31)) ** 2,
        QProduct.of(evens, shift=900),
    ]
    monkeypatch.undo()
    # stratum r is (q-1) times H term r-1, which is the thm41 term of entry r
    lattice_route = order_thm41(fundamental_lattice(CartanType("C", 30), 30))
    assert [term for _, term in report.terms] == [
        term for _, term in lattice_route.terms
    ]
    assert report.total == lattice_route.total


def doubled_times_binomial(coeffs, d):
    return [2 * c for c in qpoly._times_binomial(coeffs, d)]


def test_broken_ratio_step_raises(monkeypatch):
    # doubling keeps every step divisible, so only the end check sees it
    monkeypatch.setattr(orders, "_times_binomial", doubled_times_binomial)
    with pytest.raises(InvariantViolation):
        symplectic_order(4)


OPTIMIZED_RATIO_CHECK = """
import sys
from monoid_orders import orders, qpoly
from monoid_orders.errors import InvariantViolation

if not sys.flags.optimize:
    sys.exit("not running under -O")
orders._times_binomial = lambda c, d: [2 * x for x in qpoly._times_binomial(c, d)]
try:
    orders.symplectic_order(4)
except InvariantViolation:
    sys.exit(0)
sys.exit("a broken ratio step went unnoticed")
"""


def test_broken_ratio_step_raises_under_optimize():
    # python -O strips assert statements; the end check must survive it
    src = os.path.dirname(os.path.dirname(monoid_orders.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RATIO_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_symplectic_stratum_range():
    # strata M^0 .. M^(l+1), the empty stratum of the zero alone first
    report = symplectic_order(3)
    assert [label for label, _ in report.terms] == [f"M^{r}" for r in range(5)]
    assert report.terms[0][1] == ONE


def test_symplectic_rejects_small_l():
    with pytest.raises(ValueError):
        symplectic_order(1)
    with pytest.raises(ValueError):
        symplectic_order(0)


def test_gl_strata_values():
    assert gl_strata(2, 0) == ONE
    assert eval_big(gl_strata(2, 1), 2) == 9
    assert eval_big(gl_strata(2, 2), 2) == 6
    with pytest.raises(IndexOutOfRange):
        gl_strata(2, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_gl_strata_sum(n):
    total = QPolynomial()
    for r in range(n + 1):
        total = total + gl_strata(n, r)
    assert total == QPolynomial.monomial(n * n)


def test_h_polynomial_examples():
    assert h_polynomial(QPolynomial.monomial(4)) == QPolynomial([1, 1, 1, 1])
    assert h_polynomial(symplectic_order(2).total).coeffs == H_COEFFS_L2
    assert h_polynomial(symplectic_order(3).total).coeffs == H_COEFFS_L3


def test_h_polynomial_rejects_non_split_totals():
    with pytest.raises(NonExactDivision):
        h_polynomial(QPolynomial([0, 1, 0, 0, 1]))  # (total-1)(1) = 1 != 0


def test_report_evaluate_and_json():
    # 183681 = 1 + 2 * H(3) with the frozen l=2 coefficient list
    assert 1 + 2 * sum(c * 3**i for i, c in enumerate(H_COEFFS_L2)) == 183681
    report = order_thm34(fundamental_lattice(CartanType("C", 2), 2)).evaluate([2, 3])
    assert report.evaluations == {2: 2296, 3: 183681}
    payload = report.to_json()
    assert payload["formula"] == "thm34"
    assert payload["type"] == "C2"
    assert payload["evaluations"] == {"2": "2296", "3": "183681"}
    assert payload["total_coeffs"] == report.total.to_json()
    assert payload["lattice"]["entries"][0]["label"] == "0"
    assert [t["label"] for t in payload["terms"]] == ["0", "e{}", "e{2}", "1"]


def test_report_is_frozen():
    report = order_thm34(fundamental_lattice(CartanType("C", 2), 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.notes = ()
    evaluated = report.evaluate([2])
    assert report.evaluations == {}
    assert evaluated.evaluations == {2: 2296}
    assert evaluated.evaluate([3]).evaluations == {2: 2296, 3: 183681}


def test_thm33_notes_skipped_coset_check():
    lat = fundamental_lattice(CartanType("C", 3), 3)
    assert not any("skipped" in note for note in order_thm33(lat).notes)
    bounded = order_thm33(lat, enum_bound=10)
    assert bounded.notes[-1] == "skipped thm33 coset cross-check (GroupTooLarge)"
    assert bounded.total == order_thm33(lat).total


def test_every_route_checks_the_total_at_q_equal_1():
    # built without validate(): the exponent-0 middle entry adds 1 at q=1
    rs = build(CartanType("A", 1))
    entries = (
        LatticeEntry("0", frozenset(), frozenset({1}), 0),
        LatticeEntry("e{}", frozenset(), frozenset(), 0),
        LatticeEntry("1", frozenset({1}), frozenset(), 1),
    )
    lat = CrossSectionLattice(rs, entries, torus_rank=1)
    for route in (order_thm31, order_thm33, order_thm34):
        with pytest.raises(InvariantViolation, match="at q=1, not 1"):
            route(lat)


def is_bc(ds):
    """B_m and C_m (m >= 2) are the only types with degrees (2, 4, ..., 2m)."""
    return len(ds) >= 2 and ds == tuple(range(2, 2 * len(ds) + 1, 2))


def scanned_lattice_notes(lat):
    """The notes from the degrees of each component of every entry."""
    rs = lat.root_system
    notes = [f"type map: {lat.provenance}"]
    for e in lat.entries:
        for X in (e.lambda_star, e.lambda_substar):
            if any(is_bc(subset_degrees(rs, comp)) for comp in components(rs, X)):
                return tuple(notes + [orders.BC_NOTE])
    return tuple(notes)


def every_proper_j0(specs):
    for spec in specs:
        rank = CartanType.parse(spec).rank
        for mask in range(2**rank - 1):
            yield spec, ",".join(str(i + 1) for i in range(rank) if mask >> i & 1)


@pytest.mark.parametrize(
    "spec, j0",
    every_proper_j0(
        [f"B{l}" for l in range(2, 7)]
        + [f"C{l}" for l in range(2, 7)]
        + ["F4", "G2", "A4", "D4", "D5", "E6"]
    ),
)
def test_lattice_notes_match_the_component_scan(spec, j0):
    rs = build(CartanType.parse(spec))
    J0 = frozenset(int(i) for i in j0.split(",") if i)
    lat = j_irreducible_lattice(rs, J0)
    assert orders._lattice_notes(lat) == scanned_lattice_notes(lat)
    if spec[0] in "ADEG":
        assert orders._lattice_notes(lat) == ("type map: " + lat.provenance,)


@pytest.mark.parametrize("spec", ["B3", "C4", "F4", "G2", "D4"])
def test_lattice_notes_match_the_component_scan_on_every_subset(spec):
    # weight-support lattices of B, C and F4 all carry the note (through
    # the zero entry); one-entry lattices reach the subsets without it
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank):
        X = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        for star, sub in ((X, frozenset()), (frozenset(), X)):
            entry = LatticeEntry("e", star, sub, 0)
            lat = CrossSectionLattice(rs, (entry,), torus_rank=rs.rank)
            assert orders._lattice_notes(lat) == scanned_lattice_notes(lat), sorted(X)


def test_report_evaluate_rejects_nonpositive_terms():
    report = OrderReport(
        formula="thm34",
        cartan_type=CartanType("A", 1),
        terms=(("bad", QPolynomial([-5])),),
        total=QPolynomial([-5]),
    )
    with pytest.raises(InvariantViolation):
        report.evaluate([2])


def test_every_term_positive_at_small_prime_powers():
    for lat in AGREEMENT_LATTICES:
        report = order_thm34(lat)
        for q0 in (2, 3, 4, 5):
            for _, term in report.terms:
                assert eval_big(term, q0) > 0


def wrong_coset_poly(rs, gens, fixed, bound=None):
    return coset_length_poly(rs, gens, fixed, bound) + ONE


def test_thm33_coset_mismatch_raises(monkeypatch):
    monkeypatch.setattr(orders, "coset_length_poly", wrong_coset_poly)
    with pytest.raises(InvariantViolation):
        order_thm33(fundamental_lattice(CartanType("C", 2), 2))


# B2's degrees divide |W(C3)|'s, so only the walked cross-check sees them;
# a Phi_5 does not, so the exact factored quotient refuses it
@pytest.mark.parametrize("wrong", [(2, 4), (5,)])
def test_thm33_wrong_degrees_for_one_subset_raise(monkeypatch, wrong):
    a2 = frozenset({1, 2})
    real = orders.subset_degrees
    monkeypatch.setattr(
        orders, "subset_degrees", lambda rs, X: wrong if X == a2 else real(rs, X)
    )
    with pytest.raises(MonoidOrdersError):
        order_thm33(fundamental_lattice(CartanType("C", 3), 3))


OPTIMIZED_COSET_CHECK = """
import sys
from monoid_orders import orders, verify
from monoid_orders.crosssection import fundamental_lattice
from monoid_orders.errors import InvariantViolation
from monoid_orders.rootsystem import CartanType
from monoid_orders.qpoly import ONE

if not sys.flags.optimize:
    sys.exit("not running under -O")
orders.coset_length_poly = lambda rs, gens, fixed, bound=None: ONE
try:
    orders.order_thm33(fundamental_lattice(CartanType("C", 2), 2))
except InvariantViolation:
    sys.exit(0)
sys.exit("coset mismatch went unnoticed")
"""


def test_thm33_coset_mismatch_raises_under_optimize():
    # python -O strips assert statements; the cross-check must survive it
    src = os.path.dirname(os.path.dirname(monoid_orders.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_COSET_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
