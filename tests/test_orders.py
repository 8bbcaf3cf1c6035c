"""The four order formulas, closed forms, strata, and H-polynomials."""

import os
import re
import subprocess
import sys
import time
from math import prod

import pytest

import monoid_orders
from monoid_orders import cli, orders, qpoly, verify
from monoid_orders.crosssection import (
    CrossSectionLattice,
    LatticeEntry,
    fundamental_lattice,
    j_irreducible_lattice,
)
from monoid_orders.errors import (
    InvariantViolation,
    LatticeTooLarge,
    MonoidOrdersError,
    NonExactDivision,
    NotJIrreducible,
    UnsupportedType,
)
from monoid_orders.oracle import enumerate_rank_histogram
from monoid_orders.orders import (
    OrderReport,
    census_total,
    chain_total,
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
    RootSystemData,
    build,
    degrees,
    positive_count_of_subset,
    subset_degrees,
)
from monoid_orders.weyl import coset_length_poly
from subdiagrams import components, mask_of, nodes, star, substar

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
    subsets = {lat.all_mask} | {
        X
        for e in lat.entries
        if not lat.is_zero(e)
        for X in (e.star_mask | e.substar_mask, e.substar_mask)
    }
    walked = []

    def counting_walk(rs, gens, fixed, bound=None):
        walked.append(gens)
        return coset_length_poly(rs, gens, fixed, bound)

    monkeypatch.setattr(orders, "coset_length_poly", counting_walk)
    for _ in range(2):
        del walked[:]
        order_thm31(lat)
        assert sorted(walked) == sorted(subsets)


def raised_exponents(lat):
    """lat with every nonzero torus-index exponent and the torus rank one
    higher: no longer a weight-support lattice."""
    return CrossSectionLattice(
        lat.root_system,
        tuple(
            LatticeEntry(
                e.label,
                e.star_mask,
                e.substar_mask,
                e.torus_index_exponent + (0 if lat.is_zero(e) else 1),
            )
            for e in lat.entries
        ),
        torus_rank=lat.torus_rank + 1,
    )


def test_thm41_requires_weight_support_exponents():
    tweaked = raised_exponents(fundamental_lattice(CartanType("C", 2), 2))
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
        return report.replace(terms=terms)

    monkeypatch.setattr(verify, "symplectic_order", swapped)
    assert verify.check_symplectic_closed_form() == (
        False,
        "strata differ from the thm41 terms, l=2",
    )


def test_pascal_check_expands_each_binomial_once(monkeypatch):
    calls = []
    binomial = verify.gaussian_binomial

    def counted(n, r, base_power=1):
        calls.append((n, r, base_power))
        return binomial(n, r, base_power)

    monkeypatch.setattr(verify, "gaussian_binomial", counted)
    assert verify.check_pascal_recurrence() == (True, "56 instances")
    needed = [
        key
        for base in (1, 2)
        for n in range(1, 9)
        for r in range(1, n)
        for key in ((n, r, base), (n - 1, r, base), (n - 1, r - 1, base))
    ]
    assert len(needed) == 168
    assert sorted(calls) == sorted(set(needed))


# (5, 2, 2) is first the left side of n=5, r=2; (3, 3, 1) is never a left
# side and first appears on the right of n=4, r=3
@pytest.mark.parametrize(
    "corrupt, detail",
    [((5, 2, 2), "fails at n=5, r=2"), ((3, 3, 1), "fails at n=4, r=3")],
)
def test_pascal_check_reports_a_corrupted_binomial(monkeypatch, corrupt, detail):
    binomial = verify.gaussian_binomial

    def corrupted(n, r, base_power=1):
        value = binomial(n, r, base_power)
        return value + ONE if (n, r, base_power) == corrupt else value

    monkeypatch.setattr(verify, "gaussian_binomial", corrupted)
    assert verify.check_pascal_recurrence() == (False, detail)


@pytest.mark.parametrize(
    "corrupt, result, walked",
    [
        (None, (True, "l=2,3 coefficients; palindromic l=2..6"), [2, 3, 4, 5, 6]),
        (3, (False, "coefficients differ at l=3"), [2, 3]),
        (5, (False, "not palindromic at l=5"), [2, 3, 4, 5]),
    ],
)
def test_h_polynomial_check_computes_each_order_once(monkeypatch, corrupt, result, walked):
    # each l is computed once, when first checked, so a failure stops the
    # check before any larger l; adding (q - 1) q to a total adds q to its H
    calls = []

    def counted(l):
        calls.append(l)
        report = symplectic_order(l)
        if l != corrupt:
            return report
        bumped = report.total + Q_MINUS_ONE * QPolynomial.monomial(1)
        return report.replace(total=bumped)

    monkeypatch.setattr(verify, "symplectic_order", counted)
    assert verify.check_h_polynomials() == result
    assert calls == walked


def test_agreement_check_compares_each_term(monkeypatch):
    # swapping two terms keeps the total, so only a term-by-term
    # comparison of the routes can see it
    def swapped(lat):
        report = order_thm34(lat)
        (a, p), (b, r) = report.terms[1:3]
        terms = report.terms[:1] + ((a, r), (b, p)) + report.terms[3:]
        return report.replace(terms=terms)

    monkeypatch.setattr(verify, "order_thm34", swapped)
    assert verify.check_formula_agreement() == (False, "A1 (first-fundamental)")


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
    strata = gl_strata(n)
    assert len(strata) == n + 1
    for r in range(n + 1):
        expected = QPolynomial.monomial(r * (r - 1) // 2) * dense_gaussian(n, r) ** 2
        for i in range(1, r + 1):
            expected = expected * q_power_minus_one(i)
        assert strata[r].coeffs == expected.coeffs, r


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
    stepped, divisions = [], []
    real_powers, real_over = qpoly._binomial_powers, qpoly._over_binomial
    monkeypatch.setattr(
        qpoly, "_binomial_powers", lambda phi: stepped.append(phi) or real_powers(phi)
    )
    # expand_all divides low halves, passing their degree
    monkeypatch.setattr(
        qpoly,
        "_over_binomial",
        lambda c, d, *degree: divisions.append(d) or real_over(c, d, *degree),
    )
    report = symplectic_order(30)
    # strata M^0 .. M^31 once each, then the top stratum again, expanded on
    # its own for the end check
    evens = [2 * i for i in range(1, 31)]
    assert len(stepped) == 33 and len(set(stepped[:32])) == 32
    h_0 = QProduct.of(evens) ** 2 / QProduct.of(range(1, 31)) ** 2
    assert stepped[:2] == [(), (QProduct.of([1]) * h_0).phi]
    assert stepped[-2] == stepped[-1] == QProduct.of([1] + evens).phi
    # M^1 = (q-1) H_0 from 1 divides by (q^d-1)^2 for each odd d > 1 up to
    # 29, and once by q-1; each later stratum is one ratio step from the one
    # before, with one division by q^{2r+2}-1; the top one from 1 has none;
    # then the H-polynomial check divides the total minus 1 by q-1
    from_one = [d for d in range(29, 0, -2) for _ in range(1 + (d > 1))]
    assert divisions == from_one + [2 * r + 2 for r in range(30)] + [1]
    monkeypatch.undo()
    # stratum r is (q-1) times H term r-1, which is the thm41 term of entry r
    lattice_route = order_thm41(fundamental_lattice(CartanType("C", 30), 30))
    assert [term for _, term in report.terms] == [
        term for _, term in lattice_route.terms
    ]
    assert report.total == lattice_route.total


REAL_TIMES_BINOMIAL = qpoly._times_binomial


def doubled_times_binomial(coeffs, d):
    return [2 * c for c in REAL_TIMES_BINOMIAL(coeffs, d)]


def test_broken_ratio_step_raises(monkeypatch):
    # doubling keeps every step divisible, so only the end check sees it:
    # the strata chain takes more multiply steps than the top stratum from 1
    monkeypatch.setattr(qpoly, "_times_binomial", doubled_times_binomial)
    with pytest.raises(InvariantViolation):
        symplectic_order(4)


OPTIMIZED_RATIO_CHECK = """
import sys
from monoid_orders import orders, qpoly
from monoid_orders.errors import InvariantViolation

if not sys.flags.optimize:
    sys.exit("not running under -O")
real = qpoly._times_binomial
qpoly._times_binomial = lambda c, d: [2 * x for x in real(c, d)]
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
    strata = gl_strata(2)
    assert len(strata) == 3  # ranks 0, 1 and 2, and no stratum 3
    assert strata[0] == ONE
    assert eval_big(strata[1], 2) == 9
    assert eval_big(strata[2], 2) == 6


@pytest.mark.parametrize("n", range(1, 7))
def test_gl_strata_sum(n):
    total = QPolynomial()
    for stratum in gl_strata(n):
        total = total + stratum
    assert total == QPolynomial.monomial(n * n)


@pytest.mark.parametrize(
    "producer, arg, message",
    [
        (gl_strata, 3, "A2 strata sum differs from q^9"),
        (symplectic_order, 3, "C3 strata sum has no palindromic H-polynomial"),
    ],
)
def test_strata_producers_check_their_sums(monkeypatch, producer, arg, message):
    # one matrix more in M^1, as the producer expands it
    def off_by_one(products):
        strata = qpoly.expand_all(products)
        return [s + (ONE if r == 1 else QPolynomial()) for r, s in enumerate(strata)]

    monkeypatch.setattr(orders, "expand_all", off_by_one)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        producer(arg)


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
    report = order_thm34(fundamental_lattice(CartanType("C", 2), 2))
    values = cli._evaluated([*report.terms, ("total", report.total)], [2, 3])
    assert values[-1] == {2: "2296", 3: "183681"}
    payload = report.to_json(values[-1])
    assert payload["formula"] == "thm34"
    assert payload["type"] == "C2"
    assert payload["evaluations"] == {"2": "2296", "3": "183681"}
    assert payload["total_coeffs"] == report.total.to_json()
    assert payload["lattice"]["entries"][0]["label"] == "0"
    assert [t["label"] for t in payload["terms"]] == ["0", "e{}", "e{2}", "1"]


def test_report_is_frozen():
    report = order_thm34(fundamental_lattice(CartanType("C", 2), 2))
    notes = report.notes
    with pytest.raises(AttributeError, match="immutable"):
        report.notes = ()
    assert report.notes is notes
    # values at q live outside the report, which serves any list of q
    assert not hasattr(report, "evaluations")
    total = [("total", report.total)]
    assert cli._evaluated(total, [2]) == [{2: "2296"}]
    [values] = cli._evaluated(total, [3, 2])
    assert list(values.items()) == [(3, "183681"), (2, "2296")]
    assert report.to_json({})["evaluations"] == {}
    assert report.to_json({2: "2296"})["evaluations"] == {"2": "2296"}


def test_value_classes_keep_their_dataclass_behaviour():
    ct = CartanType("C", 2)
    assert repr(ct) == "CartanType(family='C', rank=2)"
    assert repr(QProduct.of([2])) == "QProduct(shift=0, phi=((1, 1), (2, 1)))"
    assert repr(verify.CheckResult("x", True, "d")) == (
        "CheckResult(name='x', ok=True, detail='d', skipped=False)"
    )
    assert repr(QPolynomial([1, 2])) == "QPolynomial([1, 2])"
    # equal fields give equal values and the field tuple's hash; a value of
    # another class never compares equal
    assert ct == CartanType("C", 2) and hash(ct) == hash(("C", 2))
    assert ct != CartanType("B", 2) and ct != ("C", 2)
    # memoized and derived slots stay out of equality, hashing and repr
    rs = build(ct)
    fresh = RootSystemData(rs.cartan_type, rs.cartan, rs.positive_roots)
    assert rs._parts and not fresh._parts
    assert fresh == rs and hash(fresh) == hash(rs) and repr(fresh) == repr(rs)
    # replace runs the constructor, its validation included
    assert ct.replace(rank=3) == CartanType("C", 3)
    with pytest.raises(UnsupportedType):
        ct.replace(family="Z")
    with pytest.raises(TypeError):
        ct.replace(colour=1)
    with pytest.raises(AttributeError, match="CartanType is immutable"):
        del ct.rank
    assert ct.rank == 2


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
        LatticeEntry("0", 0, mask_of({1}), 0),
        LatticeEntry("e{}", 0, 0, 0),
        LatticeEntry("1", mask_of({1}), 0, 1),
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
        for X in (star(e), substar(e)):
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
    for X in range(2**rs.rank):
        for halves in ((X, 0), (0, X)):
            entry = LatticeEntry("e", *halves, 0)
            lat = CrossSectionLattice(rs, (entry,), torus_rank=rs.rank)
            notes = orders._lattice_notes(lat)
            assert notes == scanned_lattice_notes(lat), sorted(nodes(X))


def literal_thm31_terms(lat):
    """Reference: each orbit size |G|^2 / (|P(e)||U(e)||K(e)|) with every
    group order multiplied out densely, divided once per entry."""
    rs = lat.root_system

    def walked(X):
        return coset_length_poly(rs, X, 0)

    N = rs.num_positive
    rho = lat.torus_rank
    q_n_torus = QPolynomial.monomial(N) * Q_MINUS_ONE**rho
    size_G = q_n_torus * walked(lat.all_mask)
    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        lam, sub = entry.star_mask | entry.substar_mask, entry.substar_mask
        size_P = q_n_torus * walked(lam)
        size_U = QPolynomial.monomial(N - positive_count_of_subset(rs, nodes(lam)))
        size_K = (
            QPolynomial.monomial(positive_count_of_subset(rs, nodes(sub)))
            * Q_MINUS_ONE ** (rho - entry.torus_index_exponent)
            * walked(sub)
        )
        terms.append((entry.label, div_exact(size_G**2, size_P * size_U * size_K)))
    return tuple(terms)


@pytest.mark.parametrize(
    "spec, j0",
    every_proper_j0(
        [f"A{l}" for l in range(1, 6)]
        + [f"B{l}" for l in range(2, 5)]
        + [f"C{l}" for l in range(2, 5)]
        + ["D4", "F4", "G2"]
    ),
)
def test_thm31_matches_the_literal_orbit_sizes(spec, j0):
    rs = build(CartanType.parse(spec))
    lat = j_irreducible_lattice(rs, frozenset(int(i) for i in j0.split(",") if i))
    assert order_thm31(lat).terms == literal_thm31_terms(lat)


def test_thm31_matches_the_literal_orbit_sizes_off_the_weight_support_rule():
    lat = raised_exponents(fundamental_lattice(CartanType("C", 2), 2))
    assert lat.torus_rank == lat.rank + 2
    for e in lat.entries:
        if not lat.is_zero(e):
            assert e.torus_index_exponent == len(star(e)) + 2
    assert order_thm31(lat).terms == literal_thm31_terms(lat)


def test_thm31_matches_thm34_on_c20_with_the_bound_lifted():
    lat = fundamental_lattice(CartanType("C", 20), 20)
    assert order_thm31(lat, enum_bound=10**60).terms == order_thm34(lat).terms


def test_thm31_reads_only_the_lattice_and_the_walks(monkeypatch):
    lat = fundamental_lattice(CartanType("C", 4), 4)
    expected = literal_thm31_terms(lat)
    w = coset_length_poly(lat.root_system, lat.all_mask, 0)
    subsets = {
        X
        for e in lat.entries
        if not lat.is_zero(e)
        for X in (e.star_mask | e.substar_mask, e.substar_mask)
    }
    dividends = []
    real_div_exact = orders.div_exact

    def recording_div_exact(a, b):
        dividends.append(a)
        return real_div_exact(a, b)

    def refuse(rs, X):
        raise RuntimeError("thm31 read a positive-root count")

    monkeypatch.setattr(orders, "div_exact", recording_div_exact)
    monkeypatch.setattr(orders, "_mask_count", refuse)
    # the torus rank cancels, so a lattice that misstates it gives the same terms
    for probe in (lat, lat.replace(torus_rank=0)):
        del dividends[:]
        assert order_thm31(probe).terms == expected
        assert dividends == [w] * len(subsets)


def test_report_evaluate_rejects_nonpositive_terms():
    report = OrderReport(
        formula="thm34",
        cartan_type=CartanType("A", 1),
        terms=(("bad", QPolynomial([-5])),),
        total=QPolynomial([-5]),
    )
    with pytest.raises(InvariantViolation, match="term 'bad' is not positive at q=2"):
        cli._evaluated(report.terms, [2])


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
    a2 = 0b011  # nodes 1 and 2 as a subset mask
    real = orders._mask_degrees
    monkeypatch.setattr(
        orders, "_mask_degrees", lambda rs, X: wrong if X == a2 else real(rs, X)
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


GROUPED_TYPES = (
    [f"A{l}" for l in range(1, 6)]
    + [f"B{l}" for l in range(2, 5)]
    + [f"C{l}" for l in range(2, 5)]
    + ["D4", "D5", "F4", "G2"]
)


def assert_grouped_total_is_listed(lat):
    # the total, summed once per thm34 key, is the sum of the listed terms
    report = order_thm34(lat)
    assert len(report.terms) == len(lat.entries)
    assert report.total == qpoly.poly_sum(term for _, term in report.terms)


@pytest.mark.parametrize("spec", GROUPED_TYPES)
def test_grouped_total_equals_the_listed_total_on_every_support(spec):
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        J0 = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        assert_grouped_total_is_listed(j_irreducible_lattice(rs, J0))


@pytest.mark.parametrize(
    "spec, j0", [("A10", ""), ("D10", "2,4,6,8"), ("B12", "1,3,5,7,9,11")]
)
def test_grouped_total_equals_the_listed_total_on_long_lattices(spec, j0):
    rs = build(CartanType.parse(spec))
    J0 = frozenset(int(i) for i in j0.split(",") if i)
    assert_grouped_total_is_listed(j_irreducible_lattice(rs, J0))


def test_grouped_total_off_the_weight_support_rule():
    assert_grouped_total_is_listed(
        raised_exponents(fundamental_lattice(CartanType("C", 2), 2))
    )


def test_grouped_total_checks_the_value_at_one():
    lat = fundamental_lattice(CartanType("C", 2), 2)
    # a second zero entry: every other term vanishes at q = 1
    doubled = lat.replace(entries=lat.entries + (lat.zero_entry,))
    with pytest.raises(InvariantViolation, match="thm34 total is 2 at q=1"):
        order_thm34(doubled)


def test_thm34_sums_one_polynomial_per_key(monkeypatch):
    rs = build(CartanType("A", 10))
    lat = j_irreducible_lattice(rs, frozenset())
    keys = {
        (
            subset_degrees(rs, substar(e)),
            subset_degrees(rs, star(e)),
            e.torus_index_exponent,
        )
        for e in lat.entries
    }
    summed = []

    def counted_sum(polys):
        polys = list(polys)
        summed.append(len(polys))
        return qpoly.poly_sum(polys)

    monkeypatch.setattr(orders, "poly_sum", counted_sum)
    total = order_thm34(lat).total
    assert summed == [len(keys)] and len(keys) < len(lat.entries) == 1025
    monkeypatch.undo()
    assert total == order_thm34(lat).total


def assert_census_total_is_listed(rs, J0):
    census = census_total(rs, J0)
    listed = order_thm34(j_irreducible_lattice(rs, J0))
    assert census.total == listed.total, (rs.cartan_type, sorted(J0))
    assert census.notes == listed.notes, (rs.cartan_type, sorted(J0))
    assert (census.formula, census.cartan_type) == (listed.formula, listed.cartan_type)
    assert (census.terms, census.lattice) == ((), None)


@pytest.mark.parametrize("spec", GROUPED_TYPES + ["E6"])
def test_census_total_equals_the_listed_total_on_every_support(spec):
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        assert_census_total_is_listed(
            rs, frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        )


@pytest.mark.parametrize(
    "spec, j0",
    [
        ("D10", "2,4,6,8"),
        ("B12", "1,3,5,7,9,11"),
        ("A10", "1"),
        ("C13", "1,2,3,4,5,6,7,8,9,10,11,12"),
        ("E7", "1,3,5"),
        ("E8", "1,2,3,4,5,6,7"),
    ],
)
def test_census_total_equals_the_listed_total_on_long_lattices(spec, j0):
    rs = build(CartanType.parse(spec))
    assert_census_total_is_listed(rs, frozenset(int(i) for i in j0.split(",")))


@pytest.mark.parametrize("spec", ["B5", "B6", "C5", "C6"])
def test_census_notes_are_the_listed_lattice_notes(spec):
    # census_total reads the B/C note from the double bond alone; the
    # listed lattice's note scans every entry's halves
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        J0 = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        listed = orders._lattice_notes(j_irreducible_lattice(rs, J0))
        assert census_total(rs, J0).notes == listed, (spec, sorted(J0))


def held_coefficients(monkeypatch):
    """Count the coefficients census_total's expansions and stepped sums
    hold, through orders.expand_all and orders.times_product."""
    held = []

    def counted_expand_all(products):
        dense = qpoly.expand_all(products)
        held.extend(len(p.coeffs) for p in dense)
        return dense

    def counted_times_product(p, product):
        stepped = qpoly.times_product(p, product)
        held.append(len(stepped.coeffs))
        return stepped

    monkeypatch.setattr(orders, "expand_all", counted_expand_all)
    monkeypatch.setattr(orders, "times_product", counted_times_product)
    return held


def test_census_sum_bound_counts_the_coefficients_held(monkeypatch):
    rs = build(CartanType("D", 10))
    J0 = frozenset({2, 4, 6, 8})
    held = held_coefficients(monkeypatch)
    total = census_total(rs, J0).total
    assert sum(held) == 12961
    monkeypatch.undo()

    def no_expansion(*args):
        raise AssertionError("a product was built before the bound was checked")

    monkeypatch.setattr(orders, "poincare_factors", no_expansion)
    monkeypatch.setattr(orders, "expand_all", no_expansion)
    monkeypatch.setattr(orders, "times_product", no_expansion)
    with pytest.raises(
        LatticeTooLarge,
        match=r"the D10 census sum for J0 = \[2, 4, 6, 8\] holds 12961 coefficients"
        " in its products, which exceeds the bound 12960",
    ):
        census_total(rs, J0, bound=12960)
    monkeypatch.undo()
    assert census_total(rs, J0, bound=12961).total == total


def test_census_steps_each_group_larger_than_the_rank_once(monkeypatch):
    # D10 --j0 2,4,6,8 groups its 124 keys by lambda_* degrees into groups
    # of 77, 28, 13, 4 and two singletons; C13 omega_13 keys are singletons
    # but for one pair
    stepped = []
    monkeypatch.setattr(
        orders,
        "times_product",
        lambda p, product: stepped.append(product) or qpoly.times_product(p, product),
    )
    census_total(build(CartanType("D", 10)), frozenset({2, 4, 6, 8}))
    assert len(stepped) == 3
    stepped.clear()
    census_total(build(CartanType("C", 13)), frozenset(range(1, 13)))
    assert stepped == []


def vertex_degree(rs, J0):
    """Edges of the Weyl polytope conv(W lambda) at lambda, for lambda with
    support Delta - J0: sum over i not in J0 of |W_{J0}| / |W_{J0 - N(i)}|,
    N(i) the neighbours of i in the Dynkin diagram."""

    def weyl_order(X):
        return prod(subset_degrees(rs, frozenset(X)))

    c = rs.cartan
    degree = 0
    for i in set(range(1, rs.rank + 1)) - J0:
        near = {j for j in J0 if c[i - 1][j - 1]}
        degree += weyl_order(J0) // weyl_order(J0 - near)
    return degree


def test_palindromic_h_iff_the_weyl_polytope_is_simple():
    # rational smoothness, read two ways: H(q) from the thm34 total, and
    # the vertex degree from Weyl orders alone
    specs = (
        [f"A{l}" for l in range(1, 7)]
        + [f"{f}{l}" for f in "BC" for l in range(2, 7)]
        + ["D4", "D5", "D6", "E6", "F4", "G2"]
    )
    lattices = palindromic = 0
    for spec in specs:
        rs = build(CartanType.parse(spec))
        for mask in range(2**rs.rank - 1):  # every J0 except Delta
            J0 = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
            h = h_polynomial(order_thm34(j_irreducible_lattice(rs, J0)).total)
            smooth = vertex_degree(rs, J0) == rs.rank
            assert is_palindromic(h) == smooth, (spec, sorted(J0))
            if smooth:
                assert min(h.coeffs) >= 0, (spec, sorted(J0))
            lattices += 1
            palindromic += smooth
    assert (lattices, palindromic) == (548, 150)
    for l in range(2, 9):  # the omega_l monoids of type C_l are smooth
        rs = build(CartanType("C", l))
        assert vertex_degree(rs, frozenset(range(1, l))) == l


@pytest.mark.parametrize("rank", range(1, 14))
def test_chain_total_equals_the_listed_total(rank):
    rs = build(CartanType("A", rank))
    listed = order_thm34(j_irreducible_lattice(rs, frozenset()))
    chained = chain_total(rs)
    assert chained.total == listed.total
    assert chained.notes == listed.notes
    assert (chained.cartan_type, chained.terms) == (listed.cartan_type, ())


def test_chain_bound_is_checked_before_any_product(monkeypatch):
    rs = build(CartanType("A", 30))

    def no_product(*args):
        raise AssertionError("a product ran before the bound was checked")

    monkeypatch.setattr(orders, "expand_all", no_product)
    monkeypatch.setattr(QPolynomial, "__mul__", no_product)
    with pytest.raises(LatticeTooLarge, match="holds 127751 coefficients"):
        chain_total(rs, bound=127_750)
    monkeypatch.undo()
    assert is_palindromic(h_polynomial(chain_total(rs, bound=127_751).total))


def test_chain_total_covers_type_a_only():
    with pytest.raises(UnsupportedType):
        chain_total(build(CartanType("B", 3)))
