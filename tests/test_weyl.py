"""The descent walk against independent combinatorial oracles."""

import itertools

import pytest

from monoid_orders import weyl
from monoid_orders.errors import GroupTooLarge, InvariantViolation
from monoid_orders.qpoly import ONE, QPolynomial, div_exact
from monoid_orders.rootsystem import (
    CartanType,
    build,
    connected_components,
    poincare_product,
    subset_poincare,
    weyl_order,
)
from monoid_orders.weyl import coset_length_poly

NONE = frozenset()


def root_system(spec):
    return build(CartanType.parse(spec))


def delta(rs):
    return frozenset(range(1, rs.rank + 1))


def w_poly(spec):
    rs = root_system(spec)
    return coset_length_poly(rs, delta(rs), NONE)


def subsets(rank):
    for mask in range(2**rank):
        yield frozenset(i + 1 for i in range(rank) if mask >> i & 1)


def inversion_poly(n):
    """Length generating polynomial of S_n: q^(number of inversions)."""
    counts = [0] * (n * (n - 1) // 2 + 1)
    for p in itertools.permutations(range(n)):
        pairs = itertools.combinations(range(n), 2)
        counts[sum(1 for i, j in pairs if p[i] > p[j])] += 1
    return QPolynomial(counts)


def test_a1_enumeration():
    assert w_poly("A1") == QPolynomial([1, 1])


def test_a2_matches_symmetric_group_oracle():
    # the rank-2 symmetric-group Weyl group is S_3; lengths are inversions
    assert w_poly("A2") == inversion_poly(3) == QPolynomial([1, 2, 2, 1])


@pytest.mark.parametrize("spec, n", [("A3", 4), ("A4", 5)])
def test_length_distribution_matches_symmetric_group(spec, n):
    assert w_poly(spec) == inversion_poly(n)


def test_b2_enumeration():
    w = w_poly("B2")
    assert sum(w.coeffs) == 8
    assert w.degree == 4


def test_length_gen_polys():
    assert w_poly("A1") == QPolynomial([1, 1])
    assert w_poly("A2") == QPolynomial([1, 2, 2, 1])
    assert w_poly("G2") == QPolynomial([1, 2, 2, 2, 2, 2, 1])


@pytest.mark.parametrize(
    "spec", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2"]
)
def test_solomon_product_formula(spec):
    assert w_poly(spec) == poincare_product(CartanType.parse(spec))


def test_parabolic_subgroups():
    c3 = root_system("C3")
    assert coset_length_poly(c3, NONE, NONE) == ONE
    assert sum(coset_length_poly(c3, frozenset({2, 3}), NONE).coeffs) == 8
    a2 = root_system("A2")
    assert coset_length_poly(a2, frozenset({1}), NONE) == QPolynomial([1, 1])


def test_min_coset_reps_extremes():
    rs = root_system("B2")
    assert coset_length_poly(rs, delta(rs), delta(rs)) == ONE
    assert coset_length_poly(rs, delta(rs), NONE) == w_poly("B2")


def test_min_coset_reps_a2():
    rs = root_system("A2")
    J = frozenset({1})
    cosets = coset_length_poly(rs, delta(rs), J)
    assert cosets == QPolynomial([1, 1, 1])
    assert cosets == div_exact(w_poly("A2"), coset_length_poly(rs, J, NONE))


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "B4", "F4"])
def test_coset_factorization_all_parabolics(spec):
    rs = root_system(spec)
    total = w_poly(spec)
    for J in subsets(rs.rank):
        cosets = coset_length_poly(rs, delta(rs), J)
        sub = coset_length_poly(rs, J, NONE)
        assert sum(cosets.coeffs) * sum(sub.coeffs) == sum(total.coeffs)
        assert cosets * sub == total, sorted(J)


def test_e6_orbit_sizes():
    rs = root_system("E6")
    order = weyl_order(rs.cartan_type)
    w = poincare_product(rs.cartan_type)
    for J in subsets(rs.rank):
        if not J:
            continue
        sub_order = 1
        for _, ct in connected_components(rs, J):
            sub_order *= weyl_order(ct)
        cosets = coset_length_poly(rs, delta(rs), J)
        assert sum(cosets.coeffs) == order // sub_order, sorted(J)
        assert cosets == div_exact(w, subset_poincare(rs, J)), sorted(J)


def test_walk_count_checked_against_degrees(monkeypatch):
    monkeypatch.setattr(weyl, "_subgroup_order", lambda rs, X: 1)
    rs = root_system("A2")
    with pytest.raises(InvariantViolation):
        coset_length_poly(rs, delta(rs), NONE)


def test_fixed_must_lie_in_gens():
    rs = root_system("A3")
    with pytest.raises(ValueError):
        coset_length_poly(rs, frozenset({1}), frozenset({2}))


def test_group_too_large():
    a3 = build(CartanType("A", 3))
    with pytest.raises(GroupTooLarge):
        coset_length_poly(a3, delta(a3), NONE, bound=10)
    # the bound is on the ambient group, whatever subgroup is walked
    with pytest.raises(GroupTooLarge):
        coset_length_poly(a3, frozenset({1}), NONE, bound=10)
    # E7 fails fast from the known order, before any enumeration
    e7 = build(CartanType("E", 7))
    assert weyl_order(CartanType("E", 7)) > 10**6
    with pytest.raises(GroupTooLarge):
        coset_length_poly(e7, delta(e7), NONE)
