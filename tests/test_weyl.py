"""The descent walk against independent combinatorial oracles."""

import itertools
import os
import random
import subprocess
import sys
from math import prod

import pytest

from monoid_orders import cli, rootsystem, weyl
from monoid_orders.errors import GroupTooLarge, InvariantViolation
from monoid_orders.qpoly import ONE, QPolynomial, QProduct, div_exact, expand
from monoid_orders.rootsystem import (
    CartanType,
    build,
    poincare_factors,
    poincare_product,
    subset_degrees,
    weyl_order,
)
from monoid_orders.weyl import coset_length_poly
from subdiagrams import components

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
    "spec",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "B6", "C3", "C6", "D4", "D6", "E6",
     "F4", "G2"],
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
        sub_order = prod(prod(subset_degrees(rs, comp)) for comp in components(rs, J))
        cosets = coset_length_poly(rs, delta(rs), J)
        assert sum(cosets.coeffs) == order // sub_order, sorted(J)
        sub_poly = expand(poincare_factors(subset_degrees(rs, J)))
        assert cosets == div_exact(w, sub_poly), sorted(J)


def test_walk_count_checked_against_degrees(monkeypatch):
    monkeypatch.setattr(weyl, "_subgroup_order", lambda rs, X: 1)
    rs = root_system("A2")
    with pytest.raises(InvariantViolation):
        coset_length_poly(rs, delta(rs), NONE)


def test_order_all_floods_each_subset_mask_once(capsys, monkeypatch):
    # every chain step of every walk reads subgroup orders; C6 --formula all
    # asks for the same subsets many times and floods each mask once
    rs = root_system("C6")
    rs._parts.clear()
    rs._components.clear()
    fills, lookups = [], []
    fill, parts = rootsystem._flood_fill, rootsystem._subset_parts

    def counted_fill(rs, mask):
        fills.append((str(rs.cartan_type), mask))
        return fill(rs, mask)

    def counted_parts(rs, X):
        lookups.append(X)
        return parts(rs, X)

    monkeypatch.setattr(rootsystem, "_flood_fill", counted_fill)
    monkeypatch.setattr(rootsystem, "_subset_parts", counted_parts)
    argv = ["order", "--type", "C6", "--preset", "last-fundamental", "--formula", "all"]
    assert cli.main([*argv, "--q", "2"]) == 0
    assert "4 formulas agree" in capsys.readouterr().out
    assert len(fills) == len(set(fills)) == len({X for X in lookups})
    assert len(lookups) > 2 * len(fills)


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


def direct_walk(rs, gens, fixed):
    """Reference oracle: the coset sum of W_fixed in W_gens walked as one
    orbit, level by level, with no chain (the walk before chaining)."""
    index = sorted(gens)
    columns = [[rs.cartan[j - 1][i - 1] for j in index] for i in index]
    alphas = [[(b, c) for b, c in enumerate(col) if c] for col in columns]
    level = {tuple(0 if i in fixed else 1 for i in index)}
    counts = []
    while level:
        counts.append(len(level))
        nxt = set()
        for mu in level:
            for a, alpha in enumerate(alphas):
                m = mu[a]
                if m > 0:
                    image = list(mu)
                    for b, c in alpha:
                        image[b] -= m * c
                    nxt.add(tuple(image))
        level = nxt
    return QPolynomial(counts)


DIRECT_WALK_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "F4", "G2", "E6",
]


@pytest.mark.parametrize("spec", DIRECT_WALK_TYPES)
def test_chain_matches_direct_walk_for_every_parabolic(spec):
    rs = root_system(spec)
    for J in subsets(rs.rank):
        assert coset_length_poly(rs, delta(rs), J) == direct_walk(
            rs, delta(rs), J
        ), sorted(J)
        assert coset_length_poly(rs, J, NONE) == direct_walk(rs, J, NONE), sorted(J)


@pytest.mark.parametrize("spec", ["E7", "E8"])
def test_solomon_e7_e8_at_a_raised_bound(spec):
    # the default bound still refuses E7 (test_group_too_large)
    rs = root_system(spec)
    assert weyl_order(rs.cartan_type) <= 10**9
    walked = coset_length_poly(rs, delta(rs), NONE, bound=10**9)
    assert walked == poincare_product(rs.cartan_type)


@pytest.fixture
def walks(monkeypatch):
    """Every factor walk, as (gens, fixed, number of weights walked)."""
    seen = []
    walk = weyl._walk

    def counting(rs, gens, fixed, expected):
        poly = walk(rs, gens, fixed, expected)
        seen.append((gens, fixed, sum(poly.coeffs)))
        return poly

    monkeypatch.setattr(weyl, "_walk", counting)
    return seen


def assert_maximal_factors(walks):
    assert walks
    for gens, fixed, _ in walks:
        assert fixed <= gens and len(gens - fixed) == 1, (sorted(gens), sorted(fixed))


def test_e6_weyl_polynomial_is_a_chain_of_maximal_walks(walks):
    rs = root_system("E6")
    assert coset_length_poly(rs, delta(rs), NONE) == poincare_product(rs.cartan_type)
    assert_maximal_factors(walks)
    # one factor per node, their orbit sizes multiplying to |W(E6)| = 51,840
    assert len(walks) == 6
    assert prod(n for _, _, n in walks) == weyl_order(rs.cartan_type)
    assert sum(n for _, _, n in walks) <= 2000


def test_e6_order_all_walks_at_most_2000_weights(walks, capsys):
    code = cli.main(
        ["order", "--type", "E6", "--preset", "last-fundamental", "--formula", "all"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "4 formulas agree" in out and "skipped" not in out
    assert_maximal_factors(walks)
    assert sum(n for _, _, n in walks) <= 2000


def a1_degrees_wrong(real):
    """subset_degrees with each A1 given (3,): the A2 chain then walks 3 and
    2 cosets against indices 2 and 3, so only a per-factor check sees the
    error."""
    return lambda rs, X: (3,) if len(X) == 1 else real(rs, X)


def test_each_factor_checked_against_its_index(monkeypatch):
    rs = root_system("A2")
    monkeypatch.setattr(weyl, "subset_degrees", a1_degrees_wrong(subset_degrees))
    assert weyl_order(rs.cartan_type) == 6  # the product of the indices is right
    with pytest.raises(InvariantViolation):
        coset_length_poly(rs, delta(rs), NONE)


OPTIMIZED_FACTOR_CHECK = """
import sys
from monoid_orders import rootsystem, weyl
from monoid_orders.errors import InvariantViolation

if not sys.flags.optimize:
    sys.exit("not running under -O")
rs = rootsystem.build(rootsystem.CartanType("A", 2))
subset_degrees = weyl.subset_degrees
weyl.subset_degrees = lambda rs, X: (3,) if len(X) == 1 else subset_degrees(rs, X)
try:
    weyl.coset_length_poly(rs, frozenset({1, 2}), frozenset())
except InvariantViolation:
    sys.exit(0)
sys.exit("a wrong factor count went unnoticed")
"""


def test_factor_check_survives_optimize():
    # python -O strips assert statements; the per-factor check must survive it
    src = os.path.dirname(os.path.dirname(weyl.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_FACTOR_CHECK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


SOLOMON_TYPES = (
    [f"A{l}" for l in range(1, 7)]
    + [f"B{l}" for l in range(2, 7)]
    + [f"C{l}" for l in range(3, 7)]
    + ["D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("spec", SOLOMON_TYPES)
def test_walked_parabolics_match_the_height_degrees(spec):
    # the walk reads only the Cartan matrix, and a product of (q^d-1)/(q-1)
    # determines its multiset of degrees, so equality checks every degree;
    # every subset up to rank 6, 16 fixed ones of E7 and E8
    rs = root_system(spec)
    masks = range(2**rs.rank)
    if rs.rank > 6:
        masks = random.Random(spec).sample(masks, 16)
    for mask in masks:
        X = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        ds = subset_degrees(rs, X)
        solomon = expand(QProduct.of(ds) / QProduct.of([1] * len(ds)))
        assert coset_length_poly(rs, X, NONE, 10**9) == solomon, sorted(X)
