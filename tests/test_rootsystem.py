"""Root-system construction, subset counting, and parabolic degrees."""

import os
import subprocess
import sys

import pytest

from monoid_orders import rootsystem
from monoid_orders.errors import InvariantViolation, UnsupportedType
from monoid_orders.qpoly import QPolynomial, expand
from monoid_orders.rootsystem import (
    CartanType,
    build,
    degrees,
    parse_subset,
    poincare_factors,
    poincare_product,
    positive_count_of_subset,
    subset_degrees,
    weyl_order,
)
from subdiagrams import components

ALL_TYPES = (
    [CartanType("A", l) for l in range(1, 6)]
    + [CartanType("B", l) for l in range(2, 6)]
    + [CartanType("C", l) for l in range(2, 6)]
    + [CartanType("D", l) for l in range(3, 6)]
    + [CartanType("E", l) for l in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


def delta(rs):
    return frozenset(range(1, rs.rank + 1))


def test_positive_root_counts():
    assert build(CartanType("A", 2)).num_positive == 3
    assert build(CartanType("C", 2)).num_positive == 4
    assert build(CartanType("G", 2)).num_positive == 6


@pytest.mark.parametrize("ct", ALL_TYPES, ids=str)
def test_build_count_matches_degree_sum(ct):
    rs = build(ct)
    assert rs.num_positive == sum(d - 1 for d in degrees(ct))


@pytest.mark.parametrize("ct", ALL_TYPES, ids=str)
def test_positive_roots_are_nonnegative_combinations(ct):
    rs = build(ct)
    assert all(all(a >= 0 for a in root) for root in rs.positive_roots)
    assert len(set(rs.positive_roots)) == rs.num_positive


def test_adjacency_matches_cartan_entries():
    rs = build(CartanType("C", 3))
    assert rs.adjacent(1, 2) and rs.adjacent(2, 3)
    assert not rs.adjacent(1, 3)
    assert not rs.adjacent(2, 2)


@pytest.mark.parametrize("ct", ALL_TYPES, ids=str)
def test_neighbors_match_cartan_entries(ct):
    rs = build(ct)
    for i in delta(rs):
        expected = {j for j in delta(rs) if j != i and rs.cartan[i - 1][j - 1] != 0}
        assert rs.neighbors(i) == expected


@pytest.mark.parametrize("ct", [CartanType("E", 6), CartanType("G", 2)], ids=str)
def test_subset_count_matches_root_coordinates(ct):
    rs = build(ct)
    for mask in range(2**rs.rank):
        X = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        inside = [
            root
            for root in rs.positive_roots
            if all(root[i - 1] == 0 for i in delta(rs) - X)
        ]
        assert positive_count_of_subset(rs, X) == len(inside)


def test_parse_and_aliases():
    assert CartanType.parse("a3") == CartanType("A", 3)
    assert CartanType.parse("E6").rank == 6
    # low-rank aliases accepted: C2 behaves as B2, D3 as A3
    assert build(CartanType("C", 2)).num_positive == 4
    d3 = build(CartanType("D", 3))
    assert d3.num_positive == 6
    assert sorted(degrees(CartanType("D", 3))) == [2, 3, 4]


@pytest.mark.parametrize("bad", ["A0", "D2", "E5", "E9", "F3", "G3", "H3", "X1", "A"])
def test_unsupported_types(bad):
    with pytest.raises(UnsupportedType):
        CartanType.parse(bad)


def test_parse_subset():
    assert parse_subset("") == frozenset()
    assert parse_subset("1,3,4") == frozenset({1, 3, 4})
    with pytest.raises(UnsupportedType):
        parse_subset("1,5", rank=4)
    with pytest.raises(UnsupportedType):
        parse_subset("1,x")


def test_subset_counts():
    rs = build(CartanType("C", 3))
    assert positive_count_of_subset(rs, frozenset()) == 0
    assert positive_count_of_subset(rs, delta(rs)) == 9
    assert positive_count_of_subset(rs, frozenset({2, 3})) == 4


def test_subset_count_rejects_bad_indices():
    rs = build(CartanType("A", 2))
    with pytest.raises(UnsupportedType):
        positive_count_of_subset(rs, frozenset({3}))
    with pytest.raises(UnsupportedType):
        subset_degrees(rs, frozenset({3}))


def test_component_classification_examples():
    assert subset_degrees(build(CartanType("A", 2)), frozenset()) == ()
    # A1 + B2, and A2 + A1
    c4 = build(CartanType("C", 4))
    assert subset_degrees(c4, frozenset({1, 3, 4})) == (2, 2, 4)
    a4 = build(CartanType("A", 4))
    assert subset_degrees(a4, frozenset({1, 2, 4})) == (2, 2, 3)


def test_component_bc_orientation():
    # short or long root at the terminal end, B3 and C3 have equal degrees
    b4 = build(CartanType("B", 4))
    assert subset_degrees(b4, frozenset({2, 3, 4})) == (2, 4, 6)
    c4 = build(CartanType("C", 4))
    assert subset_degrees(c4, frozenset({2, 3, 4})) == (2, 4, 6)
    assert subset_degrees(c4, frozenset({3, 4})) == degrees(CartanType("B", 2))


def test_component_classification_in_exceptional_types():
    f4 = build(CartanType("F", 4))
    assert subset_degrees(f4, delta(f4)) == degrees(CartanType("F", 4))
    assert subset_degrees(f4, frozenset({1, 2, 3})) == (2, 4, 6)  # B3
    assert subset_degrees(f4, frozenset({2, 3, 4})) == (2, 4, 6)  # C3

    e7 = build(CartanType("E", 7))
    assert subset_degrees(e7, frozenset(range(1, 7))) == degrees(CartanType("E", 6))
    assert subset_degrees(e7, frozenset({2, 3, 4, 5})) == (2, 4, 4, 6)  # D4
    assert subset_degrees(e7, frozenset({2, 3, 4, 5, 6})) == (2, 4, 5, 6, 8)  # D5
    assert subset_degrees(e7, frozenset({2, 4, 5, 6, 7})) == (2, 3, 4, 5, 6)  # A5

    g2 = build(CartanType("G", 2))
    assert subset_degrees(g2, delta(g2)) == (2, 6)


@pytest.mark.parametrize(
    "ct",
    [CartanType("A", 4), CartanType("B", 4), CartanType("C", 4), CartanType("D", 4), CartanType("F", 4)],
    ids=str,
)
def test_subset_count_equals_component_sum(ct):
    rs = build(ct)
    for mask in range(2**rs.rank):
        X = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        by_components = sum(
            d - 1 for comp in components(rs, X) for d in subset_degrees(rs, comp)
        )
        assert positive_count_of_subset(rs, X) == by_components
        assert sorted(
            d for comp in components(rs, X) for d in subset_degrees(rs, comp)
        ) == list(subset_degrees(rs, X))


def wrong_g2(degrees):
    """The degree table with G2 given (3, 5): still 6 positive roots, so
    only the degree check in build sees the error."""
    return lambda ct: (3, 5) if ct == CartanType("G", 2) else degrees(ct)


def test_build_checks_the_degree_table(monkeypatch):
    monkeypatch.setattr(rootsystem, "degrees", wrong_g2(rootsystem.degrees))
    with pytest.raises(InvariantViolation, match="G2"):
        build.__wrapped__(CartanType("G", 2))  # past the cache of build


OPTIMIZED_TABLE_CHECK = """
import sys
from monoid_orders import rootsystem
from monoid_orders.errors import InvariantViolation

if not sys.flags.optimize:
    sys.exit("not running under -O")
degrees = rootsystem.degrees
rootsystem.degrees = lambda ct: (3, 5) if str(ct) == "G2" else degrees(ct)
try:
    rootsystem.build(rootsystem.CartanType("G", 2))
except InvariantViolation:
    sys.exit(0)
sys.exit("a wrong degree table went unnoticed")
"""


def test_table_check_survives_optimize():
    # python -O strips assert statements; the check in build must survive it
    src = os.path.dirname(os.path.dirname(rootsystem.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_TABLE_CHECK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_degree_tables():
    assert degrees(CartanType("A", 3)) == (2, 3, 4)
    assert degrees(CartanType("C", 3)) == (2, 4, 6)
    assert degrees(CartanType("G", 2)) == (2, 6)
    assert degrees(CartanType("E", 6)) == (2, 5, 6, 8, 9, 12)


def test_poincare_products():
    assert poincare_product(CartanType("A", 1)) == QPolynomial([1, 1])
    assert poincare_product(CartanType("A", 2)) == QPolynomial([1, 2, 2, 1])
    assert poincare_product(CartanType("B", 2)) == QPolynomial([1, 2, 2, 2, 1])


@pytest.mark.parametrize("ct", ALL_TYPES, ids=str)
def test_poincare_coefficient_sum_is_group_order(ct):
    assert sum(poincare_product(ct).coeffs) == weyl_order(ct)


def subset_poincare(rs, X):
    return expand(poincare_factors(subset_degrees(rs, X)))


def test_subset_poincare():
    rs = build(CartanType("C", 3))
    assert subset_poincare(rs, frozenset()) == QPolynomial([1])
    assert subset_poincare(rs, frozenset({2, 3})) == poincare_product(
        CartanType("B", 2)
    )
    assert subset_poincare(rs, delta(rs)) == poincare_product(CartanType("C", 3))
