"""Root-system construction, subset counting, and parabolic degrees."""

import os
import subprocess
import sys
from collections import Counter

import pytest

from monoid_orders import rootsystem
from monoid_orders.crosssection import j_irreducible_lattice
from monoid_orders.errors import InvariantViolation, UnsupportedType
from monoid_orders.qpoly import QPolynomial, expand
from monoid_orders.rootsystem import (
    CartanType,
    build,
    degrees,
    parse_subset,
    poincare_factors,
    poincare_product,
    weyl_order,
)
from subdiagrams import components, neighbors, subset_count, subset_degrees

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
    assert 2 in neighbors(rs, 1) and 3 in neighbors(rs, 2)
    assert 3 not in neighbors(rs, 1)
    assert 2 not in neighbors(rs, 2)


@pytest.mark.parametrize("ct", ALL_TYPES, ids=str)
def test_neighbors_match_cartan_entries(ct):
    rs = build(ct)
    for i in delta(rs):
        expected = {j for j in delta(rs) if j != i and rs.cartan[i - 1][j - 1] != 0}
        assert neighbors(rs, i) == expected


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
        assert subset_count(rs, X) == len(inside)


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


@pytest.mark.parametrize("spec", ["2,2", "1,3,1"])
def test_parse_subset_refuses_repeated_indices(spec):
    with pytest.raises(UnsupportedType, match="repeats an index"):
        parse_subset(spec, rank=4)


# int() reads every one of these; "1_0" as 10, "+1" and "\uff11" as 1
NOT_ASCII_DIGITS = ["1_0", "+1", "-1", "\uff11", "\u0663", "1, 2", " 4, 4 ", " 1", "1 ", "1,", ",1", " "]


@pytest.mark.parametrize("spec", NOT_ASCII_DIGITS)
def test_parse_subset_takes_ascii_digits_only(spec):
    with pytest.raises(UnsupportedType, match="cannot parse simple-root subset"):
        parse_subset(spec, rank=12)


@pytest.mark.parametrize(
    "spec",
    ["A\uff13", "A+3", "A 3", " A3", "A3 ", "A1_0", "A\u0663", "3A", ""]
    + [pytest.param("A" + "9" * 5000, id="A-5000-digits")],
)
def test_cartan_type_takes_ascii_digits_only(spec):
    # the last is past int()'s digit limit, which raised ValueError
    with pytest.raises(UnsupportedType, match="cannot parse Cartan type"):
        CartanType.parse(spec)
    assert CartanType.parse("c03") == CartanType("C", 3)


def test_subset_counts():
    rs = build(CartanType("C", 3))
    assert subset_count(rs, frozenset()) == 0
    assert subset_count(rs, delta(rs)) == 9
    assert subset_count(rs, frozenset({2, 3})) == 4


def test_subset_count_rejects_bad_indices():
    rs = build(CartanType("A", 2))
    with pytest.raises(UnsupportedType):
        subset_count(rs, frozenset({3}))
    with pytest.raises(UnsupportedType):
        subset_degrees(rs, frozenset({3}))


def test_warm_subset_memo_still_refuses_bad_indices():
    rs = build(CartanType("B", 4))
    for mask in range(2**rs.rank):
        subset_degrees(rs, frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1))
    size = len(rs._parts)
    for bad in ({0}, {rs.rank + 1}, {1, 2, rs.rank + 1}):
        with pytest.raises(UnsupportedType, match="outside 1..4"):
            subset_degrees(rs, frozenset(bad))
    # equal subsets built apart hit one memo entry
    first, second = frozenset([1, 2, 4]), frozenset(i for i in (4, 2, 1))
    assert first is not second
    masks = [rootsystem._subset_mask(rs, X) for X in (first, second)]
    assert rootsystem._mask_parts(rs, masks[0]) is rootsystem._mask_parts(rs, masks[1])
    assert subset_degrees(rs, second) == (2, 2, 3)
    assert len(rs._parts) == size


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
        assert subset_count(rs, X) == by_components
        assert sorted(
            d for comp in components(rs, X) for d in subset_degrees(rs, comp)
        ) == list(subset_degrees(rs, X))


def wrong_g2(degrees):
    """The degree table with G2 given (3, 5): still 6 positive roots, so
    only the degree check on the table's first read sees the error."""
    return lambda ct: (3, 5) if ct == CartanType("G", 2) else degrees(ct)


def test_build_checks_the_degree_table(monkeypatch):
    monkeypatch.setattr(rootsystem, "degrees", wrong_g2(rootsystem.degrees))
    with pytest.raises(InvariantViolation, match="G2"):
        build.__wrapped__(CartanType("G", 2)).positive_roots  # past the cache of build


OPTIMIZED_TABLE_CHECK = """
import sys
from monoid_orders import rootsystem
from monoid_orders.errors import InvariantViolation

if not sys.flags.optimize:
    sys.exit("not running under -O")
degrees = rootsystem.degrees
rootsystem.degrees = lambda ct: (3, 5) if str(ct) == "G2" else degrees(ct)
try:
    rootsystem.build(rootsystem.CartanType("G", 2)).positive_roots
except InvariantViolation:
    sys.exit(0)
sys.exit("a wrong degree table went unnoticed")
"""


def test_table_check_survives_optimize():
    # python -O strips assert statements; the table check must survive it
    src = os.path.dirname(os.path.dirname(rootsystem.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_TABLE_CHECK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def table(rs):
    """The root table's three slots, read as they stand: None throughout
    while the table is unread."""
    return rs._roots, rs._root_supports, rs._root_heights


@pytest.mark.parametrize("ct", ALL_TYPES, ids=str)
def test_diagram_enumerates_its_table_on_first_read(ct):
    # build's body, past its cache, gives a root system never read
    rs = build.__wrapped__(ct)
    assert table(rs) == (None, None, None) and rs.rank == ct.rank
    assert rs._neighbor_masks == build(ct)._neighbor_masks
    # the first read sets the whole table, as the cached build has it
    assert rs.positive_roots == build(ct).positive_roots
    assert table(rs) == table(build(ct))
    # so does the first read of the supports, by a degree query
    rs = build.__wrapped__(ct)
    assert rootsystem._mask_degrees(rs, 1) == (2,)
    assert table(rs) == table(build(ct))
    # the type alone gives equality, hashing, repr and replace, which read
    # no root, against a root system whose table is read
    fresh = build.__wrapped__(ct)
    assert fresh == build(ct) and hash(fresh) == hash(build(ct))
    assert repr(fresh) == repr(build(ct))
    assert fresh.replace() == build(ct)
    assert table(fresh) == (None, None, None)


def test_diagram_reads_no_table_for_its_masks(monkeypatch):
    def refuse(rs):
        raise AssertionError(f"{rs.cartan_type}'s roots were enumerated")

    monkeypatch.setattr(rootsystem, "_enumerate", refuse)
    rs = build.__wrapped__(CartanType("D", 100))
    assert rs.rank == 100 and neighbors(rs, 98) == {97, 99, 100}
    assert rootsystem._subset_mask(rs, frozenset({1, 100})) == 1 | 1 << 99
    assert table(rs) == (None, None, None)


def test_equality_hash_and_repr_read_no_root(monkeypatch):
    # C99's 9,801 roots: comparing two root systems or two lattices on them
    # compares their types, and enumerates none
    def refuse(rs):
        raise AssertionError(f"{rs.cartan_type}'s roots were enumerated")

    monkeypatch.setattr(rootsystem, "_enumerate", refuse)
    c99 = CartanType("C", 99)
    # build's body, past its cache, twice: two root systems never read
    rs, other = build.__wrapped__(c99), build.__wrapped__(c99)
    last = frozenset(range(1, 99))
    lat, other_lat = j_irreducible_lattice(rs, last), j_irreducible_lattice(other, last)
    assert rs == other and hash(rs) == hash(other) and repr(rs) == repr(other)
    assert repr(rs) == "RootSystemData(cartan_type=CartanType(family='C', rank=99))"
    assert rs != build.__wrapped__(CartanType("B", 99)) and rs == build(c99)
    assert lat == other_lat and hash(lat) == hash(other_lat)
    assert repr(lat) == repr(other_lat)
    assert table(rs) == table(other) == (None, None, None)


def test_diagram_checks_the_degree_table_on_first_read(monkeypatch):
    monkeypatch.setattr(rootsystem, "degrees", wrong_g2(rootsystem.degrees))
    g2 = CartanType("G", 2)
    rs = build.__wrapped__(g2)  # the construction alone reads no degree
    # a failed check leaves the table unset, so the next read fails too
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="G2"):
            rs.positive_roots
        assert table(rs) == (None, None, None) and not rs._parts
    with pytest.raises(InvariantViolation, match="G2"):
        rootsystem._mask_degrees(build.__wrapped__(g2), 0b11)
    # and the root count, read from the table too
    with pytest.raises(InvariantViolation, match="G2"):
        build.__wrapped__(g2).num_positive


OPTIMIZED_FIRST_READ_CHECK = """
import sys
from monoid_orders import rootsystem
from monoid_orders.errors import InvariantViolation

if not sys.flags.optimize:
    sys.exit("not running under -O")
degrees = rootsystem.degrees
rootsystem.degrees = lambda ct: (3, 5) if str(ct) == "G2" else degrees(ct)
g2 = rootsystem.CartanType("G", 2)
reads = {
    "positive_roots": lambda rs: rs.positive_roots,
    "_mask_degrees": lambda rs: rootsystem._mask_degrees(rs, 0b11),
}
for name, read in reads.items():
    try:
        read(rootsystem.build.__wrapped__(g2))
    except InvariantViolation as exc:
        if "G2" not in str(exc):
            sys.exit(f"{name}: the error does not name G2: {exc}")
    else:
        sys.exit(f"{name}: a wrong degree table went unnoticed")
"""


def test_first_read_check_survives_optimize():
    # python -O strips assert statements; the check on first read must survive it
    src = os.path.dirname(os.path.dirname(rootsystem.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_FIRST_READ_CHECK],
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


def test_poincare_factors_are_kept_per_degree_tuple():
    # equal degree tuples, however built, give the one product object
    first = poincare_factors((2, 4, 6))
    assert poincare_factors(tuple(range(2, 7, 2))) is first
    assert poincare_factors(degrees(CartanType("C", 3))) is first
    assert poincare_factors((2, 3, 4)) is not first
    assert expand(first) == poincare_product(CartanType("C", 3))


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


def reflection_closure(rs):
    """The positive roots by closing the simple roots and their negatives
    under every simple reflection, sorted by (height, root): the way build
    made them before it went by height, kept as the reference."""
    l = rs.rank

    def reflect(root, i):
        pairing = sum(c * a for c, a in zip(rs.cartan[i], root))
        out = list(root)
        out[i] -= pairing
        return tuple(out)

    simple = [tuple(int(j == i) for j in range(l)) for i in range(l)]
    seen = set(simple) | {tuple(-a for a in s) for s in simple}
    frontier = list(seen)
    while frontier:
        images = {reflect(root, i) for root in frontier for i in range(l)}
        frontier = list(images - seen)
        seen |= images
    positive = (r for r in seen if all(a >= 0 for a in r))
    return tuple(sorted(positive, key=lambda r: (sum(r), r)))


RANK_AT_MOST_8 = (
    [CartanType("A", l) for l in range(1, 9)]
    + [CartanType("B", l) for l in range(2, 9)]
    + [CartanType("C", l) for l in range(2, 9)]
    + [CartanType("D", l) for l in range(3, 9)]
    + [CartanType("E", l) for l in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


@pytest.mark.parametrize(
    "ct",
    RANK_AT_MOST_8 + [CartanType("C", 16), CartanType("D", 14), CartanType("C", 40)],
    ids=str,
)
def test_build_by_height_matches_reflection_closure(ct):
    assert build(ct).positive_roots == reflection_closure(build(ct))


def tuple_roots(ct):
    """(positive roots, the largest coefficient, pairing and steps down met)
    by the alpha-string rule on coefficient tuples, trying every direction
    of every root: the reference for build's packed byte fields."""
    l = ct.rank
    columns = list(zip(*rootsystem.cartan_matrix(ct)))
    level = {tuple(int(j == i) for j in range(l)): (columns[i], {}) for i in range(l)}
    positive, pairings_met, steps_met = [], set(), set()
    while level:
        positive += sorted(level)
        higher = {}
        for beta, (pairings, down) in level.items():
            pairings_met.update(pairings)
            steps_met.update(down.values())
            for i, pairing in enumerate(pairings):
                steps = down.get(i, 0)
                if steps > pairing:
                    root = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if root not in higher:
                        up = tuple(p + c for p, c in zip(pairings, columns[i]))
                        higher[root] = (up, {})
                    higher[root][1][i] = steps + 1
        level = higher
    return tuple(positive), pairings_met, steps_met


PACKED_BUILD_TYPES = (
    [CartanType("A", l) for l in range(1, 21)]
    + [CartanType("B", l) for l in range(2, 17)]
    + [CartanType("C", l) for l in range(2, 17)]
    + [CartanType("D", l) for l in range(4, 17)]
    + [CartanType("E", l) for l in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
    + [CartanType("C", 100), CartanType("D", 100)]  # |Phi+| * rank near the cap
)


@pytest.mark.parametrize("ct", PACKED_BUILD_TYPES, ids=str)
def test_packed_build_matches_tuple_roots(ct):
    roots, pairings_met, steps_met = tuple_roots(ct)
    rs = build(ct)
    assert rs.positive_roots == roots
    assert rs._root_supports == tuple(
        sum(1 << b for b, a in enumerate(r) if a) for r in roots
    )
    assert rs._root_heights == tuple(sum(r) for r in roots)
    # the 8-bit fields' headroom: no borrow or carry between fields
    assert max(max(r) for r in roots) <= 6
    assert pairings_met <= set(range(-3, 4))
    assert max(steps_met, default=0) <= 3


def direct_pass(rs, X):
    """(count, degrees) of W_X from one pass over every positive root."""
    inside = [
        root
        for root in rs.positive_roots
        if all(root[i - 1] == 0 for i in delta(rs) - X)
    ]
    counts = Counter(map(sum, inside)).values()
    ds = tuple(1 + sum(n >= k for n in counts) for k in range(len(X), 0, -1))
    return len(inside), ds


def all_subsets(rs):
    for mask in range(2**rs.rank):
        yield frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)


@pytest.mark.parametrize("ct", RANK_AT_MOST_8, ids=str)
def test_component_memo_equals_a_direct_pass(ct):
    rs = build.__wrapped__(ct)  # a fresh root system, its memo empty
    for X in all_subsets(rs):
        expected = direct_pass(rs, X)
        for _ in range(2):  # read from the roots, then from the memo
            assert subset_count(rs, X) == expected[0], sorted(X)
            assert subset_degrees(rs, X) == expected[1], sorted(X)


def is_connected(rs, X):
    return len(components(rs, X)) == 1


@pytest.mark.parametrize("spec", ["A6", "D6", "E7", "F4"])
def test_each_component_read_once_per_root_system(monkeypatch, spec):
    reads = []
    real = rootsystem._read_component
    monkeypatch.setattr(
        rootsystem,
        "_read_component",
        lambda rs, mask: reads.append(mask) or real(rs, mask),
    )
    rs = build.__wrapped__(CartanType.parse(spec))
    for X in list(all_subsets(rs)) * 2:
        subset_degrees(rs, X)
        subset_count(rs, X)
    connected = [X for X in all_subsets(rs) if X and is_connected(rs, X)]
    assert len(reads) == len(set(reads)) == len(connected)
    assert sorted(reads) == sorted(sum(1 << (i - 1) for i in X) for X in connected)


def test_interleaved_root_systems_keep_their_own_memo():
    # A4 and B4 share every subset mask; B4's long-short bond changes the
    # answer on each subset holding {3, 4}, so a shared memo would show
    a4, b4 = build(CartanType("A", 4)), build(CartanType("B", 4))
    for X in all_subsets(a4):
        for rs in (a4, b4, a4):
            assert (subset_count(rs, X), subset_degrees(rs, X)) == direct_pass(rs, X)
    assert subset_degrees(a4, frozenset({3, 4})) == (2, 3)
    assert subset_degrees(b4, frozenset({3, 4})) == (2, 4)


@pytest.mark.parametrize("spec", ["C80", "A120", "E8"])
def test_scale_targets_build_under_the_cap(spec):
    ct = CartanType.parse(spec)
    rs = build(ct)
    assert rs.num_positive * rs.rank <= rootsystem.BUILD_CAP
    assert rs.num_positive == sum(d - 1 for d in degrees(ct))


@pytest.mark.parametrize(
    "spec, size",
    [("A126", 126 * 127 // 2 * 126), ("C101", 101**3), ("A100000", 5000050000 * 100000)],
)
def test_oversize_type_refused_before_any_allocation(monkeypatch, spec, size):
    def untouchable(ct):
        raise AssertionError(f"{ct} reached the Cartan matrix or degree table")

    monkeypatch.setattr(rootsystem, "cartan_matrix", untouchable)
    monkeypatch.setattr(rootsystem, "degrees", untouchable)
    with pytest.raises(UnsupportedType, match=f"table of {size} entries exceeds the cap"):
        build.__wrapped__(CartanType.parse(spec))
    with pytest.raises(UnsupportedType, match=f"table of {size} entries exceeds the cap"):
        rootsystem.RootSystemData(CartanType.parse(spec))
