"""Cross-section lattice construction, the fundamental-weight lattices, and
validation."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from monoid_orders import crosssection
from monoid_orders.crosssection import (
    PAPER_VERIFIED,
    RULE_DERIVED,
    USER_SUPPLIED,
    fundamental_lattice,
    is_j_irreducible,
    j_irreducible_lattice,
    lattice_size,
    load_lattice,
    thm34_census,
    validate,
    CrossSectionLattice,
    LatticeEntry,
)
from monoid_orders.errors import (
    InvalidSupport,
    InvariantViolation,
    LatticeTooLarge,
    UnsupportedType,
)
from monoid_orders.rootsystem import CartanType, build
from subdiagrams import (
    components,
    entry,
    mask_of,
    neighbors,
    star,
    subset_degrees,
    substar,
)
from test_rootsystem import table


def shape(lat):
    """(lambda_star, lambda_substar, exponent) triples, zero entry first."""
    return [
        (sorted(star(e)), sorted(substar(e)), e.torus_index_exponent)
        for e in lat.entries
    ]


def test_c2_last_fundamental():
    lat = j_irreducible_lattice(build(CartanType("C", 2)), frozenset({1}))
    assert shape(lat) == [
        ([], [1, 2], 0),
        ([], [1], 1),
        ([2], [], 2),
        ([1, 2], [], 3),
    ]
    assert lat.provenance == PAPER_VERIFIED


def test_a1_empty_support():
    lat = j_irreducible_lattice(build(CartanType("A", 1)), frozenset())
    assert shape(lat) == [([], [1], 0), ([], [], 1), ([1], [], 2)]


def test_c3_last_fundamental():
    lat = j_irreducible_lattice(build(CartanType("C", 3)), frozenset({1, 2}))
    assert shape(lat) == [
        ([], [1, 2, 3], 0),
        ([], [1, 2], 1),
        ([3], [1], 2),
        ([2, 3], [], 3),
        ([1, 2, 3], [], 4),
    ]


@pytest.mark.parametrize("l", range(2, 9))
def test_last_fundamental_c_lattice_is_the_weight_support_lattice(l):
    lat = fundamental_lattice(CartanType("C", l), l)
    expected = j_irreducible_lattice(build(CartanType("C", l)), frozenset(range(1, l)))
    assert lat.entries == expected.entries
    assert lat.provenance == expected.provenance == PAPER_VERIFIED


def test_symplectic_lattice_sizes():
    assert len(fundamental_lattice(CartanType("C", 2), 2).entries) == 4
    lat3 = fundamental_lattice(CartanType("C", 3), 3)
    assert len(lat3.entries) == 5
    stars = [star(e) for e in lat3.entries if not lat3.is_zero(e)]
    # chain: each lambda* contains the previous one
    for small, large in zip(stars, stars[1:]):
        assert small < large


@pytest.mark.parametrize("l", range(2, 7))
def test_symplectic_listing_verbatim(l):
    lat = fundamental_lattice(CartanType("C", l), l)
    assert len(lat.entries) == l + 2
    expected = [([], list(range(1, l + 1)), 0)]  # zero
    expected.append(([], list(range(1, l)), 1))  # minimal nonzero, lambda* empty
    for r in range(1, l + 1):
        star = list(range(l - r + 1, l + 1))
        substar = list(range(1, l - r)) if r <= l - 2 else []
        expected.append((star, substar, r + 1))
    assert shape(lat) == expected


def test_symplectic_identity_entry():
    for l in (2, 4):
        lat = fundamental_lattice(CartanType("C", l), l)
        ident = lat.identity_entry
        assert substar(ident) == frozenset()
        assert ident.torus_index_exponent == l + 1
        assert lat.zero_entry.torus_index_exponent == 0


def test_generated_entries_respect_support_rule():
    cases = [
        ("B3", frozenset({2})),
        ("A4", frozenset({2, 3})),
        ("D4", frozenset({1, 3, 4})),
    ]
    for spec, j0 in cases:
        rs = build(CartanType.parse(spec))
        lat = j_irreducible_lattice(rs, j0)
        assert lat.provenance == RULE_DERIVED
        for e in lat.entries:
            if lat.is_zero(e):
                continue
            assert substar(e) <= j0
            for comp in components(rs, star(e)):
                assert not comp <= j0
            assert e.torus_index_exponent == len(star(e)) + 1


def test_invalid_support():
    rs = build(CartanType("A", 2))
    with pytest.raises(InvalidSupport):
        j_irreducible_lattice(rs, frozenset({1, 2}))


def test_load_lattice_round_trip():
    lat = fundamental_lattice(CartanType("C", 2), 2)
    raw = lat.to_json()
    loaded = load_lattice(lat.root_system, raw)
    assert loaded.entries == lat.entries
    assert loaded.torus_rank == lat.torus_rank
    assert loaded.provenance == USER_SUPPLIED


def test_load_lattice_rejects_overlap():
    rs = build(CartanType("A", 2))
    raw = {
        "type": "A2",
        "entries": [
            {"label": "0", "lambda_star": [], "lambda_substar": [1, 2], "torus_index_exponent": 0},
            {"label": "x", "lambda_star": [1], "lambda_substar": [1], "torus_index_exponent": 2},
            {"label": "1", "lambda_star": [1, 2], "lambda_substar": [], "torus_index_exponent": 3},
        ],
    }
    with pytest.raises(InvariantViolation, match="disjoint"):
        load_lattice(rs, raw)


def test_load_lattice_rejects_adjacency():
    rs = build(CartanType("A", 3))
    raw = {
        "type": "A3",
        "entries": [
            {"label": "0", "lambda_star": [], "lambda_substar": [1, 2, 3], "torus_index_exponent": 0},
            {"label": "x", "lambda_star": [1], "lambda_substar": [2], "torus_index_exponent": 2},
            {"label": "1", "lambda_star": [1, 2, 3], "lambda_substar": [], "torus_index_exponent": 4},
        ],
    }
    with pytest.raises(InvariantViolation, match="adjacent"):
        load_lattice(rs, raw)


def test_load_lattice_requires_zero_and_identity():
    rs = build(CartanType("A", 1))
    with pytest.raises(InvariantViolation, match="zero"):
        load_lattice(
            rs,
            {
                "entries": [
                    {"label": "1", "lambda_star": [1], "lambda_substar": [], "torus_index_exponent": 2}
                ]
            },
        )
    with pytest.raises(InvariantViolation, match="identity"):
        load_lattice(
            rs,
            {
                "entries": [
                    {"label": "0", "lambda_star": [], "lambda_substar": [1], "torus_index_exponent": 0}
                ]
            },
        )


def test_load_lattice_type_mismatch_and_bad_entries():
    rs = build(CartanType("A", 2))
    with pytest.raises(InvariantViolation, match="type"):
        load_lattice(rs, {"type": "C3", "entries": [{}]})
    with pytest.raises(InvariantViolation, match="malformed"):
        load_lattice(rs, {"type": "A2", "entries": [{"lambda_star": [1]}]})
    with pytest.raises(InvariantViolation, match="entries"):
        load_lattice(rs, {"type": "A2", "entries": []})


def test_validate_rejects_nonzero_entry_with_exponent_zero():
    # a second entry with empty lambda* and lambda_* would add 1 to |M|(1)
    rs = build(CartanType("A", 1))
    entries = (
        entry("0", (), {1}, 0),
        entry("e{}", (), (), 0),
        entry("1", {1}, (), 1),
    )
    lat = CrossSectionLattice(rs, entries, torus_rank=1)
    with pytest.raises(InvariantViolation, match="entry 'e{}': non-zero entry"):
        validate(lat)
    # with exponent 1 the same entry passes
    middle = entry("e{}", (), (), 1)
    validate(CrossSectionLattice(rs, (entries[0], middle, entries[2]), torus_rank=1))


def test_validate_rejects_exponent_above_torus_rank():
    rs = build(CartanType("A", 1))
    entries = (
        entry("0", (), {1}, 0),
        entry("1", {1}, (), 5),
    )
    lat = CrossSectionLattice(rs, entries, torus_rank=2)
    with pytest.raises(InvariantViolation, match="torus rank"):
        validate(lat)


def test_validate_rejects_duplicate_labels():
    rs = build(CartanType("A", 1))
    entries = (
        entry("e", (), {1}, 0),
        entry("e", {1}, (), 2),
    )
    with pytest.raises(InvariantViolation, match="duplicate"):
        validate(CrossSectionLattice(rs, entries, torus_rank=2))


def test_is_j_irreducible_flag():
    lat = fundamental_lattice(CartanType("C", 2), 2)
    assert is_j_irreducible(lat)
    tweaked = CrossSectionLattice(
        lat.root_system,
        tuple(
            LatticeEntry(e.label, e.star_mask, e.substar_mask, e.torus_index_exponent + (1 if lat.is_identity(e) else 0))
            for e in lat.entries
        ),
        torus_rank=lat.torus_rank + 1,
    )
    assert not is_j_irreducible(tweaked)


def scanned_shape(rs, J0):
    """The weight-support lattice by filtering all 2^rank subsets in
    itertools.combinations order, as shape() lists it."""
    delta = frozenset(range(1, rs.rank + 1))
    out = [([], sorted(delta), 0)]
    for size in range(rs.rank + 1):
        for combo in itertools.combinations(sorted(delta), size):
            X = frozenset(combo)
            if any(comp <= J0 for comp in components(rs, X)):
                continue
            near = frozenset().union(*(neighbors(rs, i) for i in X))
            out.append((list(combo), sorted(J0 - X - near), len(X) + 1))
    return out


def assert_grown_matches_scan(rs, J0):
    lat = j_irreducible_lattice(rs, J0)
    assert shape(lat) == scanned_shape(rs, J0), sorted(J0)
    assert lattice_size(rs, J0) == len(lat.entries)
    labels = [e.label for e in lat.entries[1:-1]]
    assert labels == ["e{" + ",".join(map(str, x)) + "}" for x, _, _ in shape(lat)[1:-1]]


SMALL_TYPES = (
    [f"A{l}" for l in range(1, 7)]
    + [f"B{l}" for l in range(2, 7)]
    + [f"C{l}" for l in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


# E7's node 2 hangs off node 4: with J0 = {2, 4}, X = {2, 4, 5} has one
# valid parent, {4, 5}, which grows it below its largest node.  Rank 7
# gives the stuck rule longer chains, and E8 arms of 1, 2 and 4 nodes off
# its branch node 4
@pytest.mark.parametrize("spec", SMALL_TYPES + ["E7", "A7", "B7", "C7", "D7", "E8"])
def test_grown_lattice_matches_subset_scan_for_every_support(spec):
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        assert_grown_matches_scan(
            rs, frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        )


@pytest.mark.parametrize("spec", SMALL_TYPES)
def test_fundamental_lattice_omits_one_simple_root(spec):
    ct = CartanType.parse(spec)
    rs = build(ct)
    delta = frozenset(range(1, ct.rank + 1))
    for i in delta:
        lat = fundamental_lattice(ct, i)
        expected = j_irreducible_lattice(rs, delta - {i})
        assert (lat.entries, lat.provenance) == (expected.entries, expected.provenance)
    with pytest.raises(LatticeTooLarge):
        fundamental_lattice(ct, 1, bound=0)


# the dense lattice-scan benchmark shapes: 4,097, 1,764 and 674 entries
LONG_SHAPES = {
    "A12": frozenset(),
    "B12": frozenset({1, 3, 5, 7, 9, 11}),
    "D10": frozenset({2, 4, 6, 8}),
}


@pytest.mark.parametrize("spec", ["A8", "C8", "D8", "E7", "E8", *LONG_SHAPES])
def test_grown_lattice_matches_subset_scan_on_a_sample(spec):
    rs = build(CartanType.parse(spec))
    delta = frozenset(range(1, rs.rank + 1))
    supports = [frozenset(), delta - {1}, delta - {rs.rank}, delta - {2, rs.rank - 1}]
    supports += [LONG_SHAPES[spec]] if spec in LONG_SHAPES else []
    rng = random.Random(spec)
    supports += [
        frozenset(rng.sample(sorted(delta), rng.randrange(rs.rank))) for _ in range(4)
    ]
    for J0 in dict.fromkeys(supports):  # A12's long shape J0 = {} comes first
        assert_grown_matches_scan(rs, J0)


def test_lattice_size_needs_no_generation():
    a40 = build(CartanType("A", 40))
    assert lattice_size(a40, frozenset()) == 2**40 + 1
    c40 = build(CartanType("C", 40))
    assert lattice_size(c40, frozenset(range(1, 40))) == 42


def test_lattice_too_large_under_a_small_bound():
    rs = build(CartanType("A", 3))
    # 2^3 subsets, the empty one and the zero entry are not grown
    assert len(j_irreducible_lattice(rs, frozenset(), bound=7).entries) == 9
    with pytest.raises(LatticeTooLarge, match="grows 7 .* exceeds the bound 6"):
        j_irreducible_lattice(rs, frozenset(), bound=6)


def test_lattice_too_large_by_default_before_any_work():
    with pytest.raises(LatticeTooLarge, match="1099511627775"):
        j_irreducible_lattice(build(CartanType("A", 40)), frozenset())


def listed_thm34_keys(rs, J0):
    """Each entry's thm34_products key, (lambda_* degrees, k, lambda* degrees),
    counted over the listed lattice."""
    return Counter(
        (
            subset_degrees(rs, substar(e)),
            e.torus_index_exponent,
            subset_degrees(rs, star(e)),
        )
        for e in j_irreducible_lattice(rs, J0).entries
    )


CENSUS_TYPES = (
    [f"A{l}" for l in range(1, 7)]
    + [f"B{l}" for l in range(2, 7)]
    + [f"C{l}" for l in range(3, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


def test_census_counts_the_listed_keys_on_every_support():
    supports = 0
    for spec in CENSUS_TYPES:
        rs = build(CartanType.parse(spec))
        for mask in range(2**rs.rank - 1):  # every J0 except Delta
            J0 = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
            assert thm34_census(rs, J0) == listed_thm34_keys(rs, J0), (spec, sorted(J0))
            supports += 1
    assert supports == 545


@pytest.mark.parametrize("spec, j0", [("D10", {2, 4, 6, 8}), ("E8", {1, 3, 5, 7})])
def test_census_counts_the_listed_keys_on_long_lattices(spec, j0):
    rs = build(CartanType.parse(spec))
    assert thm34_census(rs, frozenset(j0)) == listed_thm34_keys(rs, frozenset(j0))


@pytest.mark.parametrize(
    "spec, j0, keys", [("A20", {1}, 1282), ("B20", set(), 2032), ("D20", set(), 1725)]
)
def test_census_counts_every_entry_of_lattices_past_the_bound(spec, j0, keys):
    # 786,433 and 1,048,577 entries: more than the lattice bound would list
    rs = build(CartanType.parse(spec))
    census = thm34_census(rs, frozenset(j0))
    assert sum(census.values()) == lattice_size(rs, frozenset(j0))
    assert len(census) == keys


def test_census_bound_is_checked_at_every_node():
    rs = build(CartanType("A", 10))
    J0 = frozenset({1})
    with pytest.raises(
        LatticeTooLarge,
        match=r"A10 census for J0 = \[1\] holds 138 partial keys at node 1, "
        "which exceeds the bound 137",
    ):
        thm34_census(rs, J0, bound=137)
    assert sum(thm34_census(rs, J0, bound=138).values()) == lattice_size(rs, J0)
    with pytest.raises(LatticeTooLarge, match="holds 2 partial keys at node 10"):
        thm34_census(rs, J0, bound=1)


def test_census_refuses_the_supports_the_lattice_refuses():
    rs = build(CartanType("A", 3))
    with pytest.raises(InvalidSupport):
        thm34_census(rs, frozenset({1, 2, 3}))
    with pytest.raises(UnsupportedType):
        thm34_census(rs, frozenset({4}))


def test_symplectic_lattice_scale():
    lat = fundamental_lattice(CartanType("C", 40), 40)
    assert len(lat.entries) == 42
    assert lat.identity_entry.torus_index_exponent == 41
    assert shape(lat)[2] == ([40], list(range(1, 39)), 2)


def c2_description(**changes):
    raw = fundamental_lattice(CartanType("C", 2), 2).to_json()
    raw.update(changes)
    return raw


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lambda_substar", "12", "lambda_substar must be a list of integers"),
        ("lambda_star", [2.0], "lambda_star must be an integer"),
        ("lambda_substar", [True], "lambda_substar must be an integer"),
        ("torus_index_exponent", True, "torus_index_exponent must be an integer"),
        ("torus_index_exponent", "1", "torus_index_exponent must be an integer"),
        ("label", 7, "label must be a string"),
    ],
)
def test_load_lattice_rejects_coercible_entry_fields(field, value, message):
    raw = c2_description()
    raw["entries"][1][field] = value
    with pytest.raises(InvariantViolation, match=f"entry #1 is malformed: {message}"):
        load_lattice(build(CartanType("C", 2)), raw)


@pytest.mark.parametrize("torus_rank", ["x", "3", True, 3.0])
def test_load_lattice_rejects_non_integer_torus_rank(torus_rank):
    with pytest.raises(InvariantViolation, match="torus_rank must be an integer"):
        load_lattice(build(CartanType("C", 2)), c2_description(torus_rank=torus_rank))


def test_load_lattice_rejects_a_top_level_array():
    with pytest.raises(InvariantViolation, match="JSON object"):
        load_lattice(build(CartanType("C", 2)), c2_description()["entries"])


@pytest.mark.parametrize("i", [0, 4, -1])
def test_fundamental_lattice_refuses_an_index_outside_the_rank(monkeypatch, i):
    # refused before the root system is built, and not as J0 = Delta
    def no_build(ct):
        raise AssertionError("built a root system")

    monkeypatch.setattr(crosssection, "build", no_build)
    message = rf"^fundamental weight index {i} outside 1\.\.3$"
    with pytest.raises(UnsupportedType, match=message):
        fundamental_lattice(CartanType("C", 3), i)


def text_of(indices) -> str:
    return ",".join(map(str, sorted(indices)))


@pytest.mark.parametrize(
    "spec, J0",
    [
        ("A12", frozenset()),
        ("B12", frozenset({1, 3, 5, 7, 9, 11})),
        ("C16", frozenset(range(1, 16))),
        ("D14", frozenset(range(1, 14))),
    ],
)
def test_builder_stores_each_entry_index_text(spec, J0):
    lat = j_irreducible_lattice(build(CartanType.parse(spec)), J0)
    for e in lat.entries[1:]:  # the zero entry's are written by the constructor
        stored = e._star_text, e._substar_text
        assert stored == (text_of(star(e)), text_of(substar(e))), e.label
        assert e.index_text == stored
    zero = lat.entries[0]
    assert zero.index_text == ("", text_of(range(1, lat.rank + 1)))


def test_index_text_sorts_numerically():
    e = entry("x", {10, 9, 2}, {11, 1}, 4)
    assert e.index_text == ("2,9,10", "1,11")
    assert LatticeEntry("y", 0, 0, 1).index_text == ("", "")
    assert LatticeEntry("z", -1, -2, 1).index_text == ("", "")  # no finite bits


def test_index_text_changes_no_equality_hash_repr_or_replace():
    lat = j_irreducible_lattice(build(CartanType("B", 12)), LONG_SHAPES["B12"])
    loaded = load_lattice(lat.root_system, lat.to_json())
    for built, read in zip(lat.entries, loaded.entries):
        assert built == read and hash(built) == hash(read)
        assert repr(built) == repr(read)
        assert built.index_text == read.index_text
    e = lat.entries[5]
    assert repr(e) == (
        f"LatticeEntry(label={e.label!r}, star_mask={e.star_mask!r},"
        f" substar_mask={e.substar_mask!r},"
        f" torus_index_exponent={e.torus_index_exponent!r})"
    )
    changed = e.replace(star_mask=mask_of({12, 3}), label="z")
    assert (changed.label, star(changed)) == ("z", frozenset({3, 12}))
    assert changed.substar_mask == e.substar_mask
    assert changed.index_text == ("3,12", e.index_text[1])
    assert e.replace() == e
    with pytest.raises(AttributeError):
        e._star_text = "1"


@pytest.mark.parametrize("spec", ["A12", "B12", "C16", "D14", "E6", "F4"])
def test_entries_keep_both_halves_as_masks(spec):
    J0 = LONG_SHAPES.get(spec, frozenset({1, 3}))
    lat = j_irreducible_lattice(build(CartanType.parse(spec)), J0)
    loaded = load_lattice(lat.root_system, lat.to_json())
    assert lat.all_mask == mask_of(range(1, lat.rank + 1))
    for built, read in zip(lat.entries, loaded.entries):
        for e in (built, read):
            assert (text_of(star(e)), text_of(substar(e))) == built.index_text
            assert type(e.star_mask) is type(e.substar_mask) is int


def test_validate_reads_the_masks():
    rs = build(CartanType("A", 3))
    zero = entry("0", (), {1, 2, 3}, 0)
    one = entry("1", {1, 2, 3}, (), 4)
    cases = [
        (entry("x", {4}, (), 2), "outside 1..3"),
        (entry("x", (), {9}, 1), "outside 1..3"),
        # a negative int has no finite set of bits
        (LatticeEntry("x", -1, 0, 2), "outside 1..3"),
        (LatticeEntry("x", 0, -8, 1), "outside 1..3"),
        # the lowest offending root is named
        (
            entry("x", {2}, {1, 3}, 2),
            "root 1 in lambda_substar is adjacent to lambda_star",
        ),
    ]
    for bad, message in cases:
        lat = CrossSectionLattice(rs, (zero, bad, one), torus_rank=4)
        with pytest.raises(InvariantViolation, match=f"entry 'x': .*{message}"):
            validate(lat)
    ok = entry("x", {1}, {3}, 2)
    assert validate(CrossSectionLattice(rs, (zero, ok, one), torus_rank=4))


def test_a12_lattice_holds_under_400_bytes_per_entry():
    # a frozenset per entry alone takes 216 bytes, 728 from 5 indices on
    rs = build(CartanType("A", 12))
    tracemalloc.start()
    try:
        lat = j_irreducible_lattice(rs, frozenset())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(lat.entries)
    assert n == 2**12 + 1
    assert held <= 400 * n and peak <= 400 * n, (held / n, peak / n)


def root_free_supports():
    """Every J0 properly inside Delta of the small types, and both presets of
    E6-E8."""
    specs = [f"A{l}" for l in range(1, 7)] + [f"B{l}" for l in range(2, 6)]
    specs += [f"C{l}" for l in range(3, 6)] + [f"D{l}" for l in range(4, 7)] + ["F4", "G2"]
    for spec in specs:
        rank = CartanType.parse(spec).rank
        for mask in range(2**rank - 1):
            yield spec, frozenset(i + 1 for i in range(rank) if mask >> i & 1)
    for spec in ("E6", "E7", "E8"):
        rank = CartanType.parse(spec).rank
        for i in (1, rank):
            yield spec, frozenset(range(1, rank + 1)) - {i}


def test_lattices_on_the_diagram_equal_those_on_built_root_systems():
    supports = list(root_free_supports())
    assert len(supports) == 362
    for spec, J0 in supports:
        ct = CartanType.parse(spec)
        rs = build.__wrapped__(ct)  # past build's cache: a table never read
        lat = j_irreducible_lattice(rs, J0)
        assert build(ct).positive_roots  # the cached one's table read
        built = j_irreducible_lattice(build(ct), J0)
        assert lat.entries == built.entries, (spec, sorted(J0))
        assert (lat.torus_rank, lat.provenance) == (built.torus_rank, built.provenance)
        assert [e.index_text for e in lat.entries] == [e.index_text for e in built.entries]
        assert table(rs) == (None, None, None)
