"""Cross-section lattice construction, the symplectic listing, and validation."""

import itertools
import random

import pytest

from monoid_orders.crosssection import (
    PAPER_VERIFIED,
    RULE_DERIVED,
    USER_SUPPLIED,
    is_j_irreducible,
    j_irreducible_lattice,
    lattice_size,
    load_lattice,
    symplectic_lattice,
    validate,
    CrossSectionLattice,
    LatticeEntry,
)
from monoid_orders.errors import InvalidSupport, InvariantViolation, LatticeTooLarge
from monoid_orders.rootsystem import CartanType, build
from subdiagrams import components


def shape(lat):
    """(lambda_star, lambda_substar, exponent) triples, zero entry first."""
    return [
        (sorted(e.lambda_star), sorted(e.lambda_substar), e.torus_index_exponent)
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


def test_symplectic_lattice_sizes():
    assert len(symplectic_lattice(2).entries) == 4
    lat3 = symplectic_lattice(3)
    assert len(lat3.entries) == 5
    stars = [e.lambda_star for e in lat3.entries if not lat3.is_zero(e)]
    # chain: each lambda* contains the previous one
    for small, large in zip(stars, stars[1:]):
        assert small < large


@pytest.mark.parametrize("l", range(2, 7))
def test_symplectic_listing_verbatim(l):
    lat = symplectic_lattice(l)
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
        lat = symplectic_lattice(l)
        ident = lat.identity_entry
        assert ident.lambda_substar == frozenset()
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
            assert e.lambda_substar <= j0
            for comp in components(rs, e.lambda_star):
                assert not comp <= j0
            assert e.torus_index_exponent == len(e.lambda_star) + 1


def test_invalid_support():
    rs = build(CartanType("A", 2))
    with pytest.raises(InvalidSupport):
        j_irreducible_lattice(rs, frozenset({1, 2}))


def test_load_lattice_round_trip():
    lat = symplectic_lattice(2)
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
        LatticeEntry("0", frozenset(), frozenset({1}), 0),
        LatticeEntry("e{}", frozenset(), frozenset(), 0),
        LatticeEntry("1", frozenset({1}), frozenset(), 1),
    )
    lat = CrossSectionLattice(rs, entries, torus_rank=1)
    with pytest.raises(InvariantViolation, match="entry 'e{}': non-zero entry"):
        validate(lat)
    # with exponent 1 the same entry passes
    middle = LatticeEntry("e{}", frozenset(), frozenset(), 1)
    validate(CrossSectionLattice(rs, (entries[0], middle, entries[2]), torus_rank=1))


def test_validate_rejects_exponent_above_torus_rank():
    rs = build(CartanType("A", 1))
    entries = (
        LatticeEntry("0", frozenset(), frozenset({1}), 0),
        LatticeEntry("1", frozenset({1}), frozenset(), 5),
    )
    lat = CrossSectionLattice(rs, entries, torus_rank=2)
    with pytest.raises(InvariantViolation, match="torus rank"):
        validate(lat)


def test_validate_rejects_duplicate_labels():
    rs = build(CartanType("A", 1))
    entries = (
        LatticeEntry("e", frozenset(), frozenset({1}), 0),
        LatticeEntry("e", frozenset({1}), frozenset(), 2),
    )
    with pytest.raises(InvariantViolation, match="duplicate"):
        validate(CrossSectionLattice(rs, entries, torus_rank=2))


def test_is_j_irreducible_flag():
    lat = symplectic_lattice(2)
    assert is_j_irreducible(lat)
    tweaked = CrossSectionLattice(
        lat.root_system,
        tuple(
            LatticeEntry(e.label, e.lambda_star, e.lambda_substar, e.torus_index_exponent + (1 if lat.is_identity(e) else 0))
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
            near = frozenset().union(*(rs.neighbors(i) for i in X))
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


@pytest.mark.parametrize("spec", SMALL_TYPES)
def test_grown_lattice_matches_subset_scan_for_every_support(spec):
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        assert_grown_matches_scan(
            rs, frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        )


@pytest.mark.parametrize("spec", ["A8", "C8", "D8", "E7", "E8"])
def test_grown_lattice_matches_subset_scan_on_a_sample(spec):
    rs = build(CartanType.parse(spec))
    delta = frozenset(range(1, rs.rank + 1))
    supports = [frozenset(), delta - {1}, delta - {rs.rank}, delta - {2, rs.rank - 1}]
    rng = random.Random(spec)
    supports += [
        frozenset(rng.sample(sorted(delta), rng.randrange(rs.rank))) for _ in range(4)
    ]
    for J0 in supports:
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


def test_symplectic_lattice_scale():
    lat = symplectic_lattice(40)
    assert len(lat.entries) == 42
    assert lat.identity_entry.torus_index_exponent == 41
    assert shape(lat)[2] == ([40], list(range(1, 39)), 2)


def c2_description(**changes):
    raw = symplectic_lattice(2).to_json()
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
