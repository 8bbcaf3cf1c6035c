"""Root systems for the Cartan families A-G.

Roots are integer coefficient vectors over the simple roots, generated one
height at a time from the Cartan matrix, so the support of a root (which
simple roots it involves) is literally its set of nonzero positions, and its
height is the sum of its coordinates.  That is the only geometric
information the order formulas consume: positive-root counts of subsets,
Dynkin adjacency, and the degrees of the basic polynomial invariants of every
parabolic subgroup W_X, read from the heights of the roots supported on X
(Kostant 1959; Humphreys, Reflection Groups and Coxeter Groups, 3.20), so no
sub-diagram is ever classified.  W_X is the direct product of its Dynkin
components' groups, each read from the roots once per root system.  The
Dynkin diagram alone (diagram) gives the adjacency masks the lattices read;
the roots are enumerated on the first read of the root table, which build
makes at once.

_enumerate packs a root, its coroot pairings (biased by 64) and its steps
down the alpha_i-strings into one int each, an 8-bit field per node with
node 1 the most significant, so int order is tuple order.  8 bits hold a
coefficient (at most 6, E8's highest root), a pairing (-3..3) and a
string's steps down (at most 3, G2) with room to spare.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import compress
from math import prod

from .errors import InvariantViolation, UnsupportedType
from .qpoly import Immutable, QPolynomial, QProduct, expand

Root = tuple[int, ...]

# Minimum rank per family; C2 and D3 are accepted as aliases of B2 and A3.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "F": (4, 4),
    "G": (2, 2),
}


class CartanType(Immutable):
    __slots__ = _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family == "E":
            if rank not in (6, 7, 8):
                raise UnsupportedType(f"E{rank} is not a valid type")
        elif family not in _RANK_RANGE:
            raise UnsupportedType(f"unknown family {family!r}")
        else:
            lo, hi = _RANK_RANGE[family]
            if rank < lo or (hi is not None and rank > hi):
                raise UnsupportedType(f"{family}{rank} is not a valid type")
        super().__init__(family, rank)

    @classmethod
    def parse(cls, spec: str) -> "CartanType":
        """A family letter and a rank in ASCII decimal digits, like "C4" or
        "e8"; nothing else, whitespace included, is read."""
        family, digits = spec[:1], spec[1:]
        try:
            if not family or family not in "ABCDEFGabcdefg":
                raise ValueError(spec)
            rank = parse_digits(digits)
        except ValueError:
            raise UnsupportedType(f"cannot parse Cartan type {spec!r}") from None
        return cls(family.upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_digits(text: str) -> int:
    """text as an int if it is ASCII decimal digits only, else ValueError:
    int() alone would take "-5", "1_6", " 2" and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)  # ValueError past Python's str-to-int digit limit


def parse_subset(spec: str, rank: int | None = None) -> frozenset[int]:
    """Parse a simple-root index set from a comma list like "1,3,4", each
    index ASCII decimal digits only; the empty string is the empty set."""
    if not spec:
        return frozenset()
    try:
        indices = [parse_digits(part) for part in spec.split(",")]
    except ValueError:
        raise UnsupportedType(f"cannot parse simple-root subset {spec!r}") from None
    if len(set(indices)) != len(indices):
        raise UnsupportedType(f"subset {spec!r} repeats an index")
    if rank is not None and not all(1 <= i <= rank for i in indices):
        raise UnsupportedType(f"subset {spec!r} has indices outside 1..{rank}")
    return frozenset(indices)


def degrees(ct: CartanType) -> tuple[int, ...]:
    """Degrees of the basic polynomial invariants of the Weyl group."""
    l = ct.rank
    if ct.family == "A":
        return tuple(range(2, l + 2))
    if ct.family in ("B", "C"):
        return tuple(range(2, 2 * l + 1, 2))
    if ct.family == "D":
        return tuple(sorted(list(range(2, 2 * l - 1, 2)) + [l]))
    return {
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
        ("F", 4): (2, 6, 8, 12),
        ("G", 2): (2, 6),
    }[(ct.family, l)]


def _root_count(ct: CartanType) -> int:
    """|Phi+| in closed form, with nothing of the rank's size allocated."""
    l = ct.rank
    closed = {"A": l * (l + 1) // 2, "B": l * l, "C": l * l, "D": l * (l - 1)}
    return closed.get(ct.family) or sum(degrees(ct)) - l  # E, F, G: rank <= 8


def weyl_order(ct: CartanType) -> int:
    """|W| = product of the invariant degrees."""
    return prod(degrees(ct))


def cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """Matrix c with c[i][j] = <alpha_j, alpha_i^vee> (0-based indices)."""
    l = ct.rank
    c = [[0] * l for _ in range(l)]
    for i in range(l):
        c[i][i] = 2

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    fam = ct.family
    if fam in ("A", "B", "C", "F"):
        for i in range(l - 1):
            edge(i, i + 1)
        if fam == "B":
            edge(l - 2, l - 1, -1, -2)  # alpha_l short
        elif fam == "C":
            edge(l - 2, l - 1, -2, -1)  # alpha_l long
        elif fam == "F":
            edge(1, 2, -1, -2)  # alpha_2 long, alpha_3 short
    elif fam == "D":
        for i in range(l - 2):
            edge(i, i + 1)
        edge(l - 3, l - 1)
    elif fam == "E":
        chain = [0] + list(range(2, l))
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif fam == "G":
        edge(0, 1, -3, -1)  # alpha_1 short
    return tuple(tuple(row) for row in c)


class RootSystemData(Immutable):
    """The positive roots of a Cartan type, with the tables every subset
    query reads, derived as masks with node i at bit i - 1 (node bits and
    neighbours here, root supports with the roots), the per-mask memos of
    _mask_parts, and the maximal-parabolic walks of weyl._walk with their
    field layout; none takes part in equality, hashing or repr.  Given no
    roots, the root table (_roots, _root_supports, _root_heights) is None
    until its first read, through positive_roots or _read_component."""

    _fields = ("cartan_type", "cartan", "positive_roots")
    __slots__ = _fields[:2] + (
        "_roots",
        "_neighbor_masks",
        "_node_bits",
        "_root_supports",
        "_root_heights",
        "_components",
        "_parts",
        "_walks",
        "_packing",
    )

    def __init__(
        self,
        cartan_type: CartanType,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: Iterable[Root | bytes] | None,
    ):
        """Each root's coefficients as a tuple or bytes, kept as tuples; None: unread."""
        bits = [1 << i for i in range(cartan_type.rank)]  # node i + 1's bit
        # each node's neighbours: the nonzero off-diagonal entries of its row
        near = [sum(compress(bits, row)) - bit for bit, row in zip(bits, cartan)]
        super().__init__(cartan_type, cartan, positive_roots)
        for name, value in (
            ("_neighbor_masks", tuple(near)),
            ("_node_bits", dict(enumerate(bits, 1))),
            # connected mask -> (positive roots supported on it, degrees of W_mask)
            ("_components", {}),
            # subset mask -> the _components entries of its Dynkin components
            ("_parts", {}),
            # (gens, fixed) mask pair -> the walked coset sum W_gens / W_fixed
            ("_walks", {}),
            # weyl._packing's field layout, set on the first walk
            ("_packing", None),
        ):
            object.__setattr__(self, name, value)

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        """Each positive root's coefficients, enumerated on the first read."""
        return _enumerate(self)._roots if self._roots is None else self._roots

    @positive_roots.setter
    def positive_roots(self, positive_roots: Iterable[Root | bytes] | None) -> None:
        """The root table from each root's coefficients, or None throughout."""
        table = None, None, None
        if positive_roots is not None:
            raw = list(map(bytes, positive_roots))
            # bit i-1 set when simple root i occurs: nonzero bytes as binary digits
            supports = [int(r.translate(b"0" + b"1" * 255)[::-1], 2) for r in raw]
            table = tuple(map(tuple, raw)), tuple(supports), tuple(map(sum, raw))
        for name, value in zip(("_roots", "_root_supports", "_root_heights"), table):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(_mask_indices(self._neighbor_masks[i - 1]))


# Largest |Phi+| * rank diagram accepts: a memory cap, not an enumeration bound.
BUILD_CAP = 10**6


def diagram(ct: CartanType) -> RootSystemData:
    """ct's root system in O(rank^2), kept nowhere, its root table unread;
    UnsupportedType first if |Phi+| * rank exceeds BUILD_CAP."""
    l = ct.rank
    size = _root_count(ct) * l
    if size > BUILD_CAP:
        raise UnsupportedType(
            f"{ct} has {_root_count(ct)} positive roots of rank {l}: a root"
            f" table of {size} entries exceeds the cap {BUILD_CAP}"
        )
    return RootSystemData(ct, cartan_matrix(ct), None)


@lru_cache(maxsize=None)
def build(ct: CartanType) -> RootSystemData:
    """diagram(ct) with its root table read at once (_enumerate), kept per type."""
    return _enumerate(diagram(ct))


def _enumerate(rs: RootSystemData) -> RootSystemData:
    """rs with its root table set: the positive roots one height at a time.

    beta + alpha_i is a root exactly when p - <beta, alpha_i^vee> > 0, with
    p the steps down the alpha_i-string through beta (Humphreys, Lie
    Algebras, 9.4).  On the module's packed fields, field i of
    down - pairings + 191 is p - <beta, alpha_i^vee> + 127, with no borrow
    between fields, so its top bit says whether beta grows along alpha_i;
    only those bits are visited, and beta + alpha_i, its pairings and its
    steps down are one add each.  The heights of the roots must give back
    the hand-entered degree table, or InvariantViolation leaves rs unread:
    the table and the construction check each other.
    """
    ct, l = rs.cartan_type, rs.rank
    units = [1 << 8 * (l - 1 - i) for i in range(l)]
    ones = sum(units)
    # alpha_i's (unit, field mask, packed Cartan column) at l - i (0-based
    # i), the bit length of its field's top bit over 8
    simple = [()] * (l + 1)
    for i, unit in enumerate(units):
        column = sum(row[i] * u for row, u in zip(rs.cartan, units))
        simple[l - i] = (unit, 255 * unit, column)
    tops, grows = 128 * ones, 191 * ones
    # root -> [its biased pairings, its steps down]
    level = {unit: [column + 64 * ones, 0] for unit, _, column in simple[1:]}
    positive: list[int] = []
    while level:
        positive += sorted(level)
        higher: dict[int, list[int]] = {}
        for beta, (pairings, down) in level.items():
            grows_along = (down - pairings + grows) & tops
            while grows_along:
                top = grows_along & -grows_along
                grows_along ^= top
                unit, field, column = simple[top.bit_length() >> 3]
                further = (down & field) + unit  # one more step down alpha_i
                higher.setdefault(beta + unit, [pairings + column, 0])[1] += further
        level = higher
    roots = [beta.to_bytes(l, "big") for beta in positive]
    object.__setattr__(rs, "positive_roots", roots)  # its setter writes the table
    full = (1 << l) - 1
    part = _read_component(rs, full)  # the diagram is connected
    if part[1] != degrees(ct):
        object.__setattr__(rs, "positive_roots", None)
        raise InvariantViolation(
            f"{ct} root heights give degrees {part[1]}, the table has {degrees(ct)}"
        )
    rs._parts[full] = (rs._components.setdefault(full, part),)
    return rs


def _subset_mask(rs: RootSystemData, X: frozenset[int]) -> int:
    """X as a mask with node i at bit i - 1, summed from the node bits,
    whose KeyError is the range check."""
    try:
        return sum(map(rs._node_bits.__getitem__, X))
    except KeyError:
        raise UnsupportedType(f"subset {sorted(X)} outside 1..{rs.rank}") from None


def _mask_indices(mask: int) -> list[int]:
    """The nodes of a mask with node i at bit i - 1, in increasing order;
    none for a negative mask, which has no finite set of bits."""
    nodes = []
    while mask > 0:
        low = mask & -mask
        nodes.append(low.bit_length())
        mask ^= low
    return nodes


def _mask_parts(rs: RootSystemData, mask: int) -> tuple:
    """(positive-root count, degrees) of each Dynkin component of a subset
    mask, kept per mask; each component is read from the roots the first
    time any subset of this root system meets it.  Frozenset keys would
    keep every subset asked for alive: thm31 on C40 peaked at 60 MB, not
    30."""
    parts = rs._parts.get(mask)
    if parts is None:
        found = []
        for comp in _flood_fill(rs, mask):
            if comp not in rs._components:
                rs._components[comp] = _read_component(rs, comp)
            found.append(rs._components[comp])
        parts = rs._parts[mask] = tuple(found)
    return parts


def _flood_fill(rs: RootSystemData, rest: int) -> Iterator[int]:
    """The Dynkin components of a subset mask, as masks, each grown from its
    lowest node over the neighbour masks."""
    while rest:
        comp, todo = 0, rest & -rest
        while todo:
            low = todo & -todo
            comp |= low
            todo = (todo | rs._neighbor_masks[low.bit_length() - 1] & rest) & ~comp
        rest &= ~comp
        yield comp


def _read_component(rs: RootSystemData, mask: int) -> tuple[int, tuple[int, ...]]:
    """(count, degrees) of the n_h positive roots of each height h supported
    on mask: the exponents of W_mask are the parts of the partition dual to
    (n_1, n_2, ...), and each degree is an exponent plus one."""
    if rs._root_supports is None:  # the table's first read
        _enumerate(rs)
    heights = [h for s, h in zip(rs._root_supports, rs._root_heights) if not s & ~mask]
    counts = sorted(Counter(heights).values())
    ranks = range(bin(mask).count("1"), 0, -1)
    return len(heights), tuple(1 + len(counts) - bisect_left(counts, k) for k in ranks)


def _mask_count(rs: RootSystemData, mask: int) -> int:
    """Number of positive roots supported entirely on a subset mask: the
    sum over its Dynkin components of the roots counted on each."""
    return sum(count for count, _ in _mask_parts(rs, mask))


def _mask_degrees(rs: RootSystemData, mask: int) -> tuple[int, ...]:
    """Degrees of the parabolic subgroup W_mask, in increasing order: the
    union of its Dynkin components' degrees."""
    return tuple(sorted(d for _, ds in _mask_parts(rs, mask) for d in ds))


@lru_cache(maxsize=None)
def poincare_factors(ds: tuple[int, ...]) -> QProduct:
    """Length generating polynomial of a Weyl group with degrees ds, as the
    factored product prod (q^d - 1)/(q - 1), kept per degree tuple."""
    return QProduct.of(ds) / QProduct.of([1] * len(ds))


def poincare_product(ct: CartanType) -> QPolynomial:
    """Length generating polynomial of the Weyl group, as a degree product."""
    return expand(poincare_factors(degrees(ct)))

