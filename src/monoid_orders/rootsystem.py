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
components' groups, each read from the roots once per root system.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
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
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def parse(cls, spec: str) -> "CartanType":
        m = re.fullmatch(r"([A-Ga-g])(\d+)", spec.strip())
        if not m:
            raise UnsupportedType(f"cannot parse Cartan type {spec!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_subset(spec: str, rank: int | None = None) -> frozenset[int]:
    """Parse a simple-root index set from a comma list like "1,3,4"."""
    spec = spec.strip()
    if not spec:
        return frozenset()
    try:
        indices = [int(part) for part in spec.split(",")]
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
    query reads, derived once here, and the per-mask memos of _mask_parts;
    neither takes part in equality, hashing or repr."""

    _fields = ("cartan_type", "cartan", "positive_roots")
    __slots__ = _fields + (
        "_neighbors",
        "_neighbor_masks",
        "_node_bits",
        "_root_supports",
        "_root_heights",
        "_components",
        "_parts",
    )

    def __init__(
        self,
        cartan_type: CartanType,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[Root, ...],
    ):
        nodes = range(1, cartan_type.rank + 1)
        neighbors = tuple(
            frozenset(j for j in nodes if j != i and cartan[i - 1][j - 1])
            for i in nodes
        )
        # bit i-1 set when simple root i occurs in the positive root
        supports = (sum(1 << b for b, a in enumerate(r) if a) for r in positive_roots)
        for name, value in (
            ("cartan_type", cartan_type),
            ("cartan", cartan),
            ("positive_roots", positive_roots),
            ("_neighbors", neighbors),
            ("_neighbor_masks", tuple(sum(1 << (j - 1) for j in n) for n in neighbors)),
            ("_node_bits", {i: 1 << (i - 1) for i in nodes}),
            ("_root_supports", tuple(supports)),
            ("_root_heights", tuple(map(sum, positive_roots))),
            # connected mask -> (positive roots supported on it, degrees of W_mask)
            ("_components", {}),
            # subset mask -> the _components entries of its Dynkin components
            ("_parts", {}),
        ):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def adjacent(self, i: int, j: int) -> bool:
        """Dynkin adjacency of simple roots i, j (1-based)."""
        return i != j and self.cartan[i - 1][j - 1] != 0

    def neighbors(self, i: int) -> frozenset[int]:
        return self._neighbors[i - 1]


# Largest |Phi+| * rank build accepts: a memory cap, not an enumeration bound.
BUILD_CAP = 10**6


@lru_cache(maxsize=None)
def build(ct: CartanType) -> RootSystemData:
    """Construct the positive roots one height at a time.

    beta + alpha_i is a root exactly when p - <beta, alpha_i^vee> > 0, with
    p the steps down the alpha_i-string through beta (Humphreys, Lie
    Algebras, 9.4); each root carries its coroot pairings and its steps
    down, updated as it is extended.  A type whose |Phi+| * rank exceeds
    BUILD_CAP is refused with UnsupportedType before anything is allocated.
    The heights of the roots must give back the hand-entered degree table,
    or InvariantViolation: the table and the construction check each other.
    """
    l = ct.rank
    size = _root_count(ct) * l
    if size > BUILD_CAP:
        raise UnsupportedType(
            f"{ct} has {_root_count(ct)} positive roots of rank {l}: a root"
            f" table of {size} entries exceeds the cap {BUILD_CAP}"
        )
    cartan = cartan_matrix(ct)
    columns = list(zip(*cartan))  # column i: the pairings of alpha_i
    # root -> (its pairings <beta, alpha_k^vee>, {i: steps down along alpha_i})
    level = {tuple(int(j == i) for j in range(l)): (columns[i], {}) for i in range(l)}
    positive: list[Root] = []
    while level:
        positive += sorted(level)
        higher: dict[Root, tuple[tuple[int, ...], dict[int, int]]] = {}
        for beta, (pairings, down) in level.items():
            for i, pairing in enumerate(pairings):
                steps = down.get(i, 0)
                if steps > pairing:
                    root = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if root not in higher:
                        up = tuple(p + c for p, c in zip(pairings, columns[i]))
                        higher[root] = (up, {})
                    higher[root][1][i] = steps + 1
        level = higher
    rs = RootSystemData(ct, cartan, tuple(positive))
    found = subset_degrees(rs, frozenset(range(1, l + 1)))
    if found != degrees(ct):
        raise InvariantViolation(
            f"{ct} root heights give degrees {found}, the table has {degrees(ct)}"
        )
    return rs


def _subset_mask(rs: RootSystemData, X: frozenset[int]) -> int:
    """X as a mask with node i at bit i - 1, summed from the node bits,
    whose KeyError is the range check."""
    try:
        return sum(map(rs._node_bits.__getitem__, X))
    except KeyError:
        raise UnsupportedType(f"subset {sorted(X)} outside 1..{rs.rank}") from None


def _subset_parts(rs: RootSystemData, X: frozenset[int]) -> tuple:
    """(positive-root count, degrees) of each Dynkin component of X."""
    return _mask_parts(rs, _subset_mask(rs, X))


def _mask_parts(rs: RootSystemData, mask: int) -> tuple:
    """_subset_parts of a subset mask, kept per mask; each component is read
    from the roots the first time any subset of this root system meets it.
    Frozenset keys would keep every subset asked for alive: thm31 on C40
    peaked at 60 MB, not 30."""
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
    heights = [h for s, h in zip(rs._root_supports, rs._root_heights) if not s & ~mask]
    counts = Counter(heights).values()
    ranks = range(bin(mask).count("1"), 0, -1)
    return len(heights), tuple(1 + sum(n >= k for n in counts) for k in ranks)


def positive_count_of_subset(rs: RootSystemData, X: frozenset[int]) -> int:
    """Number of positive roots supported entirely on the subset X: the sum
    over its Dynkin components of the roots counted on each."""
    return sum(count for count, _ in _subset_parts(rs, X))


def subset_degrees(rs: RootSystemData, X: frozenset[int]) -> tuple[int, ...]:
    """Degrees of the basic invariants of the parabolic subgroup W_X, in
    increasing order: W_X is the direct product of its components' groups,
    so its degrees are the union of theirs."""
    return tuple(sorted(d for _, ds in _subset_parts(rs, X) for d in ds))


def poincare_factors(ds: tuple[int, ...]) -> QProduct:
    """Length generating polynomial of a Weyl group with degrees ds, as the
    factored product prod (q^d - 1)/(q - 1)."""
    return QProduct.of(ds) / QProduct.of([1] * len(ds))


def poincare_product(ct: CartanType) -> QPolynomial:
    """Length generating polynomial of the Weyl group, as a degree product."""
    return expand(poincare_factors(degrees(ct)))

