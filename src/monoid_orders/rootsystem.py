"""Root systems for the Cartan families A-G.

Roots are integer coefficient vectors over the simple roots, generated by
reflection closure from the Cartan matrix, so the support of a root (which
simple roots it involves) is literally its set of nonzero positions, and its
height is the sum of its coordinates.  That is the only geometric
information the order formulas consume: positive-root counts of subsets,
Dynkin adjacency, and the degrees of the basic polynomial invariants of every
parabolic subgroup W_X, read from the heights of the roots supported on X
(Kostant 1959; Humphreys, Reflection Groups and Coxeter Groups, 3.20), so no
sub-diagram is ever classified.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

from .errors import InvariantViolation, UnsupportedType
from .qpoly import QPolynomial, QProduct, expand

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


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        fam, l = self.family, self.rank
        if fam == "E":
            if l not in (6, 7, 8):
                raise UnsupportedType(f"E{l} is not a valid type")
            return
        if fam not in _RANK_RANGE:
            raise UnsupportedType(f"unknown family {fam!r}")
        lo, hi = _RANK_RANGE[fam]
        if l < lo or (hi is not None and l > hi):
            raise UnsupportedType(f"{fam}{l} is not a valid type")

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
        indices = frozenset(int(part) for part in spec.split(","))
    except ValueError:
        raise UnsupportedType(f"cannot parse simple-root subset {spec!r}") from None
    if rank is not None and not all(1 <= i <= rank for i in indices):
        raise UnsupportedType(f"subset {spec!r} has indices outside 1..{rank}")
    return indices


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


@dataclass(frozen=True)
class RootSystemData:
    cartan_type: CartanType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def adjacent(self, i: int, j: int) -> bool:
        """Dynkin adjacency of simple roots i, j (1-based)."""
        return i != j and self.cartan[i - 1][j - 1] != 0

    @cached_property
    def _neighbors(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(j for j in range(1, self.rank + 1) if self.adjacent(i, j))
            for i in range(1, self.rank + 1)
        )

    @cached_property
    def _root_supports(self) -> tuple[int, ...]:
        # bit i-1 set when simple root i occurs in the positive root
        return tuple(
            sum(1 << b for b, a in enumerate(root) if a) for root in self.positive_roots
        )

    @cached_property
    def _root_heights(self) -> tuple[int, ...]:
        return tuple(map(sum, self.positive_roots))

    def neighbors(self, i: int) -> frozenset[int]:
        return self._neighbors[i - 1]

    def reflect(self, root: Root, i: int) -> Root:
        """Apply the simple reflection s_i (1-based) to a root."""
        row = self.cartan[i - 1]
        pairing = sum(c * a for c, a in zip(row, root))
        out = list(root)
        out[i - 1] -= pairing
        return tuple(out)


def _check_subset(rs: RootSystemData, X: frozenset[int]) -> None:
    if not all(1 <= i <= rs.rank for i in X):
        raise UnsupportedType(f"subset {sorted(X)} outside 1..{rs.rank}")


@lru_cache(maxsize=None)
def build(ct: CartanType) -> RootSystemData:
    """Construct the full positive root list by reflection closure.

    The heights of the roots must give back the hand-entered degree table,
    or InvariantViolation: the table and the closure check each other.
    """
    l = ct.rank
    cartan = cartan_matrix(ct)
    simple = tuple(
        tuple(1 if j == i else 0 for j in range(l)) for i in range(l)
    )
    rs = RootSystemData(ct, cartan, simple)
    seen = set(simple) | {tuple(-a for a in s) for s in simple}
    frontier = list(seen)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(1, l + 1):
                image = rs.reflect(root, i)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    positive = sorted(
        (r for r in seen if all(a >= 0 for a in r)),
        key=lambda r: (sum(r), r),
    )
    rs = RootSystemData(ct, cartan, tuple(positive))
    found = subset_degrees(rs, frozenset(range(1, l + 1)))
    if found != degrees(ct):
        raise InvariantViolation(
            f"{ct} root heights give degrees {found}, the table has {degrees(ct)}"
        )
    return rs


def positive_count_of_subset(rs: RootSystemData, X: frozenset[int]) -> int:
    """Number of positive roots supported entirely on the subset X."""
    _check_subset(rs, X)
    outside = ~sum(1 << (i - 1) for i in X)
    return sum(1 for support in rs._root_supports if not support & outside)


def subset_degrees(rs: RootSystemData, X: frozenset[int]) -> tuple[int, ...]:
    """Degrees of the basic invariants of the parabolic subgroup W_X, in
    increasing order.

    With n_h positive roots of height h supported on X, the exponents of W_X
    are the parts of the partition dual to (n_1, n_2, ...), the k-th being
    the number of heights h with n_h >= k; each degree is an exponent plus
    one.  This holds for every X, connected or not, since the counts n_h of
    disjoint components add.
    """
    _check_subset(rs, X)
    outside = ~sum(1 << (i - 1) for i in X)
    heights = [
        height
        for support, height in zip(rs._root_supports, rs._root_heights)
        if not support & outside
    ]
    counts = Counter(heights).values()
    return tuple(1 + sum(n >= k for n in counts) for k in range(len(X), 0, -1))


def poincare_factors(ds: tuple[int, ...]) -> QProduct:
    """Length generating polynomial of a Weyl group with degrees ds, as the
    factored product prod (q^d - 1)/(q - 1)."""
    return QProduct.of(ds) / QProduct.of([1] * len(ds))


def poincare_product(ct: CartanType) -> QPolynomial:
    """Length generating polynomial of the Weyl group, as a degree product."""
    return expand(poincare_factors(degrees(ct)))

