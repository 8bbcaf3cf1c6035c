"""Root systems for the Cartan families A-G.

Roots are integer coefficient vectors over the simple roots, generated by
reflection closure from the Cartan matrix, so the support of a root (which
simple roots it involves) is literally its set of nonzero positions.  That is
the only geometric information the order formulas consume: positive-root
counts of subsets, Dynkin adjacency, component classification, and the
degrees of the basic polynomial invariants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .errors import ClassificationFailure, InvariantViolation, UnsupportedType
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


def positive_root_count(ct: CartanType) -> int:
    """Number of positive roots, equal to sum of (d_i - 1)."""
    return sum(d - 1 for d in degrees(ct))


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
    simple_roots: tuple[Root, ...]
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

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(
            j for j in range(1, self.rank + 1) if self.adjacent(i, j)
        )

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
    """Construct the full positive root list by reflection closure."""
    l = ct.rank
    cartan = cartan_matrix(ct)
    simple = tuple(
        tuple(1 if j == i else 0 for j in range(l)) for i in range(l)
    )
    rs = RootSystemData(ct, cartan, simple, simple)
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
    if len(positive) != positive_root_count(ct):
        raise InvariantViolation(
            f"{ct} closure gave {len(positive)} positive roots, "
            f"expected {positive_root_count(ct)}"
        )
    return RootSystemData(ct, cartan, simple, tuple(positive))


def positive_count_of_subset(rs: RootSystemData, X: frozenset[int]) -> int:
    """Number of positive roots supported entirely on the subset X."""
    _check_subset(rs, X)
    return sum(
        1
        for root in rs.positive_roots
        if all(root[i - 1] == 0 for i in range(1, rs.rank + 1) if i not in X)
    )


def _component_indices(rs: RootSystemData, X: frozenset[int]) -> list[frozenset[int]]:
    remaining = set(X)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in rs.neighbors(i):
                if j in remaining and j not in comp:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def _classify(rs: RootSystemData, comp: frozenset[int]) -> CartanType:
    nodes = sorted(comp)
    m = len(nodes)
    if m == 1:
        return CartanType("A", 1)
    c = rs.cartan
    adj = {i: [j for j in nodes if rs.adjacent(i, j)] for i in nodes}
    weights = {
        (i, j): c[i - 1][j - 1] * c[j - 1][i - 1]
        for i in nodes
        for j in adj[i]
        if i < j
    }
    if any(w == 3 for w in weights.values()):
        if m == 2:
            return CartanType("G", 2)
        raise ClassificationFailure(f"triple edge in rank-{m} component {nodes}")

    branch = [i for i in nodes if len(adj[i]) >= 3]
    if any(len(adj[i]) > 3 for i in nodes) or len(branch) > 1:
        raise ClassificationFailure(f"component {nodes} is not a Dynkin diagram")

    doubles = [e for e, w in weights.items() if w == 2]
    if doubles:
        if len(doubles) > 1 or branch:
            raise ClassificationFailure(f"component {nodes} is not a Dynkin diagram")
        if m == 2:
            return CartanType("B", 2)
        ends = [i for i in nodes if len(adj[i]) == 1]
        (a, b) = doubles[0]
        terminal = a if a in ends else b if b in ends else None
        if terminal is None:
            # double edge interior to the path
            if m == 4:
                return CartanType("F", 4)
            raise ClassificationFailure(f"component {nodes} is not a Dynkin diagram")
        other = b if terminal == a else a
        # row of the short root carries the -2 entry
        if c[terminal - 1][other - 1] == -2:
            return CartanType("B", m)
        return CartanType("C", m)

    if not branch:
        return CartanType("A", m)

    # simply-laced with one branch node: arm lengths decide D vs E
    center = branch[0]
    arms = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nexts = [j for j in adj[cur] if j != prev]
            if not nexts:
                break
            prev, cur = cur, nexts[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return CartanType("D", m)
    if arms == [1, 2, 2]:
        return CartanType("E", 6)
    if arms == [1, 2, 3]:
        return CartanType("E", 7)
    if arms == [1, 2, 4]:
        return CartanType("E", 8)
    raise ClassificationFailure(f"component {nodes} has arm lengths {arms}")


def connected_components(
    rs: RootSystemData, X: frozenset[int]
) -> list[tuple[frozenset[int], CartanType]]:
    """Partition X into Dynkin-connected components, each classified by type.

    Doubly-laced components are tagged B or C by arrow orientation (short
    root at the terminal end gives B); the two tags have identical degrees
    and positive-root counts, so every order computation treats them alike.
    """
    _check_subset(rs, X)
    return [(comp, _classify(rs, comp)) for comp in _component_indices(rs, X)]


def poincare_factors(ct: CartanType) -> QProduct:
    """Length generating polynomial of the Weyl group, as the factored
    degree product prod (q^d - 1)/(q - 1)."""
    ds = degrees(ct)
    return QProduct.of(ds) / QProduct.of([1] * len(ds))


def poincare_product(ct: CartanType) -> QPolynomial:
    """Length generating polynomial of the Weyl group, as a degree product."""
    return expand(poincare_factors(ct))


def subset_poincare(rs: RootSystemData, X: frozenset[int]) -> QPolynomial:
    """Length generating polynomial of the parabolic subgroup W_X."""
    result = QProduct()
    for _, ct in connected_components(rs, X):
        result = result * poincare_factors(ct)
    return expand(result)
