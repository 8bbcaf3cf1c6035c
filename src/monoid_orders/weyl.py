"""Brute-force Weyl group enumeration at small rank.

Elements are stored as permutations of the full root list (positive roots
followed by their negatives), so the length of an element is just the count
of positive roots it sends negative, and parabolic subgroups and minimal
coset representatives fall out of the same data.  This module exists as the
independent oracle behind the polynomial order formulas: everything here is
counted, nothing is computed from invariant degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupTooLarge, InvariantViolation
from .qpoly import QPolynomial
from .rootsystem import RootSystemData, weyl_order

DEFAULT_ENUM_BOUND = 10**6

Perm = tuple[int, ...]


@dataclass(frozen=True)
class WeylElement:
    perm: Perm  # image index of each root in the ambient root list
    length: int


class WeylGroup:
    """A fully enumerated Weyl group (or parabolic subgroup) acting on roots."""

    def __init__(
        self,
        root_system: RootSystemData,
        roots: tuple[tuple[int, ...], ...],
        simple_positions: tuple[int, ...],
        generator_perms: tuple[Perm, ...],
        elements: tuple[WeylElement, ...],
    ):
        self.root_system = root_system
        self.roots = roots
        self.simple_positions = simple_positions
        self.generator_perms = generator_perms
        self.elements = elements
        self.num_positive = len(roots) // 2

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _length(perm: Perm, num_positive: int) -> int:
    return sum(1 for i in range(num_positive) if perm[i] >= num_positive)


def _closure(
    generator_perms: tuple[Perm, ...], size: int, num_positive: int
) -> tuple[WeylElement, ...]:
    identity = tuple(range(size))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in generator_perms:
                ws = tuple(w[s[b]] for b in range(size))
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    elements = [WeylElement(p, _length(p, num_positive)) for p in seen]
    elements.sort(key=lambda e: (e.length, e.perm))
    return tuple(elements)


def generate(rs: RootSystemData, bound: int | None = None) -> WeylGroup:
    """Enumerate the full Weyl group of rs.

    The expected order is known from the invariant degrees before any work
    happens, so oversize requests fail fast with GroupTooLarge.
    """
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    expected = weyl_order(rs.cartan_type)
    if expected > bound:
        raise GroupTooLarge(
            f"|W({rs.cartan_type})| = {expected} exceeds the bound {bound}"
        )
    positive = rs.positive_roots
    roots = positive + tuple(tuple(-a for a in r) for r in positive)
    index = {r: i for i, r in enumerate(roots)}
    simple_positions = tuple(index[s] for s in rs.simple_roots)
    gens = tuple(
        tuple(index[rs.reflect(r, i)] for r in roots)
        for i in range(1, rs.rank + 1)
    )
    elements = _closure(gens, len(roots), len(positive))
    if len(elements) != expected:
        raise InvariantViolation(
            f"|W({rs.cartan_type})| enumerated as {len(elements)}, expected {expected}"
        )
    return WeylGroup(rs, roots, simple_positions, gens, elements)


def length_gen_poly(group: WeylGroup) -> QPolynomial:
    """Sum of q^length over all enumerated elements."""
    counts = [0] * (max((e.length for e in group.elements), default=0) + 1)
    for e in group.elements:
        counts[e.length] += 1
    return QPolynomial(counts)


def parabolic(group: WeylGroup, J: frozenset[int]) -> WeylGroup:
    """Subgroup generated by the simple reflections indexed by J (1-based).

    Lengths are inherited from the ambient group; for parabolic subgroups
    they coincide with the subgroup's own length function.
    """
    rank = group.root_system.rank
    if not all(1 <= j <= rank for j in J):
        raise ValueError(f"subset {sorted(J)} outside 1..{rank}")
    gens = tuple(group.generator_perms[j - 1] for j in sorted(J))
    elements = _closure(gens, len(group.roots), group.num_positive)
    return WeylGroup(
        group.root_system, group.roots, group.simple_positions, gens, elements
    )


def min_coset_reps(group: WeylGroup, J: frozenset[int]) -> list[WeylElement]:
    """Minimal-length representatives of the left cosets w*W_J.

    w is the shortest element of its coset exactly when it keeps every
    simple root of J positive; such a representative is unique per coset.
    """
    rank = group.root_system.rank
    if not all(1 <= j <= rank for j in J):
        raise ValueError(f"subset {sorted(J)} outside 1..{rank}")
    positions = [group.simple_positions[j - 1] for j in sorted(J)]
    n = group.num_positive
    return [
        e
        for e in group.elements
        if all(e.perm[p] < n for p in positions)
    ]


def coset_length_poly(group: WeylGroup, J: frozenset[int]) -> QPolynomial:
    """Sum of q^length over the minimal coset representatives of W_J."""
    reps = min_coset_reps(group, J)
    counts = [0] * (max((e.length for e in reps), default=0) + 1)
    for e in reps:
        counts[e.length] += 1
    return QPolynomial(counts)
