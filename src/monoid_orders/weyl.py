"""Weyl group length polynomials by the descent walk on a weight orbit.

The minimal coset representatives of W_fixed in W_gens are in bijection
with the W_gens-orbit of the sum of the fundamental weights omega_i with i
in gens but not in fixed (Humphreys, Reflection Groups and Coxeter Groups,
1.10-1.12; Casselman, Machine calculations in Weyl groups, 1994).  Weights
are kept in fundamental coordinates, and s_i raises the length of the
representative exactly when coordinate i is positive, so a breadth-first
walk that applies s_i only there visits each representative once, at depth
equal to its length.  This module exists as the independent oracle behind
the polynomial order formulas: the walk reads only the Cartan matrix, and
every length is counted as orbit depth, not computed from invariant degrees
(the degrees only check the size of the orbit afterwards).
"""

from __future__ import annotations

from math import prod

from .errors import GroupTooLarge, InvariantViolation
from .qpoly import QPolynomial
from .rootsystem import RootSystemData, connected_components, weyl_order

DEFAULT_ENUM_BOUND = 10**6


def _subgroup_order(rs: RootSystemData, X: frozenset[int]) -> int:
    return prod(weyl_order(ct) for _, ct in connected_components(rs, X))


def coset_length_poly(
    rs: RootSystemData,
    gens: frozenset[int],
    fixed: frozenset[int],
    bound: int | None = None,
) -> QPolynomial:
    """Sum of q^length over the minimal coset representatives of W_fixed
    in W_gens (1-based simple-root indices, fixed a subset of gens).

    W(q) is coset_length_poly(rs, Delta, {}), the parabolic W_J(q) is
    coset_length_poly(rs, J, {}), and the coset sum W^J(q) is
    coset_length_poly(rs, Delta, J).  The order of the full Weyl group is
    known from the invariant degrees before any work happens, so oversize
    requests fail fast with GroupTooLarge.
    """
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    order = weyl_order(rs.cartan_type)
    if order > bound:
        raise GroupTooLarge(
            f"|W({rs.cartan_type})| = {order} exceeds the bound {bound}"
        )
    if not fixed <= gens:
        raise ValueError(f"{sorted(fixed)} is not a subset of {sorted(gens)}")
    expected = _subgroup_order(rs, gens) // _subgroup_order(rs, fixed)
    index = sorted(gens)
    # column i of the Cartan matrix is alpha_i in fundamental coordinates
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
    orbit = sum(counts)
    if orbit != expected:
        raise InvariantViolation(
            f"W_{sorted(gens)}/W_{sorted(fixed)} in {rs.cartan_type} walked as "
            f"{orbit} cosets, expected {expected}"
        )
    return QPolynomial(counts)
