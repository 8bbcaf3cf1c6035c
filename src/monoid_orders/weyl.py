"""Weyl group length polynomials as chains of descent walks on weight orbits.

The minimal coset representatives of W_fixed in W_gens are in bijection
with the W_gens-orbit of the sum of the fundamental weights omega_i with i
in gens but not in fixed (Humphreys, Reflection Groups and Coxeter Groups,
1.10-1.12; Casselman, Machine calculations in Weyl groups, 1994).  Weights
are kept in fundamental coordinates, and s_i raises the length of the
representative exactly when coordinate i is positive, so a breadth-first
walk that applies s_i only there visits each representative once, at depth
equal to its length.  For fixed <= K <= gens, W_gens^fixed = W_gens^K .
W_K^fixed with lengths adding (Bjorner-Brenti, Combinatorics of Coxeter
Groups, Prop. 2.4.4), so no coset sum is walked whole: it is a product of
walks over maximal-parabolic cosets W_K / W_{K - i}, peeling one node at a
time (E6's W(q) walks 54 weights, not 51,840).  This module exists as the
independent oracle behind the polynomial order formulas: the walks read
only the Cartan matrix, and every length is counted as orbit depth, not
computed from invariant degrees.  The degrees only choose the node to peel
and check the size of each walked orbit; the index |W_K| / |W_{K - i}| is a
quotient of degree products, each read from root heights by
rootsystem.subset_degrees.
"""

from __future__ import annotations

from math import prod

from .errors import GroupTooLarge, InvariantViolation
from .qpoly import ONE, QPolynomial
from .rootsystem import RootSystemData, subset_degrees, weyl_order

DEFAULT_ENUM_BOUND = 10**6


def _subgroup_order(rs: RootSystemData, X: frozenset[int]) -> int:
    return prod(subset_degrees(rs, X))


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
    coset_length_poly(rs, Delta, J).  It is the product of the walks along
    the chain gens = K_0 > K_1 > ... > fixed that removes, at each step,
    the node i with the smallest index |W_K| / |W_{K - i}| (ties to the
    smallest i); each walk must count its index from the degrees, or
    InvariantViolation.  The bound is on |W| of the whole type, known from
    the degrees before any work happens, so oversize requests fail fast
    with GroupTooLarge.
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
    result = ONE
    K = gens
    while K != fixed:
        size = _subgroup_order(rs, K)
        index, i = min((size // _subgroup_order(rs, K - {i}), i) for i in K - fixed)
        result = result * _walk(rs, K, K - {i}, index)
        K = K - {i}
    return result


def _walk(
    rs: RootSystemData, gens: frozenset[int], fixed: frozenset[int], expected: int
) -> QPolynomial:
    """The coset sum of W_fixed in W_gens, walked level by level over the
    orbit, which must hold the expected index |W_gens| / |W_fixed|."""
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
