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
computed from invariant degrees.  The degrees only choose the node to peel,
size the packed fields and check the size of each walked orbit; the index
|W_K| / |W_{K - i}| is a quotient of degree products, each read from root
heights by rootsystem's per-mask memo.  Every subset, from the arguments to
each walk, is an int mask with node i at bit i - 1, so no candidate K - i
is built as a set.

Each maximal-parabolic walk is done once per root system and kept in
RootSystemData._walks, keyed by its mask pair; every call checks the kept
orbit's size again.  A weight is one int holding every node's coordinate,
biased by the Coxeter number h, the largest degree, in a field
(2h).bit_length() + 1 bits wide.  Every coordinate in the W-orbit of a 0/1
weight is at most h - 1 in size, the height of the highest coroot: the
largest degree is one more than the largest root height (Humphreys 3.20,
the dual-partition rule rootsystem reads degrees by), and the coroots have
the same Weyl group, so the same h.  s_i is then one multiply-subtract of
alpha_i's Cartan column, packed the same way once per root system.
"""

from __future__ import annotations

from math import prod

from .errors import GroupTooLarge, InvariantViolation, UnsupportedType
from .qpoly import ONE, QPolynomial
from .rootsystem import RootSystemData, _mask_indices, _mask_parts, degrees, weyl_order

DEFAULT_ENUM_BOUND = 10**6


def _subgroup_order(rs: RootSystemData, mask: int) -> int:
    return prod([d for _, ds in _mask_parts(rs, mask) for d in ds])


def coset_length_poly(
    rs: RootSystemData, gens: int, fixed: int, bound: int | None = None
) -> QPolynomial:
    """Sum of q^length over the minimal coset representatives of W_fixed
    in W_gens, both masks with node i at bit i - 1 and fixed a subset of
    gens (ValueError); a bit above the rank, or a negative mask, raises
    UnsupportedType.

    W(q) is coset_length_poly(rs, Delta, 0), the parabolic W_J(q) is
    coset_length_poly(rs, J, 0), and the coset sum W^J(q) is
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
    if min(gens, fixed) < 0:  # bits above the rank without end
        raise UnsupportedType(f"mask {min(gens, fixed)} outside 1..{rs.rank}")
    if fixed & ~gens:
        raise ValueError(
            f"{_mask_indices(fixed)} is not a subset of {_mask_indices(gens)}"
        )
    if gens >> rs.rank:
        raise UnsupportedType(f"subset {_mask_indices(gens)} outside 1..{rs.rank}")
    result, K, bit = ONE, gens, rs._node_bits
    while K != fixed:
        size = _subgroup_order(rs, K)
        index, i = min(
            (size // _subgroup_order(rs, K ^ bit[i]), i)
            for i in _mask_indices(K & ~fixed)
        )
        walked = _walk(rs, K, K ^ bit[i], index)
        result = walked if result is ONE else result * walked
        K ^= bit[i]
    return result


def _walk(rs: RootSystemData, gens: int, fixed: int, expected: int) -> QPolynomial:
    """The coset sum of W_fixed in W_gens, walked level by level over the
    orbit once per root system and kept in rs._walks; on every call, walked
    or kept, the orbit must hold the expected index |W_gens| / |W_fixed|.
    The coordinates on nodes outside gens ride along: the Cartan matrix of
    gens is invertible, so the W_gens-orbit of the whole weight maps one to
    one onto that of its gens coordinates.
    """
    walked = rs._walks.get((gens, fixed))
    if walked is None:
        h, w, zero, alphas = _packing(rs)
        field = (1 << w) - 1
        columns = [(w * (i - 1), alphas[i - 1]) for i in _mask_indices(gens)]
        level = {zero + sum(1 << w * (i - 1) for i in _mask_indices(gens & ~fixed))}
        counts = []
        while level:
            counts.append(len(level))
            nxt = set()
            for mu in level:
                for shift, alpha in columns:
                    m = (mu >> shift & field) - h
                    if m > 0:
                        nxt.add(mu - m * alpha)
            level = nxt
        walked = rs._walks[gens, fixed] = QPolynomial(counts)
    orbit = sum(walked.coeffs)
    if orbit != expected:
        raise InvariantViolation(
            f"W_{_mask_indices(gens)}/W_{_mask_indices(fixed)} in {rs.cartan_type}"
            f" walked as {orbit} cosets, expected {expected}"
        )
    return walked


def _packing(rs: RootSystemData) -> tuple[int, int, int, list[int]]:
    """(h, w, the zero weight, each alpha_i as one weight), kept on rs from
    its first walk.  Node j's coordinate plus h fills bits w*(j - 1) to
    w*j - 1 of a weight, w = (2h).bit_length() + 1; it lies in 1..2h - 1,
    so no field borrows from the next."""
    if rs._packing is None:
        h = max(degrees(rs.cartan_type))
        w = (2 * h).bit_length() + 1
        # column i of the Cartan matrix is alpha_i in fundamental coordinates
        alphas = [sum(c << w * j for j, c in enumerate(col)) for col in zip(*rs.cartan)]
        zero = sum(h << w * j for j in range(rs.rank))
        object.__setattr__(rs, "_packing", (h, w, zero, alphas))
    return rs._packing
