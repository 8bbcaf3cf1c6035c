"""Independent brute-force ground truth over small prime fields.

Nothing here touches the polynomial formulas, and every count is literal.
Both oracles share one encoding of F_p^n (_Vectors): a vector is one int
whose base-p digits sit in fixed-width fields, the top bit of each a guard,
so two vectors add mod p in a few int operations.  Rank strata come from
visiting every one of the p^(n^2) matrices in a walk over its rows: each
node holds all p^n rows reduced against the pivot rows chosen above it and
reduces that list once per new pivot row.  Subspace counts of every
dimension come from one span-set closure, where each (r+1)-space
containing a given r-space is built once from it, by skipping the vectors
that an earlier span already covers.  Cross-checking these counts against
the q-polynomial evaluations validates the whole formula stack with zero
shared code.
"""

from __future__ import annotations

import itertools
from itertools import accumulate

from .errors import EnumerationTooLarge, NonPrimeModulus

DEFAULT_MATRIX_BOUND = 10**8
DEFAULT_VECTOR_BOUND = 2**16


def _check(n: int, p: int, exponent: int, bound: int, what: str) -> None:
    """Refuse a negative n, a non-prime p or p^exponent over the bound."""
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise NonPrimeModulus(f"{p} is not prime")
    if p**exponent > bound:
        raise EnumerationTooLarge(f"{what} = {p**exponent} exceeds the bound {bound}")


class _Vectors:
    """F_p^n packed into ints: digit i in bits [i*w, (i+1)*w), where
    w = (2p-2).bit_length() + 1 leaves a guard bit above any two-digit sum."""

    def __init__(self, n: int, p: int):
        self.p, self.w = p, (w := (2 * p - 2).bit_length() + 1)
        self.ones, self.mask = sum(1 << (i * w) for i in range(n)), (1 << w) - 1
        # adding 2^(w-1) - p to a field sets its guard bit exactly when the
        # digit sum there has reached p
        self.guard = ((1 << (w - 1)) - p) * self.ones

    def pack(self, digits) -> int:
        return sum(d << (i * self.w) for i, d in enumerate(digits))

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p * (((s + self.guard) >> (self.w - 1)) & self.ones)

    def multiples(self, v: int) -> list[int]:
        """[0, v, 2v, ..., (p-1)v]."""
        return list(accumulate([v] * (self.p - 1), self.add, initial=0))

    def reduce(self, rows: list[int], r: int) -> list[int]:
        """Each row minus the multiple of r that clears r's lowest nonzero digit."""
        p, w1, guard, ones, mask = self.p, self.w - 1, self.guard, self.ones, self.mask
        shift = ((r & -r).bit_length() - 1) // self.w * self.w
        inv = pow((r >> shift) & mask, -1, p)
        mults = self.multiples(r)
        neg = [mults[-f * inv % p] for f in range(p)]
        return [
            (s := x + neg[(x >> shift) & mask]) - p * (((s + guard) >> w1) & ones)
            for x in rows
        ]


def enumerate_rank_histogram(n: int, p: int, bound: int | None = None) -> list[int]:
    """Number of n-by-n matrices over F_p of rank r for every r = 0..n, by
    exhaustive enumeration of all p^(n^2) of them.

    The matrices are walked row by row; every matrix is one leaf of the
    walk and is counted at the rank its rows reached.
    """
    _check(n, p, n * n, DEFAULT_MATRIX_BOUND if bound is None else bound, "p^(n^2)")
    if n == 0:
        return [1]  # the one empty matrix
    fp = _Vectors(n, p)
    counts = [0] * (n + 1)

    def walk(depth: int, rank: int, rows: list[int]) -> None:
        # rows: every row of F_p^n reduced against the rank pivot rows
        # chosen above, so a row reduced to 0 depends on the rows above it
        for r in rows:
            if depth == n - 1:  # the last row: one leaf per whole matrix
                counts[rank + (r != 0)] += 1
            elif r:
                walk(depth + 1, rank + 1, fp.reduce(rows, r))
            else:
                walk(depth + 1, rank, rows)

    walk(0, 0, [fp.pack(v) for v in itertools.product(range(p), repeat=n)])
    return counts


def subspace_counts(n: int, p: int, bound: int | None = None) -> list[int]:
    """Number of r-dimensional subspaces of F_p^n for every r = 0..n, from
    one walk that grows each dimension once.

    Subspaces are frozensets of packed vectors, grown one dimension at a
    time by span closure; a vector inside a span already built from the
    same space would build that span again, so it is skipped.
    """
    _check(n, p, n, DEFAULT_VECTOR_BOUND if bound is None else bound, "p^n")
    fp = _Vectors(n, p)
    vectors = [fp.pack(v) for v in itertools.product(range(p), repeat=n)]
    level: set[frozenset] = {frozenset({0})}
    counts = [1]
    for _ in range(n):
        bigger: set[frozenset] = set()
        for space in level:
            # the spaces one dimension up that contain this one partition
            # the vectors outside it, so each is built from its first vector
            covered = set(space)
            for v in vectors:
                if v in covered:
                    continue
                span = frozenset(fp.add(s, m) for m in fp.multiples(v) for s in space)
                covered |= span
                bigger.add(span)
        level = bigger
        counts.append(len(level))
    return counts
