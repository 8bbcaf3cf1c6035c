"""Independent brute-force ground truth over small prime fields.

Nothing here touches the polynomial formulas, and every count is literal.
Both oracles share one encoding of F_p^n (_Vectors): a vector is one int
whose base-p digits sit in fixed-width fields, the top bit of each a guard,
so two vectors add mod p in a few int operations.  Rank strata come from
visiting every one of the p^(n^2) matrices in a walk over its rows: each
node holds all p^n rows reduced against the pivot rows chosen above it, in
which each distinct row repeats p^rank times; it reduces that list once
per distinct pivot row, each distinct row once, and walks on once per
copy, and the last row is counted in bulk.  Subspace counts of every
dimension come from one span-set closure by orderly generation (Read
1978; McKay 1998): a space grows only by vectors whose top nonzero digit
lies above every digit it uses, so each (r+1)-space T grows from one
r-space alone, T's intersection with the hyperplane below its top digit,
and every space is built once in all.
Cross-checking these counts against the q-polynomial evaluations validates
the whole formula stack with zero shared code.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

from .errors import EnumerationTooLarge, NonPrimeModulus

DEFAULT_MATRIX_BOUND = 10**8
DEFAULT_VECTOR_BOUND = 2**16


def _check(n: int, p: int, exponent: int, bound: int, what: str) -> None:
    """Refuse a negative n, a p below 2, p^exponent over the bound, a p
    whose square root is over the bound's or a non-prime p, in that order,
    so no refusal costs more than trial division up to the square root of
    the bound."""
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    if p < 2:
        raise NonPrimeModulus(f"{p} is not prime")
    # p^exponent >= 2^((bits - 1) exponent): over 2^64 times the bound, the
    # power is neither built nor printed
    if (p.bit_length() - 1) * exponent > bound.bit_length() + 64:
        raise EnumerationTooLarge(
            f"{what} exceeds the bound {bound} by a factor over 2^64"
        )
    if p**exponent > bound:
        raise EnumerationTooLarge(f"{what} = {p**exponent} exceeds the bound {bound}")
    if math.isqrt(p) > math.isqrt(bound):  # only when n = 0, as p^0 = 1
        raise EnumerationTooLarge(f"the modulus {p} exceeds the bound {bound}")
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise NonPrimeModulus(f"{p} is not prime")


class _Vectors:
    """F_p^n packed into ints: digit i in bits [i*w, (i+1)*w), where
    w = (2p-2).bit_length() + 1 leaves a guard bit above any two-digit sum."""

    def __init__(self, n: int, p: int):
        self.p, self.w = p, (w := (2 * p - 2).bit_length() + 1)
        self.ones, self.mask = sum(1 << (i * w) for i in range(n)), (1 << w) - 1
        # adding 2^(w-1) - p to a field sets its guard bit exactly when the
        # digit sum there has reached p
        self.guard = ((1 << (w - 1)) - p) * self.ones
        # pivot row -> (the shift of its lowest nonzero digit, for each
        # digit value f there the multiple of the pivot that clears f)
        self.clearing: dict[int, tuple[int, list[int]]] = {}

    def pack(self, digits) -> int:
        return sum(d << (i * self.w) for i, d in enumerate(digits))

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p * (((s + self.guard) >> (self.w - 1)) & self.ones)

    def multiples(self, v: int) -> list[int]:
        """[0, v, 2v, ..., (p-1)v]."""
        return list(accumulate([v] * (self.p - 1), self.add, initial=0))

    def reduce(self, rows: list[int], r: int) -> list[int]:
        """Each row minus the multiple of r that clears r's lowest nonzero
        digit, computed once per distinct row and mapped to its copies; r's
        clearing multiples are made on its first reduction."""
        p, w1, guard, ones, mask = self.p, self.w - 1, self.guard, self.ones, self.mask
        if r not in self.clearing:
            shift = ((r & -r).bit_length() - 1) // self.w * self.w
            inv = pow((r >> shift) & mask, -1, p)
            mults = self.multiples(r)
            self.clearing[r] = shift, [mults[-f * inv % p] for f in range(p)]
        shift, neg = self.clearing[r]
        table = {
            x: (s := x + neg[(x >> shift) & mask]) - p * (((s + guard) >> w1) & ones)
            for x in set(rows)
        }
        return list(map(table.__getitem__, rows))


def enumerate_rank_histogram(n: int, p: int, bound: int | None = None) -> list[int]:
    """Number of n-by-n matrices over F_p of rank r for every r = 0..n, by
    exhaustive enumeration of all p^(n^2) of them.

    The matrices are walked row by row; every matrix is one leaf of the
    walk and is counted at the rank its rows reached.  A node reduces its
    rows once per distinct pivot row and walks that one list once per copy
    of the pivot, so each depth holds at most one reduced list at a time.
    The leaves below a node of the last row are counted together: the rows
    reduced to 0 keep its rank and the others raise it by one.
    """
    _check(n, p, n * n, DEFAULT_MATRIX_BOUND if bound is None else bound, "p^(n^2)")
    if n == 0:
        return [1]  # the one empty matrix
    fp = _Vectors(n, p)
    counts = [0] * (n + 1)

    def walk(depth: int, rank: int, rows: list[int]) -> None:
        # rows: every row of F_p^n reduced against the rank pivot rows
        # chosen above, so a row reduced to 0 depends on the rows above it
        if depth == n - 1:  # the last row: one leaf per whole matrix
            dependent = rows.count(0)
            counts[rank] += dependent
            counts[rank + 1] += len(rows) - dependent
            return
        # below a pivot, equal rows lead to equal nodes: reduce once per
        # distinct row, and walk once per copy so each matrix is one leaf
        for r, copies in Counter(rows).items():
            below, raised = (fp.reduce(rows, r), rank + 1) if r else (rows, rank)
            for _ in range(copies):
                walk(depth + 1, raised, below)

    walk(0, 0, [fp.pack(v) for v in itertools.product(range(p), repeat=n)])
    return counts


def subspace_counts(n: int, p: int, bound: int | None = None) -> list[int]:
    """Number of r-dimensional subspaces of F_p^n for every r = 0..n, from
    one walk that grows each dimension once.

    Subspaces are frozensets of packed vectors, grown one dimension at a
    time by span closure.  A space is extended only by vectors whose top
    nonzero digit lies above every digit it uses, found by one bisect into
    the sorted vectors, so each space grows from exactly one space below
    it.  The spans grown from one space partition those vectors, so each
    is built from its first vector and the vectors it covers are skipped.
    """
    _check(n, p, n, DEFAULT_VECTOR_BOUND if bound is None else bound, "p^n")
    fp = _Vectors(n, p)
    w1, guard, ones = fp.w - 1, fp.guard, fp.ones  # fp.add, inlined in the closure
    # sorted, the vectors whose top nonzero digit is d fill [2^(d*w), 2^((d+1)*w))
    vectors = sorted(fp.pack(v) for v in itertools.product(range(p), repeat=n))
    level: set[frozenset] = {frozenset({0})}
    counts = [1]
    for _ in range(n):
        bigger: set[frozenset] = set()
        for space in level:
            # 2^above: the first vector with a digit above all the space uses
            above = (max(space).bit_length() + fp.w - 1) // fp.w * fp.w
            covered: set[int] = set()
            for v in vectors[bisect_left(vectors, 1 << above) :]:
                if v in covered:
                    continue
                span = frozenset(
                    (t := s + m) - p * (((t + guard) >> w1) & ones)
                    for m in fp.multiples(v)
                    for s in space
                )
                covered |= span
                bigger.add(span)
        level = bigger
        counts.append(len(level))
    return counts
