"""Independent brute-force ground truth over small prime fields.

Nothing here touches the polynomial formulas, and every count is literal.
Both oracles return a list of counts indexed by rank or dimension: rank
strata come from visiting every one of the p^(n^2) matrices in a walk
over its rows, which carries the echelon basis of the rows above so each
new row is reduced against at most n-1 pivots; subspace counts of every
dimension from one span-set closure, where each (r+1)-space containing a
given r-space is built once from it, by skipping the vectors that an
earlier span already covers.  Cross-checking these counts against the
q-polynomial evaluations validates the whole formula stack with zero
shared code.
"""

from __future__ import annotations

import itertools

from .errors import EnumerationTooLarge, NonPrimeModulus

DEFAULT_MATRIX_BOUND = 10**8
DEFAULT_VECTOR_BOUND = 2**16


def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise NonPrimeModulus(f"{p} is not prime")


def enumerate_rank_histogram(n: int, p: int, bound: int | None = None) -> list[int]:
    """Number of n-by-n matrices over F_p of rank r for every r = 0..n, by
    exhaustive enumeration of all p^(n^2) of them.

    The matrices are walked row by row; every matrix is one leaf of the
    walk and is counted at the rank its rows reached.
    """
    _require_prime(p)
    if bound is None:
        bound = DEFAULT_MATRIX_BOUND
    total = p ** (n * n)
    if total > bound:
        raise EnumerationTooLarge(f"p^(n^2) = {total} exceeds the bound {bound}")
    counts = [0] * (n + 1)
    all_rows = list(itertools.product(range(p), repeat=n))

    def walk(depth: int, basis: tuple[tuple[int, tuple[int, ...]], ...]) -> None:
        # basis: (pivot column, row scaled to 1 there) for each prefix row
        # that was independent of the rows above it, each reduced against
        # the pivots found before it
        for row in all_rows:
            for c, b in basis:
                f = row[c]
                if f:
                    row = tuple((x - f * y) % p for x, y in zip(row, b))
            pivot = next((i for i, x in enumerate(row) if x), None)
            if depth == n - 1:  # the last row: one leaf per whole matrix
                counts[len(basis) + (pivot is not None)] += 1
            elif pivot is None:
                walk(depth + 1, basis)
            else:
                inv = pow(row[pivot], -1, p)
                walk(depth + 1, basis + ((pivot, tuple(x * inv % p for x in row)),))

    if n == 0:
        counts[0] = 1  # the one empty matrix
    else:
        walk(0, ())
    return counts


def subspace_counts(n: int, p: int, bound: int | None = None) -> list[int]:
    """Number of r-dimensional subspaces of F_p^n for every r = 0..n, from
    one walk that grows each dimension once.

    Subspaces are materialized as frozensets of vectors and grown one
    dimension at a time by span closure, so the counts are formula-free.  A
    vector already inside a span built from the same space gives that span
    again and is skipped; the level set merges spans reached from
    different spaces.
    """
    _require_prime(p)
    if bound is None:
        bound = DEFAULT_VECTOR_BOUND
    if p**n > bound:
        raise EnumerationTooLarge(f"p^n = {p ** n} exceeds the bound {bound}")
    vectors = list(itertools.product(range(p), repeat=n))
    zero = (0,) * n
    level: set[frozenset] = {frozenset({zero})}
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
                span = frozenset(
                    tuple((s[i] + c * v[i]) % p for i in range(n))
                    for s in space
                    for c in range(p)
                )
                covered |= span
                bigger.add(span)
        level = bigger
        counts.append(len(level))
    return counts
