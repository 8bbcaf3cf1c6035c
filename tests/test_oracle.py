"""Brute-force matrix and subspace oracles, cross-checked against formulas."""

import itertools
import time
import tracemalloc
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoid_orders import oracle, verify
from monoid_orders.errors import EnumerationTooLarge, NonPrimeModulus
from monoid_orders.oracle import enumerate_rank_histogram, subspace_counts
from monoid_orders.orders import gl_strata
from monoid_orders.qpoly import eval_big, expand, gaussian_factors


def test_rank_examples():
    assert _row_rank([[0, 0], [0, 0]], 2) == 0
    assert _row_rank([[1, 0], [0, 1]], 5) == 2
    assert _row_rank([[1, 1], [1, 1]], 2) == 1
    # 2 = -1 mod 3, so rows are dependent over F_3 but not over Q
    assert _row_rank([[1, 2], [2, 1]], 3) == 1


def test_histogram_2x2_over_f2():
    assert enumerate_rank_histogram(2, 2) == [1, 9, 6]


def test_histogram_2x2_over_f3():
    assert enumerate_rank_histogram(2, 3) == [1, 32, 48]


def test_histogram_3x3_over_f2():
    counts = enumerate_rank_histogram(3, 2)
    assert sum(counts) == 512
    assert counts[3] == 168


def test_histogram_bounds():
    with pytest.raises(EnumerationTooLarge):
        enumerate_rank_histogram(2, 2, bound=10)
    with pytest.raises(EnumerationTooLarge):
        enumerate_rank_histogram(5, 3)
    with pytest.raises(NonPrimeModulus):
        enumerate_rank_histogram(2, 6)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5)])
def test_histogram_matches_stratum_formula(n, p):
    counts = enumerate_rank_histogram(n, p)
    assert sum(counts) == p ** (n * n)
    assert len(counts) == n + 1
    strata = gl_strata(n)
    for r, counted in enumerate(counts):
        assert counted == eval_big(strata[r], p)


def test_count_subspaces_examples():
    assert subspace_counts(4, 2) == [1, 15, 35, 15, 1]
    assert subspace_counts(0, 2) == [1]


def test_count_subspaces_bounds():
    with pytest.raises(EnumerationTooLarge):
        subspace_counts(17, 2)
    with pytest.raises(EnumerationTooLarge):
        subspace_counts(3, 2, bound=4)
    with pytest.raises(NonPrimeModulus):
        subspace_counts(3, 9)


@pytest.mark.parametrize("p", [2, 3])
def test_count_subspaces_matches_gaussian_binomial(p):
    for n in range(5):
        counts = subspace_counts(n, p)
        assert len(counts) == n + 1
        for r, counted in enumerate(counts):
            assert counted == eval_big(expand(gaussian_factors(n, r)), p)


# Reference oracles: the per-matrix elimination and the span closure that
# builds every span from every vector outside the space, kept to pin the
# walked histogram and the orderly subspace growth.


def _row_rank(rows, p):
    """Row rank over the p-element field by Gaussian elimination; rows is
    reduced in place."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def reference_rank_histogram(n, p):
    counts = [0] * (n + 1)
    all_rows = list(itertools.product(range(p), repeat=n))
    for rows in itertools.product(all_rows, repeat=n):
        counts[_row_rank([list(r) for r in rows], p)] += 1
    return counts


def reference_count_subspaces(n, r, p):
    """The number of subspaces of each dimension 0..r, from one closure."""
    vectors = list(itertools.product(range(p), repeat=n))
    level = {frozenset({(0,) * n})}
    sizes = [1]
    for _ in range(r):
        bigger = set()
        for space in level:
            for v in vectors:
                if v in space:
                    continue
                bigger.add(
                    frozenset(
                        tuple((s[i] + c * v[i]) % p for i in range(n))
                        for s in space
                        for c in range(p)
                    )
                )
        level = bigger
        sizes.append(len(level))
    return sizes


# (n, p) pairs for the rank walk: p^(n^2) matrices is 65,536 for (4, 2),
# 19,683 for (3, 3) and 14,641 for (2, 11); (4, 3) would be 43 million
# through the per-matrix reference.
HISTOGRAM_CASES = (
    [(n, 2) for n in range(5)]
    + [(n, 3) for n in range(4)]
    + [(n, 5) for n in range(3)]
    + [(2, 7), (2, 11)]
)
SUBSPACE_CASES = (
    [(n, p) for p in (2, 3) for n in range(5)] + [(n, 5) for n in range(3)] + [(5, 2)]
)


@pytest.mark.parametrize("n,p", HISTOGRAM_CASES)
def test_walked_histogram_matches_per_matrix_elimination(n, p):
    assert enumerate_rank_histogram(n, p) == reference_rank_histogram(n, p)


@pytest.mark.parametrize("n,p", SUBSPACE_CASES)
def test_subspace_count_matches_uncovered_closure(n, p):
    assert subspace_counts(n, p) == reference_count_subspaces(n, n, p)


# The reference builds p^(r+1) vectors for every r-space and every vector
# of F_p^n: all of (6, 2) takes about 1.6 s on 2 vCPUs, but (4, 5) takes
# 1.1 s up to its planes and about 80 s in all, so past that dimension
# (4, 5) is compared with the q-binomial count instead.
ORDERLY_CASES = [(n, p, n) for n, p in SUBSPACE_CASES] + [(4, 5, 2), (6, 2, 6)]


@pytest.mark.parametrize("n,p,top", ORDERLY_CASES)
def test_orderly_growth_builds_each_space_once(n, p, top, monkeypatch):
    # each span is built by one multiples call, and each space of
    # dimension >= 1 must be built from exactly one space below it
    built = []
    multiples = oracle._Vectors.multiples

    def counted_multiples(self, v):
        built.append(v)
        return multiples(self, v)

    monkeypatch.setattr(oracle._Vectors, "multiples", counted_multiples)
    counts = subspace_counts(n, p)
    assert len(built) == sum(counts[1:])
    assert counts[: top + 1] == reference_count_subspaces(n, top, p)
    assert counts == [eval_big(expand(gaussian_factors(n, r)), p) for r in range(n + 1)]


@pytest.mark.parametrize("n,p", SUBSPACE_CASES)
def test_one_walk_counts_every_dimension(n, p, monkeypatch):
    # the vectors of F_p^n are listed once for the whole walk, and the n + 1
    # level sizes it returns satisfy duality: as many r- as (n-r)-spaces
    products = []

    def counted_product(*args, **kwargs):
        products.append(args)
        return itertools.product(*args, **kwargs)

    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=counted_product))
    counts = subspace_counts(n, p)
    assert products == [(range(p),)]
    assert len(counts) == n + 1
    assert counts[0] == counts[n] == 1
    assert counts == counts[::-1]


def test_subspace_check_walks_once_per_n_and_p(monkeypatch):
    walks = []
    walk = oracle.subspace_counts

    def counted_walk(n, p, bound=None):
        walks.append((n, p))
        return walk(n, p, bound)

    monkeypatch.setattr(oracle, "subspace_counts", counted_walk)
    ok, detail = verify.check_subspace_counts()
    assert ok, detail
    assert walks == [(n, p) for p in (2, 3) for n in range(5)]


def test_subspace_walk_checks_before_any_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=refuse))
    with pytest.raises(EnumerationTooLarge):
        subspace_counts(4, 3, bound=80)
    with pytest.raises(EnumerationTooLarge):
        subspace_counts(40, 2)
    with pytest.raises(NonPrimeModulus):
        subspace_counts(3, 4)


def test_negative_n_raises_before_any_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=refuse))
    for count in (enumerate_rank_histogram, subspace_counts):
        with pytest.raises(ValueError, match="n = -1 is negative"):
            count(-1, 2)
        with pytest.raises(ValueError):
            count(-3, 4)  # before the prime check too


def unpack(fp, v, n):
    fields = [v >> (i * fp.w) & ((1 << fp.w) - 1) for i in range(n)]
    assert v >> (n * fp.w) == 0
    return fields


@given(st.data())
def test_packed_arithmetic_matches_digit_tuples(data):
    # each field must come out reduced, so a stray guard bit or a digit
    # left at p shows as a mismatch
    p = data.draw(st.sampled_from([2, 3, 5, 7, 97]))
    n = data.draw(st.integers(0, 6))
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a, b = data.draw(digits), data.draw(digits)
    c = data.draw(st.integers(0, p - 1))
    fp = oracle._Vectors(n, p)
    u, v = fp.pack(a), fp.pack(b)
    assert unpack(fp, u, n) == a
    assert unpack(fp, fp.add(u, v), n) == [(x + y) % p for x, y in zip(a, b)]
    multiples = fp.multiples(u)
    assert len(multiples) == p
    assert unpack(fp, multiples[c], n) == [c * x % p for x in a]
    if any(b):
        # reduce maps each distinct row once: a list with repeated rows and
        # the zero row must come back row for row, in its order
        i = next(i for i, y in enumerate(b) if y)
        rows = data.draw(st.lists(digits, max_size=6)) + [a, [0] * n]
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=6))
        reduced = fp.reduce([fp.pack(x) for x in rows], v)
        assert len(reduced) == len(rows)
        for x, r in zip(rows, reduced):
            f = x[i] * pow(b[i], -1, p)
            assert unpack(fp, r, n) == [(d - f * y) % p for d, y in zip(x, b)]


def test_rank_walk_reduces_once_per_distinct_pivot(monkeypatch):
    # (3, 3): the 26 nonzero first rows, then below each the 8 distinct
    # nonzero rows of its 27 reduced ones, and the 26 below the zero row;
    # one reduction per row of the list would make 676
    pivots = []
    reduce = oracle._Vectors.reduce

    def counted(self, rows, r):
        pivots.append(r)
        return reduce(self, rows, r)

    monkeypatch.setattr(oracle._Vectors, "reduce", counted)
    assert enumerate_rank_histogram(3, 3) == reference_rank_histogram(3, 3)
    assert len(pivots) == 26 + 26 * 8 + 26
    pivots.clear()
    for n, p in ((2, 2), (2, 3), (3, 2), (3, 3)):
        enumerate_rank_histogram(n, p)
    assert len(pivots) == 306  # 743 with one reduction per row


def test_rank_walk_keeps_one_reduced_list_per_depth():
    # (2, 17) has 289 rows and 288 nonzero pivots at its first row: holding
    # every reduced list of that node at once would take over 1 MB
    tracemalloc.start()
    try:
        counts = enumerate_rank_histogram(2, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [eval_big(stratum, 17) for stratum in gl_strata(2)]
    assert peak < 2**20


def test_far_oversize_and_huge_moduli_are_refused_at_once(monkeypatch):
    # p^exponent far past the bound is neither built nor printed, and the
    # size is checked before the trial division that tests p for primality
    def refuse(*args, **kwargs):
        raise AssertionError("trial division started")

    monkeypatch.setattr(oracle, "math", types.SimpleNamespace(isqrt=refuse))
    with pytest.raises(EnumerationTooLarge, match="p\\^n exceeds the bound 65536"):
        subspace_counts(1, 2**1100 + 1)
    with pytest.raises(EnumerationTooLarge, match="p\\^n = 100000000000031 exceeds"):
        subspace_counts(1, 100000000000031)
    for n in (2000, 20000):
        with pytest.raises(EnumerationTooLarge, match="exceeds the bound 100000000"):
            enumerate_rank_histogram(n, 3)
    with pytest.raises(NonPrimeModulus):
        subspace_counts(1, 1)


def test_bounds_raise_before_any_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    # the rank walk starts from itertools.product, so a refused product
    # shows that each check ran before any enumeration; the subspace walk
    # is checked the same way in the test above
    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=refuse))
    with pytest.raises(EnumerationTooLarge):
        enumerate_rank_histogram(3, 3, bound=19682)
    with pytest.raises(EnumerationTooLarge):
        enumerate_rank_histogram(30, 2)
    with pytest.raises(NonPrimeModulus):
        enumerate_rank_histogram(3, 4)


def test_zero_size_with_a_huge_modulus_is_refused_at_once():
    # p^0 = 1 meets any size bound, so the modulus itself is held to it
    # before trial division, which would run to isqrt(p), about 1.5e9
    for oracle_fn, bound in ((enumerate_rank_histogram, 100000000), (subspace_counts, 65536)):
        start = time.perf_counter()
        with pytest.raises(EnumerationTooLarge) as refused:
            oracle_fn(0, 2**61 - 1)
        assert time.perf_counter() - start < 0.1
        assert str(refused.value) == (
            f"the modulus {2**61 - 1} exceeds the bound {bound}"
        )
    assert enumerate_rank_histogram(0, 7) == [1]
    with pytest.raises(NonPrimeModulus):
        enumerate_rank_histogram(0, 4)
    # trial division up to isqrt(3) = isqrt(1) tests nothing past the bound
    assert subspace_counts(0, 2, bound=1) == subspace_counts(0, 3, bound=1) == [1]
