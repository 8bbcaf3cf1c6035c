"""Brute-force matrix and subspace oracles, cross-checked against formulas."""

import itertools
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoid_orders import oracle, verify
from monoid_orders.errors import EnumerationTooLarge, NonPrimeModulus
from monoid_orders.oracle import enumerate_rank_histogram, subspace_counts
from monoid_orders.orders import gl_strata
from monoid_orders.qpoly import eval_big, gaussian_binomial


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
            assert counted == eval_big(gaussian_binomial(n, r), p)


# Reference oracles: the per-matrix elimination and the span closure that
# builds every span from every vector outside the space, kept to pin the
# walked histogram and the covered-vector skip.


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
    vectors = list(itertools.product(range(p), repeat=n))
    level = {frozenset({(0,) * n})}
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
    return len(level)


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
    expected = [reference_count_subspaces(n, r, p) for r in range(n + 1)]
    assert subspace_counts(n, p) == expected


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
        i = next(i for i, y in enumerate(b) if y)
        reduced = fp.reduce([u], v)[0]
        f = a[i] * pow(b[i], -1, p)
        assert unpack(fp, reduced, n) == [(x - f * y) % p for x, y in zip(a, b)]


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
