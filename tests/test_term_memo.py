"""thm34 and thm41 expand each distinct factored term once per call.

The per-entry expansion the routes used before the memo is kept here as
the reference: every memoized term must equal it, entry for entry.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import monoid_orders
from monoid_orders import cli, orders
from monoid_orders.crosssection import (
    CrossSectionLattice,
    LatticeEntry,
    j_irreducible_lattice,
    load_lattice,
)
from monoid_orders.errors import NonExactDivision
from monoid_orders.orders import order_thm34, order_thm41
from monoid_orders.qpoly import ONE, QPolynomial, QProduct, expand
from monoid_orders.rootsystem import (
    CartanType,
    build,
    degrees,
    poincare_factors,
    positive_count_of_subset,
    subset_degrees,
)
from subdiagrams import components

SMALL_TYPES = (
    [f"A{l}" for l in range(1, 7)]
    + [f"B{l}" for l in range(2, 7)]
    + [f"C{l}" for l in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


def thm34_products(lat):
    """The factored thm34 term of each entry; None for the zero entry."""
    rs = lat.root_system
    p_w_squared = poincare_factors(degrees(rs.cartan_type)) ** 2
    # only to keep A14 quick
    factors = functools.cache(lambda X: poincare_factors(subset_degrees(rs, X)))
    products = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            products.append((entry.label, None))
            continue
        denom = QProduct()
        for comp in components(rs, entry.lambda_substar):
            denom = denom * factors(comp) ** 2
        for comp in components(rs, entry.lambda_star):
            denom = denom * factors(comp)
        torus = QProduct.of(
            [1] * entry.torus_index_exponent,
            shift=positive_count_of_subset(rs, entry.lambda_star),
        )
        products.append((entry.label, torus * (p_w_squared / denom)))
    return products


def thm41_products(lat):
    """The factored thm41 term of each entry; None for the zero entry."""
    rs = lat.root_system
    ambient = QProduct.of(degrees(rs.cartan_type)) ** 2
    products = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            products.append((entry.label, None))
            continue
        numer = ambient * QProduct.of(
            [1] * (2 * len(entry.lambda_union) + 1),
            shift=positive_count_of_subset(rs, entry.lambda_star),
        )
        denom = QProduct.of([1] * (2 * rs.rank))
        for comp in components(rs, entry.lambda_substar):
            denom = denom * QProduct.of(subset_degrees(rs, comp)) ** 2
        for comp in components(rs, entry.lambda_star):
            denom = denom * QProduct.of(subset_degrees(rs, comp))
        products.append((entry.label, numer / denom))
    return products


def reference_terms(products):
    """One expansion per entry, as before the memo."""
    return tuple(
        (label, ONE if product is None else expand(product))
        for label, product in products
    )


def reference_total(terms):
    total = QPolynomial()
    for _, term in terms:
        total = total + term
    return total


def distinct_phi(products):
    return len({product.phi for _, product in products if product is not None})


def lattice(spec, j0):
    rs = build(CartanType.parse(spec))
    return j_irreducible_lattice(rs, frozenset(int(i) for i in j0.split(",") if i))


def count_expands(monkeypatch):
    calls = []

    def counting_expand(product):
        calls.append(product)
        return expand(product)

    monkeypatch.setattr(orders, "expand", counting_expand)
    return calls


@pytest.mark.parametrize("spec", SMALL_TYPES)
def test_memoized_terms_equal_per_entry_expansion(spec):
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        J0 = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        lat = j_irreducible_lattice(rs, J0)
        for route, products in ((order_thm34, thm34_products), (order_thm41, thm41_products)):
            expected = reference_terms(products(lat))
            report = route(lat)
            assert report.terms == expected, (spec, sorted(J0), route.__name__)
            assert report.total == reference_total(expected)


SHARED_PHI_LATTICE = {
    "type": "A3",
    "torus_rank": 4,
    "entries": [
        {"label": "0", "lambda_star": [], "lambda_substar": [1, 2, 3], "torus_index_exponent": 0},
        # a and b share their Phi exponents, q^2 apart: A1 x A1 once in
        # lambda_star against one A1 twice in lambda_substar
        {"label": "a", "lambda_star": [1, 3], "lambda_substar": [], "torus_index_exponent": 1},
        {"label": "b", "lambda_star": [], "lambda_substar": [1], "torus_index_exponent": 1},
        # c has b's components but another torus exponent, so another product
        {"label": "c", "lambda_star": [], "lambda_substar": [3], "torus_index_exponent": 2},
        {"label": "1", "lambda_star": [1, 2, 3], "lambda_substar": [], "torus_index_exponent": 4},
    ],
}


def test_entries_sharing_phi_keep_their_own_shift(monkeypatch, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(SHARED_PHI_LATTICE))
    lat = load_lattice(build(CartanType("A", 3)), json.loads(path.read_text()))
    products = dict(thm34_products(lat))
    assert products["a"].phi == products["b"].phi
    assert (products["a"].shift, products["b"].shift) == (2, 0)
    assert products["c"].phi != products["b"].phi

    calls = count_expands(monkeypatch)
    report = order_thm34(lat)
    assert len(calls) == distinct_phi(products.items()) == 3
    expected = reference_terms(products.items())
    assert report.terms == expected
    assert report.total == reference_total(expected)
    terms = dict(report.terms)
    assert terms["a"] == QPolynomial.monomial(2) * terms["b"]
    assert terms["c"] == QPolynomial([-1, 1]) * terms["b"]


# Distinct Phi-exponent maps among the nonzero entries of each lattice.
PINNED_EXPANSIONS = [("A10", "", 1025, 56), ("D10", "2,4,6,8", 674, 123), ("A14", "", 16385, 176)]


@pytest.mark.parametrize("spec, j0, entries, expansions", PINNED_EXPANSIONS)
def test_each_distinct_phi_expanded_once_per_call(monkeypatch, spec, j0, entries, expansions):
    lat = lattice(spec, j0)
    assert len(lat.entries) == entries
    assert distinct_phi(thm34_products(lat)) == expansions
    calls = count_expands(monkeypatch)
    for route in (order_thm34, order_thm41):
        del calls[:]
        route(lat)
        assert len(calls) == expansions, route.__name__
        # the memo expands each product with its q-shift split off
        assert all(product.shift == 0 for product in calls)


def test_no_memo_outlives_its_call(monkeypatch):
    # thm34 twice, then thm41: no call reads the memo of an earlier call or
    # of another route, so each expands all 56 distinct products again
    lat = lattice("A10", "")
    assert distinct_phi(thm41_products(lat)) == 56
    calls = count_expands(monkeypatch)
    for route in (order_thm34, order_thm34, order_thm41):
        del calls[:]
        route(lat)
        assert len(calls) == 56, route.__name__


def non_divisible_lattice():
    """A1 with an entry whose lambda_star and lambda_substar overlap, built
    without validate: its denominator Phi_2^3 does not divide |W(q)|^2."""
    rs = build(CartanType("A", 1))
    entries = (
        LatticeEntry("0", frozenset(), frozenset({1}), 0),
        LatticeEntry("e{}", frozenset(), frozenset(), 1),
        LatticeEntry("bad", frozenset({1}), frozenset({1}), 2),
        LatticeEntry("1", frozenset({1}), frozenset(), 2),
    )
    return CrossSectionLattice(rs, entries, torus_rank=2)


def test_non_divisible_entry_still_raises():
    lat = non_divisible_lattice()
    for route in (order_thm34, order_thm41):
        with pytest.raises(NonExactDivision):
            route(lat)


A1_EXPONENT_ZERO = {
    "type": "A1",
    "torus_rank": 1,
    "entries": [
        {"label": "0", "lambda_star": [], "lambda_substar": [1], "torus_index_exponent": 0},
        {"label": "e{}", "lambda_star": [], "lambda_substar": [], "torus_index_exponent": 0},
        {"label": "1", "lambda_star": [1], "lambda_substar": [], "torus_index_exponent": 1},
    ],
}

OPTIMIZED_EXACTNESS_CHECK = """
import sys
from monoid_orders.crosssection import CrossSectionLattice, LatticeEntry
from monoid_orders.errors import NonExactDivision
from monoid_orders.orders import order_thm34, order_thm41
from monoid_orders.rootsystem import CartanType, build

if not sys.flags.optimize:
    sys.exit("not running under -O")
entries = (
    LatticeEntry("0", frozenset(), frozenset({1}), 0),
    LatticeEntry("e{}", frozenset(), frozenset(), 1),
    LatticeEntry("bad", frozenset({1}), frozenset({1}), 2),
    LatticeEntry("1", frozenset({1}), frozenset(), 2),
)
lat = CrossSectionLattice(build(CartanType("A", 1)), entries, torus_rank=2)
for route in (order_thm34, order_thm41):
    try:
        route(lat)
    except NonExactDivision:
        continue
    sys.exit(route.__name__ + " accepted a non-divisible entry")
"""


def run_optimized(args, tmp_path):
    src = os.path.dirname(os.path.dirname(monoid_orders.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_non_divisible_entry_raises_under_optimize(tmp_path):
    # python -O strips assert statements; the exactness checks must survive it
    result = run_optimized(["-c", OPTIMIZED_EXACTNESS_CHECK], tmp_path)
    assert result.returncode == 0, result.stderr


EXPONENT_ZERO_ERROR = (
    "error: entry 'e{}': non-zero entry must have torus_index_exponent >= 1\n"
)


@pytest.mark.parametrize("formula", ["thm34", "thm41"])
def test_exponent_zero_entry_exits_2(capsys, tmp_path, formula):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(A1_EXPONENT_ZERO))
    code = cli.main(["order", "--formula", formula, "--lattice-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == EXPONENT_ZERO_ERROR


@pytest.mark.parametrize("formula", ["thm34", "thm41"])
def test_exponent_zero_entry_exits_2_under_optimize(tmp_path, formula):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(A1_EXPONENT_ZERO))
    result = run_optimized(
        ["-m", "monoid_orders.cli", "order", "--formula", formula, "--lattice-file", str(path)],
        tmp_path,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == EXPONENT_ZERO_ERROR
