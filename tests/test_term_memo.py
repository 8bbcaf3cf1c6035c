"""thm34 and thm41 step to each distinct factored term once per call.

The per-entry expansion the routes used before the memo is kept here as
the reference: every term must equal it, entry for entry.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import monoid_orders
from monoid_orders import cli, orders, qpoly
from monoid_orders.crosssection import (
    CrossSectionLattice,
    LatticeEntry,
    j_irreducible_lattice,
    load_lattice,
)
from monoid_orders.errors import NonExactDivision
from monoid_orders.qpoly import ONE, QPolynomial, QProduct, expand
from monoid_orders.rootsystem import (
    CartanType,
    build,
    degrees,
    poincare_factors,
)
from routes import route
from subdiagrams import components, star, subset_count, subset_degrees, substar

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
        for comp in components(rs, substar(entry)):
            denom = denom * factors(comp) ** 2
        for comp in components(rs, star(entry)):
            denom = denom * factors(comp)
        torus = QProduct.of(
            [1] * entry.torus_index_exponent,
            shift=subset_count(rs, star(entry)),
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
            [1] * (2 * len(star(entry) | substar(entry)) + 1),
            shift=subset_count(rs, star(entry)),
        )
        denom = QProduct.of([1] * (2 * rs.rank))
        for comp in components(rs, substar(entry)):
            denom = denom * QProduct.of(subset_degrees(rs, comp)) ** 2
        for comp in components(rs, star(entry)):
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
    """The Phi-exponent field tuples that expand_all steps to, in order."""
    calls = []
    real = qpoly._binomial_powers

    def counting_powers(fields):
        calls.append(fields)
        return real(fields)

    monkeypatch.setattr(qpoly, "_binomial_powers", counting_powers)
    return calls


@pytest.mark.parametrize("spec", SMALL_TYPES)
def test_memoized_terms_equal_per_entry_expansion(spec):
    rs = build(CartanType.parse(spec))
    for mask in range(2**rs.rank - 1):  # every J0 except Delta
        J0 = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
        lat = j_irreducible_lattice(rs, J0)
        for name, products in (("thm34", thm34_products), ("thm41", thm41_products)):
            expected = reference_terms(products(lat))
            report = route(lat, name)
            assert report.terms == expected, (spec, sorted(J0), name)
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
    report = route(lat, "thm34")
    # the zero entry's empty product, then a (b's as well), c and the identity
    assert len(calls) == len(set(calls)) == 1 + distinct_phi(products.items()) == 4
    expected = reference_terms(products.items())
    assert report.terms == expected
    assert report.total == reference_total(expected)
    terms = dict(report.terms)
    assert terms["a"] == QPolynomial.monomial(2) * terms["b"]
    assert terms["c"] == QPolynomial([-1, 1]) * terms["b"]


SHARED_DEGREES_LATTICE = {
    "type": "A3",
    "torus_rank": 4,
    "entries": [
        {"label": "0", "lambda_star": [], "lambda_substar": [1, 2, 3], "torus_index_exponent": 0},
        # b and c: different subsets, the same degree tuples ((2,) and ()),
        # torus exponents 1 and 3
        {"label": "b", "lambda_star": [], "lambda_substar": [1], "torus_index_exponent": 1},
        {"label": "c", "lambda_star": [], "lambda_substar": [3], "torus_index_exponent": 3},
        # d shares b's key exactly
        {"label": "d", "lambda_star": [], "lambda_substar": [3], "torus_index_exponent": 1},
        {"label": "1", "lambda_star": [1, 2, 3], "lambda_substar": [], "torus_index_exponent": 4},
    ],
}


def test_shared_degree_tuples_differ_by_their_torus_power(capsys, monkeypatch, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(SHARED_DEGREES_LATTICE))
    built = []
    real = orders.poincare_factors
    monkeypatch.setattr(
        orders, "poincare_factors", lambda ds: built.append(ds) or real(ds)
    )
    code = cli.main(
        ["order", "--formula", "thm34", "--format", "json", "--lattice-file", str(path)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    terms = {t["label"]: QPolynomial(t["coeffs"]) for t in payload["terms"]}
    q_minus_one = QPolynomial([-1, 1])
    assert terms["c"] == q_minus_one * q_minus_one * terms["b"]
    assert terms["d"] == terms["b"]
    lat = load_lattice(build(CartanType("A", 3)), SHARED_DEGREES_LATTICE)
    assert tuple(terms.items()) == reference_terms(thm34_products(lat))
    # |W| once, then two factors per key: the zero entry, (b, d), c and
    # the identity
    assert len(built) == 1 + 2 * 4


# Distinct Phi-exponent maps among the nonzero entries of each lattice.
PINNED_EXPANSIONS = [("A10", "", 1025, 56), ("D10", "2,4,6,8", 674, 123), ("A14", "", 16385, 176)]


@pytest.mark.parametrize("spec, j0, entries, expansions", PINNED_EXPANSIONS)
def test_each_distinct_phi_expanded_once_per_call(monkeypatch, spec, j0, entries, expansions):
    lat = lattice(spec, j0)
    assert len(lat.entries) == entries
    assert distinct_phi(thm34_products(lat)) == expansions
    calls = count_expands(monkeypatch)
    for name in ("thm34", "thm41"):
        del calls[:]
        route(lat, name)
        # plus the zero entry's empty product
        assert len(calls) == 1 + expansions, name
        # each tuple is stepped to once, its q-shift split off
        assert len(set(calls)) == len(calls), name


def test_no_memo_outlives_its_call(monkeypatch):
    # thm34 twice, then thm41: no call reads the memo of an earlier call or
    # of another route, so each steps to all 56 distinct products again,
    # and to the zero entry's empty one
    lat = lattice("A10", "")
    assert distinct_phi(thm41_products(lat)) == 56
    calls = count_expands(monkeypatch)
    for name in ("thm34", "thm34", "thm41"):
        del calls[:]
        route(lat, name)
        assert len(calls) == 1 + 56, name


def non_divisible_lattice():
    """A1 with an entry whose lambda_star and lambda_substar overlap, built
    without validate: its denominator Phi_2^3 does not divide |W(q)|^2."""
    rs = build(CartanType("A", 1))
    entries = (
        LatticeEntry("0", 0, 0b1, 0),
        LatticeEntry("e{}", 0, 0, 1),
        LatticeEntry("bad", 0b1, 0b1, 2),
        LatticeEntry("1", 0b1, 0, 2),
    )
    return CrossSectionLattice(rs, entries, torus_rank=2)


def test_non_divisible_entry_still_raises():
    lat = non_divisible_lattice()
    for name in ("thm34", "thm41"):
        with pytest.raises(NonExactDivision):
            route(lat, name)


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
from monoid_orders.orders import all_orders
from monoid_orders.rootsystem import CartanType, build

if not sys.flags.optimize:
    sys.exit("not running under -O")
entries = (
    LatticeEntry("0", 0, 0b1, 0),
    LatticeEntry("e{}", 0, 0, 1),
    LatticeEntry("bad", 0b1, 0b1, 2),
    LatticeEntry("1", 0b1, 0, 2),
)
lat = CrossSectionLattice(build(CartanType("A", 1)), entries, torus_rank=2)
for name in ("thm34", "thm41"):
    try:
        all_orders(lat, routes=(name,))
    except NonExactDivision:
        continue
    sys.exit(name + " accepted a non-divisible entry")
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
