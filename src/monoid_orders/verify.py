"""Cross-check suite behind the `verify` CLI subcommand.

Each check pits a formula against an independent oracle (brute-force
enumeration, exhaustive identity testing, or a second formula route) and
returns whether it passed with a short detail line; run_all names it from
the ALL_CHECKS table.  A check that an enumeration or lattice bound stops
is skipped, not failed.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from . import oracle
from .crosssection import fundamental_lattice
from .errors import EnumerationTooLarge, GroupTooLarge, LatticeTooLarge
from .orders import (
    gl_strata,
    h_polynomial,
    order_thm31,
    order_thm33,
    order_thm34,
    order_thm41,
    symplectic_order,
)
from .qpoly import (
    ONE,
    Q_MINUS_ONE,
    Immutable,
    QPolynomial,
    eval_big,
    gaussian_binomial,
    is_palindromic,
    q_power_minus_one,
)
from .rootsystem import CartanType, build, degrees, poincare_product
from .weyl import coset_length_poly

# Frozen coefficient lists for the symplectic H-polynomials at l=2 and l=3.
H_COEFFS_L2 = (1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1)
H_COEFFS_L3 = (1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 4, 4, 4, 3, 2, 2, 1, 1, 1)

SOLOMON_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2")
COSET_TYPES = ("A3", "B3", "C3")

# (type, J0 rule) pairs for the four-formula agreement check.
AGREEMENT_CASES = (
    ("A1", "first"),
    ("A2", "first"),
    ("A3", "first"),
    ("C2", "last"),
    ("C3", "last"),
    ("C4", "last"),
)


class CheckResult(Immutable):
    __slots__ = _fields = ("name", "ok", "detail", "skipped")

    def __init__(self, name: str, ok: bool, detail: str, skipped: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "skipped", skipped)


def check_pascal_recurrence(enum_bound: int | None = None) -> tuple[bool, str]:
    # each q-binomial is on both sides of several instances: expand it once
    binomial = functools.cache(gaussian_binomial)
    cases = 0
    for base_power in (1, 2):
        for n in range(1, 9):
            for r in range(1, n):
                lhs = binomial(n, r, base_power)
                rhs = QPolynomial.monomial(base_power * r) * binomial(
                    n - 1, r, base_power
                ) + binomial(n - 1, r - 1, base_power)
                if lhs != rhs:
                    return False, f"fails at n={n}, r={r}"
                cases += 1
    return True, f"{cases} instances"


def check_solomon(enum_bound: int | None = None) -> tuple[bool, str]:
    for spec in SOLOMON_TYPES:
        ct = CartanType.parse(spec)
        rs = build(ct)
        delta = frozenset(range(1, rs.rank + 1))
        walked = coset_length_poly(rs, delta, frozenset(), enum_bound)
        if walked != poincare_product(ct):
            return False, f"mismatch for {spec}"
    return True, ", ".join(SOLOMON_TYPES)


def check_coset_identity(enum_bound: int | None = None) -> tuple[bool, str]:
    cases = 0
    for spec in COSET_TYPES:
        rs = build(CartanType.parse(spec))
        delta = frozenset(range(1, rs.rank + 1))
        w_poly = coset_length_poly(rs, delta, frozenset(), enum_bound)
        for mask in range(2**rs.rank):
            J = frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1)
            cosets = coset_length_poly(rs, delta, J, enum_bound)
            sub = coset_length_poly(rs, J, frozenset(), enum_bound)
            if cosets * sub != w_poly:
                return False, f"{spec}, J={sorted(J)}"
            cases += 1
    return True, f"{cases} parabolic quotients"


def check_rank_histograms(enum_bound: int | None = None) -> tuple[bool, str]:
    for n, p in ((2, 2), (2, 3), (3, 2), (3, 3)):
        counts = oracle.enumerate_rank_histogram(n, p, enum_bound)
        if sum(counts) != p ** (n * n):
            return False, f"(n={n}, p={p}) total {sum(counts)}"
        for r, (counted, stratum) in enumerate(zip(counts, gl_strata(n), strict=True)):
            expected = eval_big(stratum, p)
            if counted != expected:
                return (
                    False,
                    f"(n={n}, p={p}, r={r}) counted {counted}, formula {expected}",
                )
    return True, "(2,2) (2,3) (3,2) (3,3)"


def check_subspace_counts(enum_bound: int | None = None) -> tuple[bool, str]:
    for p in (2, 3):
        for n in range(5):
            for r, counted in enumerate(oracle.subspace_counts(n, p, enum_bound)):
                expected = eval_big(gaussian_binomial(n, r), p)
                if counted != expected:
                    return (
                        False,
                        f"(n={n}, r={r}, p={p}) counted {counted}, formula {expected}",
                    )
    return True, "n <= 4, p in {2, 3}"


def check_formula_agreement(enum_bound: int | None = None) -> tuple[bool, str]:
    for spec, weight in AGREEMENT_CASES:
        ct = CartanType.parse(spec)
        lat = fundamental_lattice(ct, 1 if weight == "first" else ct.rank, enum_bound)
        reports = (
            order_thm31(lat, enum_bound=enum_bound),
            order_thm33(lat, enum_bound=enum_bound),
            order_thm34(lat),
            order_thm41(lat),
        )
        # per-entry terms, not only totals: swapped terms keep the total
        if len({report.terms for report in reports}) != 1:
            return False, f"{spec} ({weight}-fundamental)"
    return True, ", ".join(f"{s}/{w}" for s, w in AGREEMENT_CASES)


def check_symplectic_closed_form(enum_bound: int | None = None) -> tuple[bool, str]:
    """Each stratum M^r of the closed form equals the thm41 term of entry r
    of the lattice, and the totals agree."""
    for l in range(2, 7):
        closed = symplectic_order(l)
        lattice_route = order_thm41(fundamental_lattice(CartanType("C", l), l))
        if closed.total != lattice_route.total:
            return False, f"l={l}"
        strata = [term for _, term in closed.terms]
        if strata != [term for _, term in lattice_route.terms]:
            return False, f"strata differ from the thm41 terms, l={l}"
    return True, "l = 2..6"


def check_h_polynomials(enum_bound: int | None = None) -> tuple[bool, str]:
    # computed when first checked, so the checks and their first failure
    # keep their order
    h = functools.cache(lambda l: h_polynomial(symplectic_order(l).total))
    for l, expected in ((2, H_COEFFS_L2), (3, H_COEFFS_L3)):
        if h(l).coeffs != expected:
            return False, f"coefficients differ at l={l}"
    for l in range(2, 7):
        if not is_palindromic(h(l)):
            return False, f"not palindromic at l={l}"
    return True, "l=2,3 coefficients; palindromic l=2..6"


def check_structural(enum_bound: int | None = None) -> tuple[bool, str]:
    for spec, weight in AGREEMENT_CASES:
        ct = CartanType.parse(spec)
        lat = fundamental_lattice(ct, 1 if weight == "first" else ct.rank)
        report = order_thm34(lat)
        terms = dict(report.terms)
        rs = lat.root_system
        if terms[lat.zero_entry.label] != ONE:
            return False, f"{spec}: zero term != 1"
        unit_order = QPolynomial.monomial(rs.num_positive) * Q_MINUS_ONE
        for d in degrees(rs.cartan_type):
            unit_order = unit_order * q_power_minus_one(d)
        if terms[lat.identity_entry.label] != unit_order:
            return False, f"{spec}: identity term != |G|"
        h_polynomial(report.total)  # raises NonExactDivision if not divisible
    return True, "zero/identity terms, (total-1)/(q-1)"


def check_gl_strata_sum(enum_bound: int | None = None) -> tuple[bool, str]:
    for n in range(1, 7):
        gl_strata(n)  # raises InvariantViolation unless the sum is q^{n^2}
    return True, "n = 1..6"


# The one name of each check, used by its ok, FAIL, skip and crash lines.
ALL_CHECKS: dict[str, Callable[..., tuple[bool, str]]] = {
    "pascal-recurrence": check_pascal_recurrence,
    "solomon-poincare": check_solomon,
    "coset-identity": check_coset_identity,
    "rank-histogram": check_rank_histograms,
    "subspace-count": check_subspace_counts,
    "formula-agreement": check_formula_agreement,
    "symplectic-closed-form": check_symplectic_closed_form,
    "h-polynomial": check_h_polynomials,
    "structural": check_structural,
    "gl-strata-sum": check_gl_strata_sum,
}


def run_all(enum_bound: int | None = None) -> list[CheckResult]:
    """Run every check with the bound, which the checks that enumerate
    nothing ignore; a check stopped by an enumeration or lattice bound is
    reported as skipped, and any other crash inside a check as its
    failure."""
    results = []
    for name, check in ALL_CHECKS.items():
        try:
            ok, detail = check(enum_bound=enum_bound)
        except (GroupTooLarge, EnumerationTooLarge, LatticeTooLarge) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, False, reason, skipped=True))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, ok, detail))
    return results
