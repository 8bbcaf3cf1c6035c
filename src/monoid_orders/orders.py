"""Order formulas for finite reductive monoids with zero.

Four independent routes to the same total, all exact polynomials in q:

  order_thm31  orbit sizes |G|^2 / (|P(e)||K(e)||U(e)|), every Weyl-group
               factor counted by the chained descent walks in weyl.py;
  order_thm33  coset-representative length sums [T:T(e)] q^{N*} D(e) D_*(e),
               cross-checking walked sums against exact quotients;
  order_thm34  invariant-degree products only, no enumeration;
  order_thm41  the closed form for weight-support (J-irreducible) lattices.

The degree-based routes read the degrees of each parabolic subgroup W_X
from rootsystem.subset_degrees, never from a classification of X.

Plus closed forms for the two published stratifications (full matrix monoid
and the last-fundamental, omega_l, monoid of type C_l; the natural
2l-dimensional monoid is omega_1, which has no closed form here) and the
H-polynomial extraction (|M|-1)/(q-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from itertools import zip_longest

from .crosssection import (
    PAPER_VERIFIED,
    CrossSectionLattice,
    is_j_irreducible,
)
from .errors import GroupTooLarge, IndexOutOfRange, InvariantViolation, NotJIrreducible
from .qpoly import (
    ONE,
    Q_MINUS_ONE,
    QPolynomial,
    QProduct,
    _times_binomial,
    div_exact,
    eval_big,
    expand,
    gaussian_factors,
)
from .rootsystem import (
    CartanType,
    degrees,
    poincare_factors,
    poincare_product,
    positive_count_of_subset,
    subset_degrees,
    subset_poincare,
)
from .weyl import coset_length_poly

BC_NOTE = "B_r/C_r component tags are interchangeable for order computations"


@dataclass(frozen=True)
class OrderReport:
    formula: str
    cartan_type: CartanType
    terms: tuple[tuple[str, QPolynomial], ...]
    total: QPolynomial
    lattice: CrossSectionLattice | None = None
    notes: tuple[str, ...] = ()
    evaluations: dict[int, int] = field(default_factory=dict)

    def evaluate(self, qs) -> "OrderReport":
        """A copy with the total evaluated at each q0, asserting every term
        is positive there."""
        evaluations = dict(self.evaluations)
        for q0 in qs:
            for label, term in self.terms:
                if eval_big(term, q0) <= 0:
                    raise InvariantViolation(
                        f"term {label!r} is not positive at q={q0}"
                    )
            evaluations[q0] = eval_big(self.total, q0)
        return replace(self, evaluations=evaluations)

    def to_json(self) -> dict:
        return {
            "formula": self.formula,
            "type": str(self.cartan_type),
            "lattice": self.lattice.to_json() if self.lattice else None,
            "terms": [
                {"label": label, "coeffs": term.to_json()}
                for label, term in self.terms
            ],
            "total_coeffs": self.total.to_json(),
            "evaluations": {str(q0): str(v) for q0, v in self.evaluations.items()},
            "notes": list(self.notes),
        }


def _lattice_notes(lat: CrossSectionLattice) -> tuple[str, ...]:
    notes = [f"type map: {lat.provenance}"]
    c = lat.root_system.cartan
    # the double bond of B_l, C_l or F4: a subset of the diagram has a B/C
    # component exactly when it holds the bond and is not the whole of F4
    bond = {
        i + 1 for i, row in enumerate(c) for j, x in enumerate(row) if x * c[j][i] == 2
    }
    f4 = lat.all_simple if lat.root_system.cartan_type.family == "F" else None
    halves = (X for e in lat.entries for X in (e.lambda_star, e.lambda_substar))
    if bond and any(bond <= X and X != f4 for X in halves):
        notes.append(BC_NOTE)
    return tuple(notes)


def _poly_sum(polys) -> QPolynomial:
    """Sum by columns: one pass over all coefficient tuples, not one
    addition per polynomial."""
    columns = zip_longest(*(p.coeffs for p in polys), fillvalue=0)
    return QPolynomial(map(sum, columns))


def _finish(
    formula: str,
    lat: CrossSectionLattice,
    terms: list[tuple[str, QPolynomial]],
    notes: tuple[str, ...] = (),
) -> OrderReport:
    total = _poly_sum(term for _, term in terms)
    at_one = sum(total.coeffs)
    if at_one != 1:
        raise InvariantViolation(f"{formula} total is {at_one} at q=1, not 1")
    return OrderReport(
        formula=formula,
        cartan_type=lat.root_system.cartan_type,
        terms=tuple(terms),
        total=total,
        lattice=lat,
        notes=_lattice_notes(lat) + notes,
    )


def order_thm31(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> OrderReport:
    """Order by orbit sizes: sum over entries of |G|^2 / (|P(e)||U(e)||K(e)|).

    Every group order comes from walked Weyl-group lengths, so this
    route shares no code with the degree-product formulas.  Each W_X(q)
    is walked once per call.
    """
    rs = lat.root_system
    walked = cache(lambda X: coset_length_poly(rs, X, frozenset(), enum_bound))
    N = rs.num_positive
    rho = lat.torus_rank
    q_n_torus = QPolynomial.monomial(N) * Q_MINUS_ONE**rho
    size_G = q_n_torus * walked(frozenset(range(1, rs.rank + 1)))
    g_squared = size_G * size_G
    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        lam, sub = entry.lambda_union, entry.lambda_substar
        size_P = q_n_torus * walked(lam)
        size_U = QPolynomial.monomial(N - positive_count_of_subset(rs, lam))
        size_K = (
            QPolynomial.monomial(positive_count_of_subset(rs, sub))
            * Q_MINUS_ONE ** (rho - entry.torus_index_exponent)
            * walked(sub)
        )
        terms.append((entry.label, div_exact(g_squared, size_P * size_U * size_K)))
    return _finish("thm31", lat, terms)


def order_thm33(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> OrderReport:
    """Order by coset-representative length sums.

    Each coset sum is an exact quotient of length generating polynomials;
    when the ambient group is small enough to enumerate, the sum is also
    walked directly over minimal coset representatives and the two must
    agree.  Otherwise the report notes that the cross-check was skipped.
    """
    rs = lat.root_system
    delta = frozenset(range(1, rs.rank + 1))
    p_w = poincare_product(rs.cartan_type)
    quotients: dict[frozenset[int], QPolynomial] = {}
    skipped: list[str] = []

    def coset_sum(J: frozenset[int]) -> QPolynomial:
        if J not in quotients:
            value = div_exact(p_w, subset_poincare(rs, J))
            if not skipped:
                try:
                    walked = coset_length_poly(rs, delta, J, enum_bound)
                except GroupTooLarge:
                    skipped.append("skipped thm33 coset cross-check (GroupTooLarge)")
                else:
                    if value != walked:
                        raise InvariantViolation(
                            f"coset sum mismatch for J={sorted(J)}"
                        )
            quotients[J] = value
        return quotients[J]

    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        n_star = positive_count_of_subset(rs, entry.lambda_star)
        term = (
            Q_MINUS_ONE**entry.torus_index_exponent
            * QPolynomial.monomial(n_star)
            * coset_sum(entry.lambda_union)
            * coset_sum(entry.lambda_substar)
        )
        terms.append((entry.label, term))
    return _finish("thm33", lat, terms, tuple(skipped))


def _expand_phi(phi: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Coefficients of prod Phi_n^e_n over the (n, e_n) pairs of phi."""
    return expand(QProduct(phi=phi)).coeffs


def _expand_shifted(expanded, product: QProduct) -> QPolynomial:
    """product in dense form: the expansion of its Phi exponents, looked up
    in expanded, shifted by its own power of q."""
    return QPolynomial((0,) * product.shift + expanded(product.phi))


def order_thm34(lat: CrossSectionLattice) -> OrderReport:
    """Order by invariant-degree products; no group enumeration at all.

    Each term is q^{N*(e)} times a product of cyclotomic polynomials.
    Within one call each distinct product is expanded once, keyed by its
    Phi exponents (terms that differ only in the power of q share it), and
    each subset's Poincare factors are built once.
    """
    rs = lat.root_system
    p_w_squared = poincare_factors(degrees(rs.cartan_type)) ** 2
    factor = cache(lambda X: poincare_factors(subset_degrees(rs, X)))
    expanded = cache(_expand_phi)
    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        denom = factor(entry.lambda_substar) ** 2 * factor(entry.lambda_star)
        torus = QProduct.of(
            [1] * entry.torus_index_exponent,
            shift=positive_count_of_subset(rs, entry.lambda_star),
        )
        term = _expand_shifted(expanded, torus * (p_w_squared / denom))
        terms.append((entry.label, term))
    return _finish("thm34", lat, terms)


def order_thm41(lat: CrossSectionLattice) -> OrderReport:
    """Closed form for weight-support lattices.

    Valid only when [T:T(e)] = (q-1)^(|lambda_star|+1) throughout, which the
    weight-support construction guarantees; the nonzero term is

        q^{N*(e)} (q-1)^{2(|lambda(e)|-l)+1} prod (q^{d_i}-1)^2 / denominator

    with the denominator built from the degrees of the type map's parabolic
    subgroups.  As in thm34, but with memos of its own, each distinct product
    is expanded once per call and each subset's degrees factored once.
    """
    if not is_j_irreducible(lat):
        raise NotJIrreducible(
            "lattice torus-index exponents do not follow the |lambda*|+1 rule"
        )
    rs = lat.root_system
    ambient = QProduct.of(degrees(rs.cartan_type)) ** 2
    torus_squared = QProduct.of([1] * (2 * rs.rank))
    factor = cache(lambda X: QProduct.of(subset_degrees(rs, X)))
    expanded = cache(_expand_phi)
    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        # the (q-1)^{2(|lambda(e)|-l)+1} factor, split across both sides
        numer = ambient * QProduct.of(
            [1] * (2 * len(entry.lambda_union) + 1),
            shift=positive_count_of_subset(rs, entry.lambda_star),
        )
        denom = (
            torus_squared
            * factor(entry.lambda_substar) ** 2
            * factor(entry.lambda_star)
        )
        terms.append((entry.label, _expand_shifted(expanded, numer / denom)))
    return _finish("thm41", lat, terms)


def _q_power_plus_one(i: int) -> QProduct:
    return QProduct.of([2 * i]) / QProduct.of([i])


def _symplectic_factors(l: int, r: int) -> QProduct:
    """q^{r^2} [l, r]_{q^2}^2 prod_{i<=r} (q^{2i}-1) prod_{i<=l-r} (q^i+1)^2."""
    term = QProduct.of((2 * i for i in range(1, r + 1)), shift=r * r)
    term = term * gaussian_factors(l, r, 2) ** 2
    for i in range(1, l - r + 1):
        term = term * _q_power_plus_one(i) ** 2
    return term


def symplectic_order(l: int) -> OrderReport:
    """Closed-form order of the omega_l monoid of type C_l, l >= 2, with its
    strata.

    Each of the l+1 H terms is expanded once; the total is 1 + (q-1) H, and
    stratum r is H term r-1 times (q-1) by one shift-subtract.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    h_terms = [expand(_symplectic_factors(l, r)) for r in range(l + 1)]
    total = ONE + Q_MINUS_ONE * _poly_sum(h_terms)
    strata = [ONE] + [QPolynomial(_times_binomial(list(t.coeffs), 1)) for t in h_terms]
    return OrderReport(
        formula="symplectic",
        cartan_type=CartanType("C", l),
        terms=tuple((f"M^{r}", term) for r, term in enumerate(strata)),
        total=total,
        notes=("type map: " + PAPER_VERIFIED,),
    )


def gl_strata(n: int, r: int) -> QPolynomial:
    """Number of n-by-n matrices of rank r over a q-element field."""
    if r < 0 or r > n:
        raise IndexOutOfRange(f"need 0 <= r <= n, got n={n}, r={r}")
    term = QProduct.of(range(1, r + 1), shift=r * (r - 1) // 2)
    return expand(term * gaussian_factors(n, r) ** 2)


def h_polynomial(order_total: QPolynomial) -> QPolynomial:
    """H with (|M| - 1) = (q - 1) H(q); exact by construction for split M."""
    return div_exact(order_total - ONE, Q_MINUS_ONE)
