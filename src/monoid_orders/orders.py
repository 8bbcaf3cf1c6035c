"""Order formulas for finite reductive monoids with zero.

Four independent routes to the same total, all exact polynomials in q:

  order_thm31  orbit sizes |G|^2 / (|P(e)||K(e)||U(e)|), every Weyl-group
               factor counted by the chained descent walks in weyl.py;
  order_thm33  coset-representative length sums [T:T(e)] q^{N*} D(e) D_*(e),
               cross-checking walked sums against exact factored quotients;
  order_thm34  invariant-degree products only, no enumeration;
  order_thm41  the closed form for weight-support (J-irreducible) lattices.

thm33, thm34 and thm41 give each term as a factored QProduct and share one
loop that expands it; only thm31 keeps dense division.  The degree-based
routes read the degrees of each parabolic subgroup W_X from
rootsystem.subset_degrees, never from a classification of X.

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
    _over_binomial,
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
    positive_count_of_subset,
    subset_degrees,
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


def _factored_terms(lat: CrossSectionLattice, term) -> list[tuple[str, QPolynomial]]:
    """Each entry's term: 1 for the zero entry, else the QProduct term(entry)
    in dense form, each distinct Phi-exponent tuple expanded once per call
    and shifted by the product's own power of q."""
    expanded = cache(lambda phi: expand(QProduct(phi=phi)).coeffs)

    def dense(product: QProduct) -> QPolynomial:
        return QPolynomial((0,) * product.shift + expanded(product.phi))

    return [(e.label, ONE if lat.is_zero(e) else dense(term(e))) for e in lat.entries]


def _torus(rs, entry) -> QProduct:
    """q^{N*(e)} (q-1)^{torus index exponent}, the torus part of a term."""
    n_star = positive_count_of_subset(rs, entry.lambda_star)
    return QProduct.of([1] * entry.torus_index_exponent, shift=n_star)


def order_thm33(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> OrderReport:
    """Order by coset-representative length sums.

    Each coset sum W/W_J is an exact factored quotient of Poincare products.
    While the ambient group is small enough to walk, the expanded quotient
    must equal the sum walked over minimal coset representatives; otherwise
    the report notes that the cross-check was skipped.
    """
    rs = lat.root_system
    delta = frozenset(range(1, rs.rank + 1))
    p_w = poincare_factors(degrees(rs.cartan_type))
    skipped: list[str] = []

    @cache
    def coset_sum(J: frozenset[int]) -> QProduct:
        value = p_w / poincare_factors(subset_degrees(rs, J))
        if not skipped:
            try:
                walked = coset_length_poly(rs, delta, J, enum_bound)
            except GroupTooLarge:
                skipped.append("skipped thm33 coset cross-check (GroupTooLarge)")
            else:
                if expand(value) != walked:
                    raise InvariantViolation(f"coset sum mismatch for J={sorted(J)}")
        return value

    def term(entry) -> QProduct:
        cosets = coset_sum(entry.lambda_union) * coset_sum(entry.lambda_substar)
        return _torus(rs, entry) * cosets

    terms = _factored_terms(lat, term)
    return _finish("thm33", lat, terms, tuple(skipped))


def order_thm34(lat: CrossSectionLattice) -> OrderReport:
    """Order by invariant-degree products; no group enumeration at all.

    Each term is q^{N*(e)} times a product of cyclotomic polynomials.  Per
    call, each subset's degrees are read once and each distinct degree
    tuple is factored once (A14 has 16,384 subsets but 176 tuples).
    """
    rs = lat.root_system
    p_w_squared = poincare_factors(degrees(rs.cartan_type)) ** 2
    by_degrees = cache(poincare_factors)
    factor = cache(lambda X: by_degrees(subset_degrees(rs, X)))

    def term(entry) -> QProduct:
        denom = factor(entry.lambda_substar) ** 2 * factor(entry.lambda_star)
        return _torus(rs, entry) * (p_w_squared / denom)

    return _finish("thm34", lat, _factored_terms(lat, term))


def order_thm41(lat: CrossSectionLattice) -> OrderReport:
    """Closed form for weight-support lattices.

    Valid only when [T:T(e)] = (q-1)^(|lambda_star|+1) throughout, which the
    weight-support construction guarantees; the nonzero term is

        q^{N*(e)} (q-1)^{2(|lambda(e)|-l)+1} prod (q^{d_i}-1)^2 / denominator

    with the denominator built from the degrees of the type map's parabolic
    subgroups, each subset's degrees factored once per call.
    """
    if not is_j_irreducible(lat):
        raise NotJIrreducible(
            "lattice torus-index exponents do not follow the |lambda*|+1 rule"
        )
    rs = lat.root_system
    ambient = QProduct.of(degrees(rs.cartan_type)) ** 2
    torus_squared = QProduct.of([1] * (2 * rs.rank))
    factor = cache(lambda X: QProduct.of(subset_degrees(rs, X)))

    def term(entry) -> QProduct:
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
        return numer / denom

    return _finish("thm41", lat, _factored_terms(lat, term))


def symplectic_order(l: int) -> OrderReport:
    """Closed-form order of the omega_l monoid of type C_l, l >= 2, with its
    strata.

    H term r is q^{r^2} [l, r]_{q^2}^2 prod_{i<=r} (q^{2i}-1) prod_{i<=l-r}
    (q^i+1)^2.  Term 0 is expanded once; term r+1 is term r times
    q^{2r+1} (q^{l-r}-1)^2 / (q^{2r+2}-1) by shift-subtracts and one exact
    sparse division, and term l must equal q^{l^2} prod (q^{2i}-1).  The
    total is 1 + (q-1) H; stratum r is (q-1) times H term r-1.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    evens = [2 * i for i in range(1, l + 1)]
    term_0 = QProduct.of(evens) ** 2 / QProduct.of(range(1, l + 1)) ** 2
    coeffs = list(expand(term_0).coeffs)
    h_terms = [QPolynomial(coeffs)]
    for r in range(l):
        coeffs = _times_binomial(_times_binomial(coeffs, l - r), l - r)
        coeffs = [0] * (2 * r + 1) + _over_binomial(coeffs, 2 * r + 2)
        h_terms.append(QPolynomial(coeffs))
    if h_terms[-1] != expand(QProduct.of(evens, shift=l * l)):
        raise InvariantViolation(f"C{l} ratio steps missed the top H term")
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
    return QPolynomial(_over_binomial(list((order_total - ONE).coeffs), 1))
