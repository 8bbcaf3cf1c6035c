"""Order formulas for finite reductive monoids with zero.

Four independent routes to the same total, all exact polynomials in q:

  order_thm31  orbit sizes |G|^2 / (|P(e)||K(e)||U(e)|), every group order
               derived from brute-force Weyl enumeration;
  order_thm33  coset-representative length sums [T:T(e)] q^{N*} D(e) D_*(e),
               cross-checking enumerated sums against exact quotients;
  order_thm34  invariant-degree products only, no enumeration;
  order_thm41  the closed form for weight-support (J-irreducible) lattices.

Plus closed forms for the two published stratifications (full matrix monoid
and symplectic monoid) and the H-polynomial extraction (|M|-1)/(q-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crosssection import (
    PAPER_VERIFIED,
    CrossSectionLattice,
    LatticeEntry,
    is_j_irreducible,
)
from .errors import GroupTooLarge, IndexOutOfRange, InvariantViolation, NotJIrreducible
from .qpoly import (
    ONE,
    Q_MINUS_ONE,
    QPolynomial,
    QProduct,
    div_exact,
    eval_big,
    expand,
    gaussian_factors,
)
from .rootsystem import (
    CartanType,
    connected_components,
    degrees,
    poincare_factors,
    poincare_product,
    positive_count_of_subset,
    subset_poincare,
)
from .weyl import WeylGroup, coset_length_poly, generate, length_gen_poly, parabolic

BC_NOTE = "B_r/C_r component tags are interchangeable for order computations"


@dataclass(frozen=True)
class GroupSizes:
    """Orders of G, P(e), K(e), U(e), L(e) as polynomials in q."""

    size_G: QPolynomial
    size_P: QPolynomial
    size_K: QPolynomial
    size_U: QPolynomial
    size_L: QPolynomial


@dataclass
class OrderReport:
    formula: str
    cartan_type: CartanType
    terms: tuple[tuple[str, QPolynomial], ...]
    total: QPolynomial
    lattice: CrossSectionLattice | None = None
    notes: tuple[str, ...] = ()
    evaluations: dict[int, int] = field(default_factory=dict)

    def evaluate(self, qs) -> "OrderReport":
        """Evaluate the total at each q0, asserting every term is positive."""
        for q0 in qs:
            for label, term in self.terms:
                if eval_big(term, q0) <= 0:
                    raise InvariantViolation(
                        f"term {label!r} is not positive at q={q0}"
                    )
            self.evaluations[q0] = eval_big(self.total, q0)
        return self

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
    rs = lat.root_system
    for e in lat.entries:
        for X in (e.lambda_star, e.lambda_substar):
            for _, ct in connected_components(rs, X):
                if ct.family in ("B", "C") and ct.rank >= 2:
                    notes.append(BC_NOTE)
                    return tuple(notes)
    return tuple(notes)


def _finish(
    formula: str,
    lat: CrossSectionLattice,
    terms: list[tuple[str, QPolynomial]],
) -> OrderReport:
    total = QPolynomial()
    for _, term in terms:
        total = total + term
    return OrderReport(
        formula=formula,
        cartan_type=lat.root_system.cartan_type,
        terms=tuple(terms),
        total=total,
        lattice=lat,
        notes=_lattice_notes(lat),
    )


class _ParabolicPolys:
    """Cache of enumerated length generating polynomials per subset."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self._cache: dict[frozenset[int], QPolynomial] = {}

    def __call__(self, J: frozenset[int]) -> QPolynomial:
        if J not in self._cache:
            self._cache[J] = length_gen_poly(parabolic(self.group, J))
        return self._cache[J]


def group_sizes(
    lat: CrossSectionLattice,
    entry: LatticeEntry,
    group: WeylGroup,
    subgroup_polys: _ParabolicPolys | None = None,
) -> GroupSizes:
    """Group orders attached to one lattice entry, from enumerated lengths."""
    rs = lat.root_system
    if subgroup_polys is None:
        subgroup_polys = _ParabolicPolys(group)
    N = rs.num_positive
    rho = lat.torus_rank
    lam = entry.lambda_union
    n_lam = positive_count_of_subset(rs, lam)
    n_sub = positive_count_of_subset(rs, entry.lambda_substar)
    torus = Q_MINUS_ONE**rho
    torus_e = Q_MINUS_ONE ** (rho - entry.torus_index_exponent)
    p_lam = subgroup_polys(lam)
    p_sub = subgroup_polys(entry.lambda_substar)
    w_poly = length_gen_poly(group)
    return GroupSizes(
        size_G=QPolynomial.monomial(N) * torus * w_poly,
        size_P=QPolynomial.monomial(N) * torus * p_lam,
        size_K=QPolynomial.monomial(n_sub) * torus_e * p_sub,
        size_U=QPolynomial.monomial(N - n_lam),
        size_L=QPolynomial.monomial(n_lam) * torus * p_lam,
    )


def isotropy_size(sizes: GroupSizes) -> QPolynomial:
    """Cardinality of the two-sided stabilizer of e: |P(e)| |U(e)| |K(e)|."""
    return sizes.size_P * sizes.size_U * sizes.size_K


def order_thm31(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> OrderReport:
    """Order by orbit sizes: sum over entries of |G|^2 / isotropy.

    Every group order comes from enumerated Weyl-group lengths, so this
    route shares no code with the degree-product formulas.
    """
    group = generate(lat.root_system, enum_bound)
    polys = _ParabolicPolys(group)
    g_squared = None
    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        sizes = group_sizes(lat, entry, group, polys)
        if g_squared is None:
            g_squared = sizes.size_G * sizes.size_G
        terms.append((entry.label, div_exact(g_squared, isotropy_size(sizes))))
    return _finish("thm31", lat, terms)


def order_thm33(
    lat: CrossSectionLattice,
    weyl_group: WeylGroup | None = None,
    *,
    enum_bound: int | None = None,
) -> OrderReport:
    """Order by coset-representative length sums.

    Each coset sum is an exact quotient of length generating polynomials;
    when the ambient group is small enough to enumerate, the sum is also
    counted directly over minimal coset representatives and the two must
    agree.
    """
    rs = lat.root_system
    group = weyl_group
    if group is None:
        try:
            group = generate(rs, enum_bound)
        except GroupTooLarge:
            group = None
    p_w = poincare_product(rs.cartan_type)
    quotients: dict[frozenset[int], QPolynomial] = {}

    def coset_sum(J: frozenset[int]) -> QPolynomial:
        if J not in quotients:
            value = div_exact(p_w, subset_poincare(rs, J))
            if group is not None and value != coset_length_poly(group, J):
                raise InvariantViolation(f"coset sum mismatch for J={sorted(J)}")
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
    return _finish("thm33", lat, terms)


def order_thm34(lat: CrossSectionLattice) -> OrderReport:
    """Order by invariant-degree products; no group enumeration at all."""
    rs = lat.root_system
    p_w_squared = poincare_factors(rs.cartan_type) ** 2
    terms = []
    for entry in lat.entries:
        if lat.is_zero(entry):
            terms.append((entry.label, ONE))
            continue
        denom = QProduct()
        for _, ct in connected_components(rs, entry.lambda_substar):
            denom = denom * poincare_factors(ct) ** 2
        for _, ct in connected_components(rs, entry.lambda_star):
            denom = denom * poincare_factors(ct)
        torus = QProduct.of(
            [1] * entry.torus_index_exponent,
            shift=positive_count_of_subset(rs, entry.lambda_star),
        )
        terms.append((entry.label, expand(torus * (p_w_squared / denom))))
    return _finish("thm34", lat, terms)


def order_thm41(lat: CrossSectionLattice) -> OrderReport:
    """Closed form for weight-support lattices.

    Valid only when [T:T(e)] = (q-1)^(|lambda_star|+1) throughout, which the
    weight-support construction guarantees; the nonzero term is

        q^{N*(e)} (q-1)^{2(|lambda(e)|-l)+1} prod (q^{d_i}-1)^2 / denominator

    with the denominator built from the component degrees of the type map.
    """
    if not is_j_irreducible(lat):
        raise NotJIrreducible(
            "lattice torus-index exponents do not follow the |lambda*|+1 rule"
        )
    rs = lat.root_system
    ambient = QProduct.of(degrees(rs.cartan_type)) ** 2
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
        denom = QProduct.of([1] * (2 * rs.rank))
        for _, ct in connected_components(rs, entry.lambda_substar):
            denom = denom * QProduct.of(degrees(ct)) ** 2
        for _, ct in connected_components(rs, entry.lambda_star):
            denom = denom * QProduct.of(degrees(ct))
        terms.append((entry.label, expand(numer / denom)))
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


def symplectic_h_polynomial(l: int) -> QPolynomial:
    """H-polynomial of the symplectic monoid on a 2l-dimensional space."""
    if l < 2:
        raise ValueError("need l >= 2")
    total = QPolynomial()
    for r in range(l + 1):
        total = total + expand(_symplectic_factors(l, r))
    return total


def symplectic_stratum(l: int, r: int) -> QPolynomial:
    """Number of symplectic-monoid elements at chain height r (0..l+1)."""
    if r < 0 or r > l + 1:
        raise IndexOutOfRange(f"need 0 <= r <= l+1, got l={l}, r={r}")
    if r == 0:
        return ONE
    return expand(QProduct.of([1]) * _symplectic_factors(l, r - 1))


def symplectic_order(l: int) -> OrderReport:
    """Closed-form order of the finite symplectic monoid, with its strata."""
    if l < 2:
        raise ValueError("need l >= 2")
    total = ONE + Q_MINUS_ONE * symplectic_h_polynomial(l)
    terms = tuple(
        (f"M^{r}", symplectic_stratum(l, r)) for r in range(l + 2)
    )
    return OrderReport(
        formula="symplectic",
        cartan_type=CartanType("C", l),
        terms=terms,
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
