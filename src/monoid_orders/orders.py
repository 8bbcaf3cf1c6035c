"""Order formulas for finite reductive monoids with zero.

Four independent routes to the same total, all exact polynomials in q:

  order_thm31  orbit sizes |G|^2 / (|P(e)||K(e)||U(e)|) with the torus and
               unipotent factors cancelled, every Weyl-group factor counted
               by the chained descent walks in weyl.py;
  order_thm33  coset-representative length sums [T:T(e)] q^{N*} D(e) D_*(e),
               cross-checking walked sums against exact factored quotients;
  order_thm34  invariant-degree products only, no enumeration;
  order_thm41  the closed form for weight-support (J-irreducible) lattices.

thm33, thm34 and thm41 give each term, the zero entry's included, as a
factored QProduct, and one qpoly.expand_all call per route expands them all;
only thm31 divides densely, the walked W(q) by each walked W_X(q) once per
call.  The degree-based routes read the degrees of each parabolic subgroup
W_X from rootsystem.subset_degrees, never from a classification of X.

The H-polynomial reads thm34's total, which order_thm34 sums once per
thm34 key, times the number of entries sharing it; for type A with
J0 = {}, chain_total sums it along the Dynkin chain instead, listing no
lattice, so it is bounded by its own product size, not the lattice bound.

Plus closed forms for the two published stratifications (full matrix monoid
and the last-fundamental, omega_l, monoid of type C_l; the natural
2l-dimensional monoid is omega_1, which has no closed form here), whose
strata are QProducts expanded through the same expand_all, and the
H-polynomial extraction (|M|-1)/(q-1).  The strata are checked here, where
they are built: gl_strata raises InvariantViolation unless the matrix strata
sum to q^{n^2}, and symplectic_order unless its total has an exact,
palindromic H-polynomial.  Reports carry no values at any q: cli evaluates
every printed row once per q and checks that each value is positive.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .crosssection import (
    PAPER_VERIFIED,
    CrossSectionLattice,
    is_j_irreducible,
    support_provenance,
)
from .errors import (
    GroupTooLarge,
    InvariantViolation,
    LatticeTooLarge,
    NotJIrreducible,
    UnsupportedType,
)
from .qpoly import (
    ONE,
    Q_MINUS_ONE,
    Immutable,
    QPolynomial,
    QProduct,
    div_exact,
    expand,
    expand_all,
    gaussian_factors,
    is_palindromic,
    poly_sum,
)
from .rootsystem import (
    CartanType,
    RootSystemData,
    degrees,
    poincare_factors,
    poincare_product,
    positive_count_of_subset,
    subset_degrees,
)
from .weyl import DEFAULT_ENUM_BOUND, coset_length_poly

BC_NOTE = "B_r/C_r component tags are interchangeable for order computations"


class OrderReport(Immutable):
    __slots__ = _fields = (
        "formula",
        "cartan_type",
        "terms",
        "total",
        "lattice",
        "notes",
    )

    def __init__(
        self,
        formula: str,
        cartan_type: CartanType,
        terms: tuple[tuple[str, QPolynomial], ...],
        total: QPolynomial,
        lattice: CrossSectionLattice | None = None,
        notes: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "cartan_type", cartan_type)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "notes", notes)

    def to_json(self, evaluations: dict[int, str]) -> dict:
        """The report as JSON, with the total's formatted value at each q0."""
        return {
            "formula": self.formula,
            "type": str(self.cartan_type),
            "lattice": self.lattice.to_json() if self.lattice else None,
            "terms": [
                {"label": label, "coeffs": term.to_json()}
                for label, term in self.terms
            ],
            "total_coeffs": self.total.to_json(),
            "evaluations": {str(q0): v for q0, v in evaluations.items()},
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


def _finish(
    formula: str,
    lat: CrossSectionLattice,
    terms: list[tuple[str, QPolynomial]],
    notes: tuple[str, ...] = (),
    summands=None,
) -> OrderReport:
    """The report whose total is the sum of summands, the terms by default."""
    if summands is None:
        summands = (term for _, term in terms)
    return OrderReport(
        formula=formula,
        cartan_type=lat.root_system.cartan_type,
        terms=tuple(terms),
        total=_checked(formula, poly_sum(summands)),
        lattice=lat,
        notes=_lattice_notes(lat) + notes,
    )


def _checked(formula: str, total: QPolynomial) -> QPolynomial:
    """The total, which must be 1 at q = 1, so (|M| - 1)/(q - 1) is exact."""
    at_one = sum(total.coeffs)
    if at_one != 1:
        raise InvariantViolation(f"{formula} total is {at_one} at q=1, not 1")
    return total


def order_thm31(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> OrderReport:
    """Order by orbit sizes: sum over entries of |G|^2 / (|P(e)||U(e)||K(e)|).

    The torus and unipotent factors cancel, leaving
    q^{N(lambda) - N(lambda_*)} (q-1)^k (W/W_lambda)(W/W_lambda_*), where
    N(X) is the degree of the walked W_X(q) and W/W_X divides the walked
    W(q) exactly by it, once per X per call.  Every factor comes from walked
    Weyl-group lengths, so this route shares no code with the
    degree-product formulas.
    """
    rs = lat.root_system
    walked = cache(lambda X: coset_length_poly(rs, X, frozenset(), enum_bound))
    w = walked(lat.all_simple)
    cosets = cache(lambda X: div_exact(w, walked(X)))
    terms = []
    for entry in lat.entries:
        lam, sub = entry.lambda_union, entry.lambda_substar
        shift = walked(lam).degree - walked(sub).degree
        torus = QPolynomial.monomial(shift) * Q_MINUS_ONE**entry.torus_index_exponent
        terms.append((entry.label, torus * cosets(lam) * cosets(sub)))
    return _finish("thm31", lat, terms)


def _factored_terms(lat: CrossSectionLattice, term) -> list[tuple[str, QPolynomial]]:
    """Each entry's QProduct term(entry), expanded in one expand_all call."""
    return list(zip((e.label for e in lat.entries), expand_all(map(term, lat.entries))))


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
        n_star = positive_count_of_subset(rs, entry.lambda_star)
        return QProduct.of([1] * entry.torus_index_exponent, shift=n_star) * cosets

    terms = _factored_terms(lat, term)
    return _finish("thm33", lat, terms, tuple(skipped))


def order_thm34(lat: CrossSectionLattice) -> OrderReport:
    """Order by invariant-degree products; no group enumeration at all.

    Each term q^{N*} (q-1)^k W^2 / (W_{lambda_*}^2 W_{lambda*}) is fixed by
    the thm34 key of its entry: the degrees of W_{lambda_*(e)} and of
    W_{lambda*(e)}, and the torus exponent k of e, with the shift
    N*(e) = sum (d - 1) over the lambda* degrees.  Per call, each key is
    factored and expanded once, entries sharing a key share its term, and
    the total adds each key's term once, times its entry count (A14 has
    16,384 entries but 176 keys).
    """
    rs = lat.root_system
    p_w_squared = poincare_factors(degrees(rs.cartan_type)) ** 2
    keys = [
        (
            subset_degrees(rs, e.lambda_substar),
            subset_degrees(rs, e.lambda_star),
            e.torus_index_exponent,
        )
        for e in lat.entries
    ]
    counts = Counter(keys)

    def term(key) -> QProduct:
        sub_degrees, star_degrees, k = key
        denom = poincare_factors(sub_degrees) ** 2 * poincare_factors(star_degrees)
        ratio = QProduct.of([1] * k) * (p_w_squared / denom)
        return QProduct(sum(star_degrees) - len(star_degrees), ratio.phi)

    expanded = dict(zip(counts, expand_all(map(term, counts))))
    summands = (
        t if counts[key] == 1 else QPolynomial(map(counts[key].__mul__, t.coeffs))
        for key, t in expanded.items()
    )
    terms = [(e.label, expanded[key]) for e, key in zip(lat.entries, keys)]
    return _finish("thm34", lat, terms, summands=summands)


def chain_total(rs: RootSystemData, bound: int | None = None) -> OrderReport:
    """thm34's total for type A_n with J0 = {}, summed along the Dynkin
    chain: none of the 2^n + 1 entries is listed.

    A subset X of the chain cuts its n + 1 points into blocks, W/W_X is the
    q-multinomial of the block sizes, and the thm34 term
    q^{N(X)} (q-1)^{|X|+1} W^2/W_X factors over the blocks.  So
    |M| = 1 + (q-1) W(q) F_{n+1}, with F_0 = 1 and, b the last block,

        F_j = sum_{b=1..j} F_{j-b} [j choose b]_q q^{b(b-1)/2} (q-1)^{b-1}.

    deg F_j = j(j+1)/2 - 1 for j >= 1, so the size of every product is
    known first: LatticeTooLarge is raised before any product when they
    hold more than bound coefficients in all (default
    weyl.DEFAULT_ENUM_BOUND; A30 holds 127,751, A52 over 10^6).
    """
    ct = rs.cartan_type
    if ct.family != "A":
        raise UnsupportedType(f"the chain sum covers type A only, not {ct}")
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    top = ct.rank + 1
    steps = [(j, b) for j in range(1, top + 1) for b in range(1, j + 1)]
    chain_degree = [0] + [j * (j + 1) // 2 - 1 for j in range(1, top + 1)]
    size = sum(chain_degree[j - b] + b * (j - b) + b * (b + 1) // 2 for j, b in steps)
    if size > bound:
        raise LatticeTooLarge(
            f"the {ct} chain sum for J0 = [] holds {size} coefficients in its"
            f" products, which exceeds the bound {bound}"
        )
    factors = expand_all(
        gaussian_factors(j, b) * QProduct.of([1] * (b - 1), shift=b * (b - 1) // 2)
        for j, b in steps
    )
    factor = dict(zip(steps, factors))
    chain = [ONE]
    for j in range(1, top + 1):
        chain.append(poly_sum(chain[j - b] * factor[j, b] for b in range(1, j + 1)))
    total = ONE + Q_MINUS_ONE * poincare_product(ct) * chain[top]
    return OrderReport(
        formula="thm34",
        cartan_type=ct,
        terms=(),
        total=_checked("thm34 chain", total),
        notes=("type map: " + support_provenance(ct, frozenset()),),
    )


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
        if lat.is_zero(entry):  # the closed form assumes |lambda*| + 1
            return QProduct()
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
    (q^i+1)^2, and term r+1 is term r times the exact factored quotient
    q^{2r+1} (q^{l-r}-1)^2 / (q^{2r+2}-1).  Stratum 0 is 1 and stratum r+1
    is (q-1) times H term r; one expand_all call steps each stratum from the
    one before, and the last must equal q^{l^2} (q-1) prod (q^{2i}-1),
    expanded on its own.  The total is the sum of the strata; its
    H-polynomial (total - 1)/(q - 1) must be exact and palindromic, or
    InvariantViolation is raised.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    evens = [2 * i for i in range(1, l + 1)]
    h_0 = QProduct.of(evens * 2) / QProduct.of(range(1, l + 1)) ** 2
    strata = [QProduct(), QProduct.of([1]) * h_0]
    for r in range(l):  # M^{r+2} = M^{r+1} H_{r+1} / H_r
        up = QProduct.of([l - r] * 2, shift=2 * r + 1)
        strata.append(strata[-1] * up / QProduct.of([2 * r + 2]))
    strata = expand_all(strata)
    if strata[-1] != expand(QProduct.of([1] + evens, shift=l * l)):
        raise InvariantViolation(f"C{l} ratio steps missed the top stratum")
    total = poly_sum(strata)
    # |M|(1) = 1 iff (total - 1)/(q - 1) is exact
    if sum(total.coeffs) != 1 or not is_palindromic(h_polynomial(total)):
        raise InvariantViolation(f"C{l} strata sum has no palindromic H-polynomial")
    return OrderReport(
        formula="symplectic",
        cartan_type=CartanType("C", l),
        terms=tuple((f"M^{r}", term) for r, term in enumerate(strata)),
        total=total,
        notes=("type map: " + PAPER_VERIFIED,),
    )


def gl_strata(n: int) -> list[QPolynomial]:
    """Number of n-by-n matrices of rank r over a q-element field, for
    r = 0..n: q^{r(r-1)/2} prod_{i<=r} (q^i - 1) [n, r]_q^2, all expanded in
    one expand_all call, each stepped from the one before.  They must sum
    to q^{n^2}, or InvariantViolation is raised."""
    strata = expand_all(
        QProduct.of(range(1, r + 1), shift=r * (r - 1) // 2) * gaussian_factors(n, r) ** 2
        for r in range(n + 1)
    )
    if poly_sum(strata) != QPolynomial.monomial(n * n):
        raise InvariantViolation(f"A{n - 1} strata sum differs from q^{n * n}")
    return strata


def h_polynomial(order_total: QPolynomial) -> QPolynomial:
    """H with (|M| - 1) = (q - 1) H(q); exact by construction for split M."""
    return div_exact(order_total - ONE, Q_MINUS_ONE)
