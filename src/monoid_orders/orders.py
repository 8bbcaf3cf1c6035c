"""Order formulas for finite reductive monoids with zero.

Four independent routes to the same total, all exact polynomials in q:

  thm31  orbit sizes |G|^2 / (|P(e)||K(e)||U(e)|) with the torus and
         unipotent factors cancelled, every Weyl-group factor counted by
         the chained descent walks in weyl.py (thm31_terms);
  thm33  coset-representative length sums [T:T(e)] q^{N*} D(e) D_*(e),
         cross-checking walked sums against exact factored quotients;
  thm34  invariant-degree products only, no enumeration;
  thm41  the closed form for weight-support (J-irreducible) lattices.

thm33, thm34 and thm41 give each term, the zero entry's included, as a
factored QProduct (thm33_products, thm34_products, thm41_products).
all_orders runs any of the routes named in ROUTES, for `order` and verify:
it compares the routes' products entry by entry, which is exact since a
product's (shift, phi) is canonical, and expands each distinct list of
them once, in one qpoly.expand_all call; each expansion still meets a
dense check that shares none of it, thm31's walked terms or thm33's
walked coset sums.  Only thm31 divides densely, the walked W(q) by each
walked W_X(q) once per call.  The routes read each entry's lambda* and
lambda_* as its masks, and the degree-based ones read the degrees and root
count of each parabolic subgroup W_X from rootsystem's per-mask memo,
never from a classification of X.

Every route's report is totalled by one rule (_finish): each distinct term
object once, times the number of entries holding it.  The H-polynomial
reads thm34's total.  For a weight support no lattice is listed:
census_total sums the keys counted by crosssection.thm34_census, grouped by
their lambda_* degrees, and for type A with J0 = {} chain_total sums along
the Dynkin chain instead.  Both are bounded by their own sizes, known
before any expansion, not by the lattice bound, and both give the listed
lattice's notes, the B/C note read from the Cartan matrix.

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
from math import comb

from .crosssection import (
    PAPER_VERIFIED,
    CrossSectionLattice,
    is_j_irreducible,
    support_provenance,
    thm34_census,
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
    times_product,
)
from .rootsystem import (
    CartanType,
    RootSystemData,
    _mask_count,
    _mask_degrees,
    _mask_indices,
    degrees,
    poincare_factors,
)
from .weyl import DEFAULT_ENUM_BOUND, coset_length_poly

BC_NOTE = "B_r/C_r component tags are interchangeable for order computations"


class OrderReport(Immutable):
    """One order: the formula that gave it (a name in ROUTES, or
    "symplectic"), the Cartan type, the (label, polynomial) terms in entry
    or stratum order, the total, which is 1 at q = 1, the lattice (None
    when none is listed) and the notes.  A route's total adds each distinct
    term object once, times the number of entries holding it (_finish)."""

    __slots__ = _fields = (
        "formula",
        "cartan_type",
        "terms",
        "total",
        "lattice",
        "notes",
    )
    _defaults = {"lattice": None, "notes": ()}


def _double_bond(rs: RootSystemData) -> int:
    """The mask of the two nodes of the double bond of B_l, C_l or F4, node
    i at bit i - 1; 0 elsewhere."""
    c = rs.cartan
    return sum(
        1 << i for i, row in enumerate(c) for j, x in enumerate(row) if x * c[j][i] == 2
    )


def _lattice_notes(lat: CrossSectionLattice) -> tuple[str, ...]:
    notes = [f"type map: {lat.provenance}"]
    # a subset of the diagram has a B/C component exactly when it holds the
    # double bond and is not the whole of F4
    bond = _double_bond(lat.root_system)
    f4 = lat.all_mask if lat.root_system.cartan_type.family == "F" else None
    halves = (X for e in lat.entries for X in (e.star_mask, e.substar_mask))
    if bond and any(X & bond == bond and X != f4 for X in halves):
        notes.append(BC_NOTE)
    return tuple(notes)


def _finish(
    formula: str,
    lat: CrossSectionLattice,
    values: list[QPolynomial],
    notes: tuple[str, ...],
) -> OrderReport:
    """The report whose terms are the entries' values, in entry order, and
    whose total, which must pass _checked, adds each distinct value object
    once, times the number of entries holding it: expand_all gives equal
    products one object (thm34's 65,537 terms on A16, J0 = {}, are 298)."""
    counts = Counter(map(id, values))
    distinct = {id(value): value for value in values}
    total = poly_sum(_scaled(counts[key], value) for key, value in distinct.items())
    return OrderReport(
        formula=formula,
        cartan_type=lat.root_system.cartan_type,
        terms=tuple(zip((e.label for e in lat.entries), values)),
        total=_checked(formula, total),
        lattice=lat,
        notes=notes,
    )


def _scaled(n: int, term: QPolynomial) -> QPolynomial:
    """n times a term shared by n entries; a term of one entry as it is."""
    return term if n == 1 else QPolynomial(map(n.__mul__, term.coeffs))


def _checked(formula: str, total: QPolynomial) -> QPolynomial:
    """The total, which must be 1 at q = 1, so (|M| - 1)/(q - 1) is exact."""
    at_one = sum(total.coeffs)
    if at_one != 1:
        raise InvariantViolation(f"{formula} total is {at_one} at q=1, not 1")
    return total


def _unlisted(
    what: str, rs: RootSystemData, J0: frozenset[int], total: QPolynomial
) -> OrderReport:
    """The thm34 report of weight support J0 from a total summed without
    listing the lattice, checked by _checked under the name what.  Its notes
    are the listed lattice's: the B/C note is there exactly when the diagram
    has a double bond, held in B_l and C_l by the zero entry's
    lambda_* = Delta and in F4 by a lambda* of {2,3}, {1,2,3} or {2,3,4}
    that meets Delta minus J0."""
    ct = rs.cartan_type
    notes = ("type map: " + support_provenance(ct, J0),)
    return OrderReport(
        formula="thm34",
        cartan_type=ct,
        terms=(),
        total=_checked(what, total),
        notes=notes + (BC_NOTE,) * bool(_double_bond(rs)),
    )


def thm31_terms(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> list[QPolynomial]:
    """thm31's term of each entry: its orbit size |G|^2 / (|P(e)||U(e)||K(e)|).

    The torus and unipotent factors cancel, leaving
    q^{N(lambda) - N(lambda_*)} (q-1)^k (W/W_lambda)(W/W_lambda_*), where
    N(X) is the degree of the walked W_X(q) and W/W_X divides the walked
    W(q) exactly by it, once per X per call.  Every factor comes from walked
    Weyl-group lengths, so this route shares no code with the
    degree-product formulas.  Both caches are keyed by the entries' masks,
    which the walks take as they are.
    """
    rs = lat.root_system
    walked = cache(lambda X: coset_length_poly(rs, X, 0, enum_bound))
    w = walked(lat.all_mask)
    cosets = cache(lambda X: div_exact(w, walked(X)))
    values = []
    for entry in lat.entries:
        lam, sub = entry.star_mask | entry.substar_mask, entry.substar_mask
        shift = walked(lam).degree - walked(sub).degree
        k = entry.torus_index_exponent  # q^shift (q-1)^k by the binomial theorem
        signed = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]
        torus = QPolynomial([0] * shift + signed)
        values.append(torus * cosets(lam) * cosets(sub))
    return values


def thm33_products(
    lat: CrossSectionLattice, *, enum_bound: int | None = None
) -> tuple[list[QProduct], tuple[str, ...]]:
    """thm33's term of each entry, q^{N*} (q-1)^k (W/W_lambda)(W/W_lambda_*)
    with each coset sum W/W_J an exact factored quotient of Poincare
    products, kept per mask of J; and the route's notes.

    While the ambient group is small enough to walk, the coset sums are
    expanded in one expand_all call, in first-use order, and each must equal
    the sum walked over its minimal coset representatives; the first that
    differs raises InvariantViolation.  Otherwise the notes say that the
    cross-check was skipped.
    """
    rs, delta = lat.root_system, lat.all_mask
    p_w = poincare_factors(degrees(rs.cartan_type))
    cosets: dict[int, QProduct] = {}

    def coset_sum(J: int) -> QProduct:
        if J not in cosets:
            cosets[J] = p_w / poincare_factors(_mask_degrees(rs, J))
        return cosets[J]

    products = []
    for entry in lat.entries:
        star, substar = entry.star_mask, entry.substar_mask
        torus = QProduct.of([1] * entry.torus_index_exponent, shift=_mask_count(rs, star))
        products.append(torus * coset_sum(star | substar) * coset_sum(substar))
    walks = []
    try:
        for J in cosets:
            walks.append(coset_length_poly(rs, delta, J, enum_bound))
    except GroupTooLarge:  # raised by the first walk, from |W| alone
        return products, ("skipped thm33 coset cross-check (GroupTooLarge)",)
    for J, value, walked in zip(cosets, expand_all(cosets.values()), walks):
        if value != walked:
            raise InvariantViolation(f"coset sum mismatch for J={_mask_indices(J)}")
    return products, ()


def thm34_products(lat: CrossSectionLattice) -> list[QProduct]:
    """thm34's term of each entry, by invariant-degree products alone: no
    group enumeration at all.

    Each term q^{N*} (q-1)^k W^2 / (W_{lambda_*}^2 W_{lambda*}) is fixed by
    the thm34 key of its entry: the degrees of W_{lambda_*(e)}, the torus
    exponent k of e and the degrees of W_{lambda*(e)}, with the shift
    N*(e) = sum (d - 1) over the lambda* degrees.  Each key is factored
    once per call, and entries sharing a key share its product (A14 has
    16,384 entries but 176 keys).
    """
    rs = lat.root_system
    p_w_squared = poincare_factors(degrees(rs.cartan_type)) ** 2

    @cache
    def term(sub_degrees, k, star_degrees) -> QProduct:
        denom = poincare_factors(sub_degrees) ** 2 * poincare_factors(star_degrees)
        ratio = QProduct.of([1] * k) * (p_w_squared / denom)
        return ratio * QProduct(sum(star_degrees) - len(star_degrees))

    return [
        term(
            _mask_degrees(rs, e.substar_mask),
            e.torus_index_exponent,
            _mask_degrees(rs, e.star_mask),
        )
        for e in lat.entries
    ]


def chain_total(rs: RootSystemData, bound: int | None = None) -> OrderReport:
    """thm34's total for type A_n with J0 = {}, summed along the Dynkin
    chain: none of the 2^n + 1 entries is listed.

    A subset X of the chain cuts its n + 1 points into blocks, W/W_X is the
    q-multinomial of the block sizes, and the thm34 term
    q^{N(X)} (q-1)^{|X|+1} W^2/W_X factors over the blocks.  So
    |M| = 1 + (q-1) W(q) F_{n+1}, with F_0 = 1 and, b the last block,

        F_j = sum_{b=1..j} F_{j-b} [j choose b]_q q^{b(b-1)/2} (q-1)^{b-1}.

    qpoly.times_product steps F_{j-b} by each factor, and F_{n+1} by
    (q-1) W(q), as QProducts, raising NonExactDivision on a remainder.  As
    deg F_j = j(j+1)/2 - 1 for j >= 1, LatticeTooLarge is raised before any
    product when they hold more than bound coefficients in all (default
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
    chain = [ONE]  # F_0 .. F_{j-1}; reversed, F_{j-b} for b = 1..j
    for j in range(1, top + 1):
        factors = (
            gaussian_factors(j, b) * QProduct.of([1] * (b - 1), shift=b * (b - 1) // 2)
            for b in range(1, j + 1)
        )
        chain.append(poly_sum(map(times_product, reversed(chain), factors)))
    w = QProduct.of([1]) * poincare_factors(degrees(ct))  # (q - 1) W(q)
    return _unlisted("thm34 chain", rs, frozenset(), ONE + times_product(chain[top], w))


def census_total(
    rs: RootSystemData, J0: frozenset[int], bound: int | None = None
) -> OrderReport:
    """thm34's total for weight support J0, summed over the keys that
    crosssection.thm34_census counts: no lattice entry is built.

    lambda_* is not adjacent to lambda*, so W_{lambda*} W_{lambda_*} is the
    Poincare product of their union and each term factors as

        (W/W_{lambda_*}) * q^{N*} (q-1)^k W/(W_{lambda*} W_{lambda_*}),

    both factors polynomials.  The census keys are grouped by their
    lambda_* degrees.  A group of more keys than the rank expands only its
    inner products, adds them times their counts and steps the sum once by
    W/W_{lambda_*} (qpoly.times_product); every other key expands its whole
    term: stepping a sum takes up to 2 * rank (q^d - 1) steps over the
    whole degree, which a few keys do not repay (the groups of C13 and E8
    last-fundamental hold at most 4 keys, so they expand every term whole,
    as the listed thm34 route does).  One expand_all call expands every
    product.  The degree of each product and stepped sum is known from its
    key, so LatticeTooLarge is raised before any product is built when
    they hold more than bound coefficients in all (default
    weyl.DEFAULT_ENUM_BOUND), the bound the census is held to as well.
    """
    ct = rs.cartan_type
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    # (lambda* degrees, k, count) per lambda_* degrees, sorted by k and then
    # the lambda* degrees, so that neighbours share most factors and
    # expand_all steps less
    groups: dict[tuple[int, ...], list] = {}
    census = thm34_census(rs, J0, bound)
    for (sub_degrees, k, star_degrees), n in sorted(census.items()):
        groups.setdefault(sub_degrees, []).append((star_degrees, k, n))
    size = 0
    for sub_degrees, group in groups.items():
        # W/W_{lambda_*} has degree n_up, an inner product k + n_up
        n_up = rs.num_positive - sum(sub_degrees) + len(sub_degrees)
        stepped = len(group) > rs.rank
        size += sum(k + n_up * (1 if stepped else 2) + 1 for _, k, _ in group)
        if stepped:
            size += max(k for _, k, _ in group) + 2 * n_up + 1
    if size > bound:
        raise LatticeTooLarge(
            f"the {ct} census sum for J0 = {sorted(J0)} holds {size} coefficients"
            f" in its products, which exceeds the bound {bound}"
        )
    p_w = poincare_factors(degrees(ct))
    products, plan = [], []
    for sub_degrees, group in groups.items():
        up = p_w / poincare_factors(sub_degrees)  # W/W_{lambda_*}
        stepped = len(group) > rs.rank
        for star_degrees, k, _ in group:
            inner = QProduct.of([1] * k, sum(star_degrees) - len(star_degrees)) * p_w
            inner /= poincare_factors(tuple(sorted(sub_degrees + star_degrees)))
            products.append(inner if stepped else inner * up)
        plan.append((group, up, stepped))
    expanded = iter(expand_all(products))
    summands = []
    for group, up, stepped in plan:
        scaled = [_scaled(n, t) for (_, _, n), t in zip(group, expanded)]
        summands += [times_product(poly_sum(scaled), up)] if stepped else scaled
    return _unlisted("thm34 census", rs, J0, poly_sum(summands))


def thm41_products(lat: CrossSectionLattice) -> list[QProduct]:
    """thm41's term of each entry: the closed form for weight-support
    lattices.

    Valid only when [T:T(e)] = (q-1)^(|lambda_star|+1) throughout, which the
    weight-support construction guarantees (NotJIrreducible otherwise); the
    nonzero term is

        q^{N*(e)} (q-1)^{2(|lambda(e)|-l)+1} prod (q^{d_i}-1)^2 / denominator

    with the denominator built from the degrees of the type map's parabolic
    subgroups, each degree tuple factored once per call.
    """
    if not is_j_irreducible(lat):
        raise NotJIrreducible(
            "lattice torus-index exponents do not follow the |lambda*|+1 rule"
        )
    rs = lat.root_system
    ambient = QProduct.of(degrees(rs.cartan_type)) ** 2
    torus_squared = QProduct.of([1] * (2 * rs.rank))
    factor = cache(QProduct.of)  # per parabolic subgroup's degrees

    def term(entry) -> QProduct:
        if lat.is_zero(entry):  # the closed form assumes |lambda*| + 1
            return QProduct()
        star, substar = entry.star_mask, entry.substar_mask
        # the (q-1)^{2(|lambda(e)|-l)+1} factor, split across both sides
        numer = ambient * QProduct.of(
            [1] * (2 * (star | substar).bit_count() + 1),
            shift=_mask_count(rs, star),
        )
        denom = factor(_mask_degrees(rs, substar)) ** 2 * factor(_mask_degrees(rs, star))
        return numer / (torus_squared * denom)

    return list(map(term, lat.entries))


ROUTES = ("thm31", "thm33", "thm34", "thm41")


def all_orders(
    lat: CrossSectionLattice, *, enum_bound: int | None = None, routes=ROUTES
) -> dict[str, OrderReport | GroupTooLarge | NotJIrreducible]:
    """The reports of the routes named in routes, by name in ROUTES order; a
    route that the enumeration bound or the weight-support rule stops maps
    to its exception (thm31 to GroupTooLarge, thm41 to NotJIrreducible).

    thm33's, thm34's and thm41's factored terms are compared with each
    earlier route's, entry by entry: a product's (shift, phi) is canonical,
    so the comparison is exact.  A route whose products equal an earlier
    route's takes its value objects, any other expands its own in one
    expand_all call; every route totals its own values by _finish's one
    rule.  A shared expansion still meets dense checks that share none of
    it: thm31's walked terms, and the walked coset sums of thm33_products.
    """
    results: dict = {}
    lattice_notes = _lattice_notes(lat)
    expanded = []  # (products, values) of each route expanded so far
    for name in (r for r in ROUTES if r in routes):
        notes, products = (), None
        try:
            if name == "thm31":
                values = thm31_terms(lat, enum_bound=enum_bound)
            elif name == "thm33":
                products, notes = thm33_products(lat, enum_bound=enum_bound)
            elif name == "thm34":
                products = thm34_products(lat)
            else:
                products = thm41_products(lat)
        except (GroupTooLarge, NotJIrreducible) as exc:
            results[name] = exc
            continue
        if products is not None:
            values = next((v for p, v in expanded if p == products), None)
            values = values or expand_all(products)
            expanded.append((products, values))
        results[name] = _finish(name, lat, values, lattice_notes + notes)
    return results


def symplectic_strata(l: int) -> list[QProduct]:
    """The strata M^0 .. M^{l+1} of the omega_l monoid of type C_l, l >= 2,
    as factored products.

    H term r is q^{r^2} [l, r]_{q^2}^2 prod_{i<=r} (q^{2i}-1) prod_{i<=l-r}
    (q^i+1)^2, and term r+1 is term r times the exact factored quotient
    q^{2r+1} (q^{l-r}-1)^2 / (q^{2r+2}-1).  Stratum 0 is 1 and stratum r+1
    is (q-1) times H term r.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    evens = [2 * i for i in range(1, l + 1)]
    h_0 = QProduct.of(evens * 2) / QProduct.of(range(1, l + 1)) ** 2
    strata = [QProduct(), QProduct.of([1]) * h_0]
    for r in range(l):  # M^{r+2} = M^{r+1} H_{r+1} / H_r
        up = QProduct.of([l - r] * 2, shift=2 * r + 1)
        strata.append(strata[-1] * up / QProduct.of([2 * r + 2]))
    return strata


def symplectic_order(l: int) -> OrderReport:
    """Closed-form order of the omega_l monoid of type C_l, l >= 2, with its
    strata (symplectic_strata).

    One expand_all call steps each stratum from the one before, and the
    last must equal q^{l^2} (q-1) prod (q^{2i}-1), expanded on its own.  The
    total is the sum of the strata; its H-polynomial (total - 1)/(q - 1)
    must be exact and palindromic, or InvariantViolation is raised.
    """
    strata = expand_all(symplectic_strata(l))
    top = QProduct.of([1] + [2 * i for i in range(1, l + 1)], shift=l * l)
    if strata[-1] != expand(top):
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
