"""Exact polynomial arithmetic: frozen examples plus algebraic properties."""

import os
import re
import subprocess
import sys
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monoid_orders.errors import IndexOutOfRange, InvariantViolation, NonExactDivision
from monoid_orders import qpoly
from monoid_orders.crosssection import j_irreducible_lattice
from monoid_orders.orders import (
    gl_strata,
    symplectic_strata,
    thm34_products,
    thm41_products,
)
from monoid_orders.qpoly import (
    ONE,
    Q,
    QPolynomial,
    QProduct,
    ZERO,
    div_exact,
    eval_big,
    expand,
    expand_all,
    gaussian_factors,
    is_palindromic,
    poly_sum,
    q_power_minus_one,
    times_product,
    _cyclotomic_value,
    _divisors,
    _over_binomial,
    _times_binomial,
)
from monoid_orders.rootsystem import CartanType, build, parse_subset

polys = st.builds(QPolynomial, st.lists(st.integers(-50, 50), max_size=12))
nonzero_polys = polys.filter(bool)


def convolve(a, b):
    """Independent product oracle: plain coefficient convolution."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_product_difference_of_squares():
    assert (Q + ONE) * (Q - ONE) == QPolynomial([-1, 0, 1])


def test_add_zero_is_identity():
    p = QPolynomial([3, 0, -2, 7])
    assert p + ZERO == p
    assert ZERO + p == p


def test_product_matches_convolution_oracle():
    a, b = [1, 1], [1, 0, 1]  # (1+q)(1+q^2)
    assert convolve(a, b) == [1, 1, 1, 1]
    assert QPolynomial(a) * QPolynomial(b) == QPolynomial([1, 1, 1, 1])


@given(polys, polys)
def test_product_agrees_with_convolution(a, b):
    assert (a * b).coeffs == QPolynomial(convolve(a.coeffs, b.coeffs)).coeffs


def test_canonical_form_strips_trailing_zeros():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPolynomial([0, 0]).coeffs == ()
    assert not QPolynomial([0])
    assert QPolynomial([]).degree == -1


def test_sparse_operand_products():
    # sparse times dense in both orders, and products with monomial shifts
    dense = QPolynomial([3, -1, 4, 1, -5, 9])
    for sparse in (QPolynomial([-1, 1]), QPolynomial([0] * 7 + [-2]), QPolynomial([0, 0, 5, 0, 0, 0, 0, 1])):
        expected = QPolynomial(convolve(dense.coeffs, sparse.coeffs))
        assert dense * sparse == expected
        assert sparse * dense == expected


@given(polys, polys)
def test_product_degree_adds(a, b):
    if a and b:
        assert (a * b).degree == a.degree + b.degree


def test_div_exact_geometric_series():
    assert div_exact(q_power_minus_one(4), q_power_minus_one(1)) == QPolynomial(
        [1, 1, 1, 1]
    )


def test_div_exact_factorization():
    assert div_exact(QPolynomial([-1, 0, 1]), Q + ONE) == Q - ONE


def test_div_exact_long_division():
    # (q^3 + 2q^2 + 2q + 1) / (q + 1) = q^2 + q + 1, checked by multiplying back
    quotient = div_exact(QPolynomial([1, 2, 2, 1]), QPolynomial([1, 1]))
    assert quotient == QPolynomial([1, 1, 1])
    assert quotient * QPolynomial([1, 1]) == QPolynomial([1, 2, 2, 1])


def test_div_exact_rejects_remainder():
    with pytest.raises(NonExactDivision):
        div_exact(QPolynomial([1, 0, 1]), QPolynomial([1, 1]))


def test_div_exact_rejects_a_leading_coefficient_it_cannot_divide():
    # q / (2q + 1): the quotient would need the coefficient 1/2
    with pytest.raises(NonExactDivision):
        div_exact(QPolynomial([0, 1]), QPolynomial([1, 2]))


def test_sparse_division_rejects_remainder():
    # (q^2 + 1) / (q - 1) leaves the remainder 2
    with pytest.raises(NonExactDivision, match="degree-2 polynomial"):
        _over_binomial([1, 0, 1], 1)


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact(ONE, ZERO)


@given(polys, nonzero_polys)
def test_div_exact_inverts_mul(a, b):
    assert div_exact(a * b, b) == a


@given(polys, st.integers(1, 5), st.lists(st.integers(-3, 3), max_size=5))
def test_div_exact_by_a_binomial(a, d, remainder):
    # q^d - 1 takes the sparse division; a remainder of lower degree raises
    b, r = q_power_minus_one(d), QPolynomial(remainder[:d])
    if r:
        with pytest.raises(NonExactDivision):
            div_exact(a * b + r, b)
    else:
        assert div_exact(a * b, b) == a


def test_eval_big_examples():
    assert eval_big(QPolynomial([1, 1, 1, 1]), 2) == 15
    assert eval_big(ZERO, 7) == 0
    assert eval_big(QPolynomial([1, 2, 2, 1]), 2) == 21


def test_eval_big_rejects_small_points():
    with pytest.raises(ValueError):
        eval_big(ONE, 1)


def horner(p, q0):
    """Plain Horner over every coefficient: the reference for eval_big."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * q0 + c
    return acc


# signed, mostly zero and up to 300 bits, over lengths that cross several
# 64-coefficient block boundaries, with a zero block in between
blocked_polys = st.builds(
    QPolynomial,
    st.lists(
        st.one_of(
            st.just(0), st.integers(-(2**300), 2**300), st.integers(-3, 3)
        ),
        max_size=700,
    ),
)


@given(blocked_polys, st.integers(2, 2**70))
def test_eval_big_matches_horner(p, q0):
    assert eval_big(p, q0) == horner(p, q0)


@pytest.mark.parametrize("length", [1, 63, 64, 65, 128, 129, 192, 4097])
def test_eval_big_at_block_boundaries(length):
    p = QPolynomial([(-1) ** i * (i + 1) ** 5 for i in range(length)])
    sparse = QPolynomial([0] * (length - 1) + [7])
    for q0 in (2, 3, 10**20 + 39):
        assert eval_big(p, q0) == horner(p, q0)
        assert eval_big(sparse, q0) == 7 * q0 ** (length - 1)


@given(polys, polys, st.integers(2, 97))
def test_eval_big_is_ring_homomorphism(a, b, q0):
    assert eval_big(a * b, q0) == eval_big(a, q0) * eval_big(b, q0)
    assert eval_big(a + b, q0) == eval_big(a, q0) + eval_big(b, q0)


def test_gaussian_binomial_conventions():
    assert expand(gaussian_factors(5, 0)) == ONE
    assert expand(gaussian_factors(2, 1)) == Q + ONE
    assert eval_big(expand(gaussian_factors(4, 2)), 2) == 35


def test_gaussian_binomial_nonnegative_coefficients():
    for n in range(9):
        for r in range(n + 1):
            assert all(c >= 0 for c in expand(gaussian_factors(n, r)).coeffs)


def test_gaussian_binomial_pascal_recurrence():
    for base_power in (1, 2):
        for n in range(1, 9):
            for r in range(1, n):
                lhs = expand(gaussian_factors(n, r, base_power))
                rhs = QPolynomial.monomial(base_power * r) * expand(
                    gaussian_factors(n - 1, r, base_power)
                ) + expand(gaussian_factors(n - 1, r - 1, base_power))
                assert lhs == rhs, (n, r, base_power)


def test_gaussian_binomial_symmetry():
    for n in range(9):
        for r in range(n + 1):
            assert expand(gaussian_factors(n, r)) == expand(gaussian_factors(n, n - r))


def test_gaussian_binomial_range_errors():
    with pytest.raises(IndexOutOfRange):
        expand(gaussian_factors(3, 4))
    with pytest.raises(IndexOutOfRange):
        expand(gaussian_factors(3, -1))


def test_palindromic_examples():
    assert is_palindromic(QPolynomial([1, 2, 1]))
    assert is_palindromic(QPolynomial([1, 0, 0, 1]))
    assert not is_palindromic(QPolynomial([1, 2]))


def test_rendering():
    assert str(ZERO) == "0"
    assert str(QPolynomial([1, 2, 2, 1])) == "1 + 2*q + 2*q^2 + q^3"
    assert str(QPolynomial([-1, 0, 1])) == "-1 + q^2"


def test_immutability():
    p = QPolynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (5,)
    assert hash(p) == hash(QPolynomial([1, 2, 0]))


def test_constructor_argument_errors():
    with pytest.raises(ValueError):
        QPolynomial.monomial(-1)
    with pytest.raises(ValueError):
        ONE**-2
    with pytest.raises(ValueError):
        expand(gaussian_factors(3, 1, base_power=0))
    with pytest.raises(ValueError):
        q_power_minus_one(-1)


def dense_quotient(numerator, denominator, shift, denominator_shift=0):
    """Reference: multiply out the (q^d - 1) factors densely, then div_exact."""
    top = QPolynomial.monomial(shift)
    for d in numerator:
        top = top * q_power_minus_one(d)
    bottom = QPolynomial.monomial(denominator_shift)
    for d in denominator:
        bottom = bottom * q_power_minus_one(d)
    return div_exact(top, bottom)


degree_multisets = st.lists(st.integers(1, 12), max_size=6)


@given(degree_multisets, degree_multisets, st.integers(0, 4), st.integers(0, 2))
def test_factored_expansion_matches_dense_division(numerator, denominator, shift, den_shift):
    try:
        expected = dense_quotient(numerator, denominator, shift, den_shift)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            expand(QProduct.of(numerator, shift) / QProduct.of(denominator, den_shift))
    else:
        quotient = QProduct.of(numerator, shift) / QProduct.of(denominator, den_shift)
        assert expand(quotient) == expected


@given(degree_multisets, degree_multisets, st.integers(0, 3))
def test_factored_product_matches_dense_product(a, b, k):
    product = QProduct.of(a, 1) * QProduct.of(b) ** k
    assert expand(product) == dense_quotient(a + b * k, [], 1)


def mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def binomial_steps(exponents):
    """The (q^d - 1) exponents of prod Phi_n^e_n over the (n, e_n) pairs,
    by Moebius inversion of q^d - 1 = prod over n | d of Phi_n; an e_n may
    be negative.  A list indexed by d, as expand_all steps them."""
    power = {}
    for n, e in exponents:
        for d in _divisors(n):
            power[d] = power.get(d, 0) + mobius(n // d) * e
    return [power.get(d, 0) for d in range(max(power, default=0) + 1)]


def expand_from_one(product):
    """Reference oracle: each product expanded on its own from 1, as before
    expand_all stepped from the product expanded just before."""
    power = dict(enumerate(binomial_steps(product.phi)))
    coeffs = [1]
    for d in sorted(power):
        for _ in range(power[d]):
            coeffs = _times_binomial(coeffs, d)
    for d in sorted(power, reverse=True):
        for _ in range(-power[d]):
            coeffs = _over_binomial(coeffs, d)
    return QPolynomial([0] * product.shift + coeffs)


shifts = st.integers(0, 4)
products = st.builds(
    QProduct,
    shifts,
    st.dictionaries(st.integers(1, 15), st.integers(1, 3), max_size=5).map(
        lambda phi: tuple(sorted(phi.items()))
    ),
)


def folded(call, *args):
    """call(*args) with expand_all stepping every product, however small,
    on its low half."""
    fold_degree = qpoly._FOLD_DEGREE
    qpoly._FOLD_DEGREE = 0
    try:
        return call(*args)
    finally:
        qpoly._FOLD_DEGREE = fold_degree


@st.composite
def product_sequences(draw):
    """Products as expand_all's low-half steps meet them: a new product or
    the empty one, stepped from 1; an earlier Phi tuple again under another
    shift; a few (q^d - 1) steps from the one before; or the one before
    with one Phi factor fewer, a step down that divides.  Phi_1's exponent
    sets the sign c_0, and Phi_1's and Phi_2's the parity of the degree."""
    sequence = [draw(products)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["new", "empty", "repeat", "near", "down"]))
        if kind == "new":
            sequence.append(draw(products))
        elif kind == "empty":
            sequence.append(QProduct(draw(shifts)))
        elif kind == "down":
            before = sequence[-1]
            n = draw(st.sampled_from([n for n, _ in before.phi] or [None]))
            sequence.append(before / QProduct(0, ((n, 1),)) if n else before)
        elif kind == "repeat":
            sequence.append(QProduct(draw(shifts), draw(st.sampled_from(sequence)).phi))
        else:
            near = sequence[-1] * QProduct.of(draw(degree_multisets))
            factor = QProduct.of(draw(degree_multisets))
            try:
                near = near / factor
            except NonExactDivision:
                pass
            sequence.append(near)
    return sequence


@given(product_sequences())
# c_0 = -1 at degrees 1 and 6, stepped up, then repeated under a shift
@example([QProduct.of([1]), QProduct.of([1, 2, 3]), QProduct.of([1], shift=3)])
# c_0 = -1 at degree 5, a step down to c_0 = 1, then the empty product
@example([QProduct(0, ((1, 3), (4, 1))), QProduct(2, ((1, 2), (4, 1))), QProduct()])
# stepped down by a division, then the first again
@example([QProduct.of([2, 3, 4, 5, 6]), QProduct.of([2, 3, 4, 5]), QProduct.of([2, 3, 4, 5, 6])])
def test_expand_all_matches_expansion_from_one(sequence):
    expected = [expand_from_one(p) for p in sequence]
    expanded = expand_all(sequence)
    assert expanded == expected
    assert folded(expand_all, sequence) == expected
    # one object per distinct product, shared by every product equal to it
    assert len(set(map(id, expanded))) == len(set(sequence))
    for p, value in zip(sequence, expanded):
        assert value is expanded[sequence.index(p)]


def counted_division(divided):
    """_over_binomial recording each divisor d; expand_all passes the
    degree of the low half it divides as a third argument."""
    return lambda c, d, *degree: divided.append(d) or _over_binomial(c, d, *degree)


def test_expand_all_steps_from_the_nearer_start(monkeypatch):
    multiplied, divided = [], []
    monkeypatch.setattr(
        qpoly, "_times_binomial", lambda c, d: multiplied.append(d) or _times_binomial(c, d)
    )
    monkeypatch.setattr(qpoly, "_over_binomial", counted_division(divided))
    near, far = QProduct.of([2, 3, 4]), QProduct.of([7], shift=2)
    dense = expand_all([near, near * QProduct.of([5]), far, QProduct(1, near.phi)])
    # near from 1; near * (q^5 - 1) from near, one step instead of four; far
    # from 1, one step instead of five; near again read back, no step
    assert multiplied == [2, 3, 4, 5, 7]
    assert divided == []
    assert dense == [expand_from_one(p) for p in (near, near * QProduct.of([5]), far)] + [
        Q * expand_from_one(near)
    ]


def test_expand_all_divides_when_stepping_down(monkeypatch):
    divided = []
    monkeypatch.setattr(qpoly, "_over_binomial", counted_division(divided))
    big = QProduct.of([2, 3, 4, 5, 6])
    dense = expand_all([big, big / QProduct.of([6])])
    # the second from the first: one division instead of four multiplications
    assert divided == [6]
    assert dense == [expand_from_one(big), expand_from_one(QProduct.of([2, 3, 4, 5]))]


@given(
    st.dictionaries(st.integers(1, 15), st.integers(-2, 3).filter(bool), max_size=4)
)
@example({1: -1})  # 1 / (q - 1)
# Phi_12 / (q - 1): the low half of Phi_12 = q^4 - q^2 + 1 sums to 0, so
# only the mirror image q^4 of its constant term leaves a remainder
@example({1: -1, 12: 1})
def test_low_halves_raise_on_the_step_full_length_steps_raise_on(exponents):
    # a QProduct holds no negative exponent, so step from 1 as expand_all does
    step = binomial_steps(exponents.items())
    try:
        expected = qpoly._stepped([1], step)
    except NonExactDivision as full_length:
        # the message names the degree and the divisor of the failing step
        with pytest.raises(NonExactDivision, match=re.escape(str(full_length))):
            folded(qpoly._expanded, (1,), step)
    else:
        assert folded(qpoly._expanded, (1,), step) == tuple(expected)


OPTIMIZED_REMAINDER_CHECK = """
import sys
from monoid_orders.errors import NonExactDivision
from monoid_orders import qpoly

if not sys.flags.optimize:
    sys.exit("not running under -O")
qpoly._FOLD_DEGREE = 0  # step these small products on their low halves
for step in {steps!r}:
    try:
        qpoly._expanded((1,), step)
    except NonExactDivision:
        continue
    sys.exit(f"{{step}} expanded to a polynomial")
"""


def test_remainder_check_survives_optimize():
    # python -O strips assert statements; the low-half remainder check must
    # survive it: 1 / (q - 1) and Phi_12 / (q - 1)
    steps = [binomial_steps(phi) for phi in (((1, -1),), ((1, -1), (12, 1)))]
    src = os.path.dirname(os.path.dirname(qpoly.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_REMAINDER_CHECK.format(steps=steps)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def keeps_the_mahler_bound(poly: QPolynomial) -> bool:
    """Every |c_i| <= C(d, d // 2) for the degree d: q^s times cyclotomic
    polynomials has Mahler measure 1, so |c_i| <= C(d, i).  The CLI's digit
    check skips an expanded product on this bound."""
    return max(map(abs, poly.coeffs)) <= comb(poly.degree, poly.degree // 2)


wide_products = st.builds(
    QProduct,
    shifts,
    st.dictionaries(st.integers(1, 40), st.integers(1, 9), max_size=6).map(
        lambda phi: tuple(sorted(phi.items()))
    ),
)


@given(st.lists(st.one_of(products, wide_products), min_size=1, max_size=4))
# (q - 1)^9 meets the bound: its largest |c| is C(9, 4) = 126
@example([QProduct(0, ((1, 9),))])
def test_every_expanded_product_keeps_the_mahler_bound(sequence):
    assert all(map(keeps_the_mahler_bound, expand_all(sequence)))


@pytest.mark.parametrize(
    "spec, j0",
    [("A8", ""), ("B6", "1,3,5"), ("C6", "1,2,3,4,5"), ("D6", "2,4"), ("E6", "1,2,3,4,5"),
     ("E7", "1,3,5"), ("F4", "1")],
)
def test_the_package_s_products_keep_the_mahler_bound(spec, j0):
    ct = CartanType.parse(spec)
    lat = j_irreducible_lattice(build(ct), parse_subset(j0, ct.rank))
    for products in (thm34_products(lat), thm41_products(lat)):
        assert all(map(keeps_the_mahler_bound, expand_all(products)))
    if spec == "A8":  # and the strata of both presets
        for l in range(2, 41):
            assert all(map(keeps_the_mahler_bound, expand_all(symplectic_strata(l))))
        for n in range(1, 31):
            assert all(map(keeps_the_mahler_bound, gl_strata(n)))


@given(polys, products)
def test_times_product_is_the_dense_product(p, product):
    assert times_product(p, product) == p * expand(product)


def test_times_product_steps_as_expand_all_does(monkeypatch):
    # (q + 1) * q (q^6 - 1)/(q^2 - 1): one shift-subtract, then one division
    multiplied, divided = [], []
    monkeypatch.setattr(
        qpoly, "_times_binomial", lambda c, d: multiplied.append(d) or _times_binomial(c, d)
    )
    monkeypatch.setattr(
        qpoly, "_over_binomial", lambda c, d: divided.append(d) or _over_binomial(c, d)
    )
    product = QProduct.of([6], shift=1) / QProduct.of([2])
    assert times_product(QPolynomial([1, 1]), product) == QPolynomial([0] + [1] * 6)
    assert (multiplied, divided) == ([6], [2])


def test_poly_sum_adds_by_columns():
    assert poly_sum([]) == ZERO
    assert poly_sum([Q, ONE, QPolynomial([0, -1, 5])]) == QPolynomial([1, 0, 5])
    assert poly_sum([Q, -Q]) == ZERO


def test_factored_division_rejects_non_divisors():
    with pytest.raises(NonExactDivision):
        QProduct.of([2]) / QProduct.of([3])  # (q^2 - 1)/(q^3 - 1)
    # a shift going negative, read from field 0's guard bit
    with pytest.raises(NonExactDivision):
        QProduct.of([6], shift=1) / QProduct.of([], shift=2)
    with pytest.raises(NonExactDivision, match=re.escape("(q^1) is not divisible by (q^2)")):
        QProduct(1) / QProduct(2)
    with pytest.raises(NonExactDivision):
        QProduct.of([4]) / QProduct.of([1, 1])  # (q - 1)^2 does not divide q^4 - 1
    a, b = QProduct.of([6, 4], shift=2), QProduct.of([2, 3], shift=1)
    assert (a / b) * b == a


def test_a_zero_exponent_vanishes():
    assert QProduct(0, ((3, 0),)) == QProduct()
    assert hash(QProduct(0, ((3, 0),))) == hash(QProduct())
    assert str(QProduct(0, ((3, 0),))) == "1"


def test_pairs_in_any_order_give_the_sorted_product():
    unsorted = QProduct(0, ((5, 1), (2, 1)))
    assert unsorted == QProduct(0, ((2, 1), (5, 1)))
    assert unsorted.phi == ((2, 1), (5, 1))
    assert str(unsorted * QProduct.of([2])) == "Phi_1 * Phi_2^2 * Phi_5"


def test_a_repeated_n_adds_its_exponents():
    assert QProduct(0, ((2, 1), (2, 1))) == QProduct(0, ((2, 2),))
    assert expand(QProduct(0, ((2, 1), (2, 1)))) == QPolynomial([1, 2, 1])


@pytest.mark.parametrize(
    "shift, phi",
    [(-2, ()), (0, ((2, -1),)), (0, ((0, 1),)), (0, ((-3, 1),)), (2**31, ())],
)
def test_a_negative_or_out_of_range_field_raises_before_packing(shift, phi):
    with pytest.raises(ValueError):
        QProduct(shift, phi)


def test_a_repeated_n_summed_past_the_field_raises():
    with pytest.raises(InvariantViolation):
        QProduct(0, ((2, 2**30), (2, 2**30)))


@given(products)
def test_fields_round_trip(p):
    again = QProduct(p.shift, p.phi)
    assert again == p and hash(again) == hash(p)
    assert p.replace() == p and p.replace(shift=7) == QProduct(7, p.phi)


def test_a_field_reaching_two_to_the_31_raises_and_leaves_its_neighbours():
    top = 2**31 - 1
    a = QProduct(5, ((1, top), (2, 7), (3, top)))
    # the neighbours of a full field add as before, with no carry
    assert (a * QProduct(0, ((2, 1),))).phi == ((1, top), (2, 8), (3, top))
    assert (a * QProduct(top - 5)).shift == top
    for other in (QProduct(0, ((1, 1),)), QProduct(0, ((3, 1),)), QProduct(top - 4)):
        with pytest.raises(InvariantViolation):
            a * other
    assert a == QProduct(5, ((1, top), (2, 7), (3, top)))
    # k * the largest field must stay below 2^31, the shift included
    assert (QProduct(1, ((2, 2**30 - 1), (3, 1))) ** 2).phi == ((2, 2**31 - 2), (3, 2))
    for base in (QProduct(0, ((3, 2**30),)), QProduct(2**30, ((1, 1),))):
        with pytest.raises(InvariantViolation):
            base ** 2
    # 2^30 * 4 would carry exactly into Phi_4's field, leaving no top bit set
    for k in (2**30, 4):
        with pytest.raises(InvariantViolation):
            QProduct(0, ((3, 2**30),)) ** k


def test_factored_values_and_rendering():
    plus_one = QProduct.of([2]) / QProduct.of([1])
    assert expand(plus_one) == Q + ONE
    assert str(plus_one) == "Phi_2"
    assert str(QProduct.of([4], shift=3)) == "q^3 * Phi_1 * Phi_2 * Phi_4"
    assert str(QProduct()) == "1" and expand(QProduct()) == ONE
    assert QProduct.of([1, 2]) == QProduct.of([2, 1])
    assert (QProduct.of([3]) ** 0) == QProduct()
    with pytest.raises(ValueError):
        QProduct.of([0])
    with pytest.raises(ValueError):
        QProduct.of([], shift=-1)
    with pytest.raises(ValueError):
        QProduct.of([2]) ** -1


@pytest.mark.parametrize("base_power", (1, 2, 3))
def test_gaussian_factors_match_dense_quotient(base_power):
    for n in range(9):
        for r in range(n + 1):
            expected = ONE
            for i in range(1, r + 1):
                expected = div_exact(
                    expected * q_power_minus_one(base_power * (n - r + i)),
                    q_power_minus_one(base_power * i),
                )
            assert expand(gaussian_factors(n, r, base_power)) == expected


def render_by_loop(p):
    """Reference rendering: the per-term loop QPolynomial.__str__ replaced."""
    if not p.coeffs:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "q" if mag == 1 else f"{mag}*q"
        else:
            body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


rendered_coeffs = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -2, 10, -11, 21]),
    st.integers(-(10**90), 10**90),
)


# up to about 3,000 coefficients, a few of them nonzero
sparse_coeff_lists = st.dictionaries(
    st.integers(0, 3000), rendered_coeffs, max_size=30
).map(lambda terms: [terms.get(i, 0) for i in range(max(terms, default=-1) + 1)])


@given(st.one_of(st.lists(rendered_coeffs, max_size=40), sparse_coeff_lists))
# +-1 at exponents 0, 1 and 2, alone and together
@example([1])
@example([-1])
@example([0, 1])
@example([0, -1])
@example([0, 0, 1])
@example([0, 0, -1])
@example([1, -1, 1])
@example([-1, 1, -1, 1])
# a zero constant term and a negative leading coefficient
@example([0, 3, 0, 1, 0, -21])
@example([0, 0, -1, 0, -2])
def test_rendering_matches_the_per_term_loop(coeffs):
    p = QPolynomial(coeffs)
    expected = render_by_loop(p)
    assert str(p) == expected
    assert str(p) == expected  # the same value again, from the grown pieces


def test_rendering_grows_the_term_pieces_to_the_largest_exponent():
    top = len(qpoly._PIECES) + 100  # past every exponent rendered so far
    p = QPolynomial([0, 0, 5] + [0] * (top - 3) + [-1])
    assert str(p) == render_by_loop(p) == f"5*q^2 - q^{top}"
    assert len(qpoly._PIECES) == top + 1
    # a lower degree renders from the pieces already there
    low = QPolynomial([-1, 0, 1, 0, -7])
    assert str(low) == render_by_loop(low) == "-1 + q^2 - 7*q^4"
    assert len(qpoly._PIECES) == top + 1


def combine_by_dict(a, b, sign):
    """Reference: the exponents summed in a dict and sorted, as QProduct
    combined them before its packed int; a field of 2^31 or more raises
    InvariantViolation, as a packed field holds less."""
    phi = dict(a.phi)
    for n, e in b.phi:
        phi[n] = phi.get(n, 0) + sign * e
    shift = a.shift + sign * b.shift
    if shift < 0 or any(e < 0 for e in phi.values()):
        raise NonExactDivision("negative exponent")
    if max([shift, *phi.values()]) >= 2**31:
        raise InvariantViolation("exponent of 2^31 or more")
    return QProduct(shift, tuple(sorted((n, e) for n, e in phi.items() if e)))


TOP = 2**31 - 1
# exponents and shifts up to the largest a field holds
wide_products = st.builds(
    QProduct,
    st.sampled_from([0, 1, 4, TOP - 1, TOP]),
    st.dictionaries(st.integers(1, 15), st.sampled_from([1, 3, TOP - 1, TOP]), max_size=5).map(
        lambda phi: tuple(sorted(phi.items()))
    ),
)


@given(st.one_of(products, wide_products), st.one_of(products, wide_products))
@example(QProduct(0, ((1, TOP), (3, TOP))), QProduct(0, ((2, 1),)))
@example(QProduct(TOP, ((1, TOP),)), QProduct(0, ((1, TOP),)))
# a Phi_n above the dividend's top field
@example(QProduct.of([2]), QProduct(0, ((7, 1),)))
@example(QProduct(0, ((3, TOP),)), QProduct(0, ((3, TOP), (16, 1))))
def test_factored_multiply_and_divide_match_dict_merge(a, b):
    try:
        expected = combine_by_dict(a, b, 1)
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            a * b
    else:
        assert a * b == expected
        assert (a * b) / b == a
    try:
        expected = combine_by_dict(a, b, -1)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            a / b
    else:
        assert a / b == expected
        assert (a / b) * b == a


# the small prime powers and 2^61 - 1, a Mersenne prime
EVALUATION_POINTS = (2, 3, 4, 5, 7, 8, 9, 2**61 - 1)


@given(product_sequences())
# past several 64-coefficient Horner blocks
@example([QProduct.of([2 * i for i in range(1, 13)] * 2, shift=40)])
def test_factored_values_match_horner(sequence):
    # each expansion evaluated from its recorded product, against the same
    # coefficients evaluated by Horner
    for product, value in zip(sequence, expand_all(sequence)):
        dense = QPolynomial(value.coeffs)
        assert value._product == product and dense._product is None
        for q0 in EVALUATION_POINTS:
            assert eval_big(value, q0) == eval_big(dense, q0)


def test_recorded_product_is_left_out_of_equality_hash_repr_and_replace():
    product = QProduct.of([2, 3], shift=1)
    [value] = expand_all([product])
    dense = QPolynomial(value.coeffs)
    assert value._product == product
    assert value == dense and hash(value) == hash(dense)
    assert repr(value) == repr(dense) == "QPolynomial([0, 1, 0, -1, -1, 0, 1])"
    assert value.replace()._product is None
    assert value.replace(coeffs=value.coeffs) == value
    # arithmetic builds values of no recorded product
    assert (value + ZERO)._product is None and (value * ONE)._product is None


def test_factored_values_run_no_horner_block(monkeypatch):
    sequence = [QProduct.of(range(1, 20), shift=3), QProduct.of([4, 6]) / QProduct.of([2])]
    values = expand_all(sequence)
    expected = [[eval_big(QPolynomial(v.coeffs), q0) for q0 in EVALUATION_POINTS] for v in values]
    blocks = []
    monkeypatch.setattr(qpoly, "_horner", lambda cs, q0: blocks.append(len(cs)))
    assert [[eval_big(v, q0) for q0 in EVALUATION_POINTS] for v in values] == expected
    assert blocks == []
    eval_big(QPolynomial(values[0].coeffs), 2)  # no product: Horner
    assert blocks == [len(values[0].coeffs)]


def test_cyclotomic_values():
    # Phi_1, Phi_2, Phi_4, Phi_6 and Phi_12 at 2 and at 2^61 - 1
    assert [_cyclotomic_value(n, 2) for n in (1, 2, 4, 6, 12)] == [1, 3, 5, 3, 13]
    m = 2**61 - 1
    assert _cyclotomic_value(12, m) == m**4 - m**2 + 1


def test_cyclotomic_value_raises_on_a_remainder(monkeypatch):
    # with 2 left out of the divisors of 4, (2^4 - 1) / (Phi_1(2) Phi_3(2))
    # = 15 / 7 leaves a remainder, raised as an error, not asserted
    real = qpoly._divisors
    monkeypatch.setattr(qpoly, "_divisors", lambda n: (1, 3, 4) if n == 4 else real(n))
    _cyclotomic_value.cache_clear()
    try:
        with pytest.raises(NonExactDivision, match="q=2"):
            _cyclotomic_value(4, 2)
    finally:
        _cyclotomic_value.cache_clear()
