"""Exact polynomial arithmetic: frozen examples plus algebraic properties."""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monoid_orders.errors import IndexOutOfRange, NonExactDivision
from monoid_orders import qpoly
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
    gaussian_binomial,
    gaussian_factors,
    is_palindromic,
    poly_sum,
    q_power_minus_one,
    times_product,
    _divisors,
    _over_binomial,
    _times_binomial,
)

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
    assert gaussian_binomial(5, 0) == ONE
    assert gaussian_binomial(2, 1) == Q + ONE
    assert eval_big(gaussian_binomial(4, 2), 2) == 35


def test_gaussian_binomial_nonnegative_coefficients():
    for n in range(9):
        for r in range(n + 1):
            assert all(c >= 0 for c in gaussian_binomial(n, r).coeffs)


def test_gaussian_binomial_pascal_recurrence():
    for base_power in (1, 2):
        for n in range(1, 9):
            for r in range(1, n):
                lhs = gaussian_binomial(n, r, base_power)
                rhs = QPolynomial.monomial(base_power * r) * gaussian_binomial(
                    n - 1, r, base_power
                ) + gaussian_binomial(n - 1, r - 1, base_power)
                assert lhs == rhs, (n, r, base_power)


def test_gaussian_binomial_symmetry():
    for n in range(9):
        for r in range(n + 1):
            assert gaussian_binomial(n, r) == gaussian_binomial(n, n - r)


def test_gaussian_binomial_range_errors():
    with pytest.raises(IndexOutOfRange):
        gaussian_binomial(3, 4)
    with pytest.raises(IndexOutOfRange):
        gaussian_binomial(3, -1)


def test_palindromic_examples():
    assert is_palindromic(QPolynomial([1, 2, 1]))
    assert is_palindromic(QPolynomial([1, 0, 0, 1]))
    assert not is_palindromic(QPolynomial([1, 2]))


def test_rendering():
    assert str(ZERO) == "0"
    assert str(QPolynomial([1, 2, 2, 1])) == "1 + 2*q + 2*q^2 + q^3"
    assert str(QPolynomial([-1, 0, 1])) == "-1 + q^2"
    assert QPolynomial([1, 0, 3]).to_json() == [1, 0, 3]


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
        gaussian_binomial(3, 1, base_power=0)
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


def expand_from_one(product):
    """Reference oracle: each product expanded on its own from 1, as before
    expand_all stepped from the product expanded just before."""
    power = {}
    for n, e in product.phi:
        for d in _divisors(n):
            power[d] = power.get(d, 0) + mobius(n // d) * e
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
    assert expand_all(sequence) == expected
    assert folded(expand_all, sequence) == expected


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
    product = QProduct(0, tuple(sorted(exponents.items())))
    try:
        expected = expand_from_one(product)
    except NonExactDivision as full_length:
        # the message names the degree and the divisor of the failing step
        with pytest.raises(NonExactDivision, match=re.escape(str(full_length))):
            folded(expand_all, [product])
    else:
        assert folded(expand_all, [product]) == [expected]


OPTIMIZED_REMAINDER_CHECK = """
import sys
from monoid_orders.errors import NonExactDivision
from monoid_orders import qpoly
from monoid_orders.qpoly import QProduct, expand_all

if not sys.flags.optimize:
    sys.exit("not running under -O")
qpoly._FOLD_DEGREE = 0  # step these small products on their low halves
for phi in (((1, -1),), ((1, -1), (12, 1))):
    try:
        expand_all([QProduct(0, phi)])
    except NonExactDivision:
        continue
    sys.exit(f"{phi} expanded to a polynomial")
"""


def test_remainder_check_survives_optimize():
    # python -O strips assert statements; the low-half remainder check must
    # survive it
    src = os.path.dirname(os.path.dirname(qpoly.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_REMAINDER_CHECK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


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
    with pytest.raises(NonExactDivision):
        QProduct.of([6], shift=1) / QProduct.of([], shift=2)
    with pytest.raises(NonExactDivision):
        QProduct.of([4]) / QProduct.of([1, 1])  # (q - 1)^2 does not divide q^4 - 1
    a, b = QProduct.of([6, 4], shift=2), QProduct.of([2, 3], shift=1)
    assert (a / b) * b == a


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
            assert gaussian_binomial(n, r, base_power) == expected


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


@given(st.lists(rendered_coeffs, max_size=40))
def test_rendering_matches_the_per_term_loop(coeffs):
    p = QPolynomial(coeffs)
    assert str(p) == render_by_loop(p)


def combine_by_dict(a, b, sign):
    """Reference: the exponents summed in a dict and sorted, as QProduct
    combined them before the one-pass merge."""
    phi = dict(a.phi)
    for n, e in b.phi:
        phi[n] = phi.get(n, 0) + sign * e
    shift = a.shift + sign * b.shift
    if shift < 0 or any(e < 0 for e in phi.values()):
        raise NonExactDivision("negative exponent")
    return QProduct(shift, tuple(sorted((n, e) for n, e in phi.items() if e)))


@given(products, products)
def test_factored_multiply_and_divide_match_dict_merge(a, b):
    assert a * b == combine_by_dict(a, b, 1)
    assert (a * b) / b == a
    try:
        expected = combine_by_dict(a, b, -1)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            a / b
    else:
        assert a / b == expected
        assert (a / b) * b == a
