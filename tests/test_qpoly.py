"""Exact polynomial arithmetic: frozen examples plus algebraic properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoid_orders.errors import IndexOutOfRange, NonExactDivision
from monoid_orders.qpoly import (
    ONE,
    Q,
    QPolynomial,
    QProduct,
    ZERO,
    add,
    div_exact,
    eval_big,
    expand,
    gaussian_binomial,
    gaussian_factors,
    is_palindromic,
    mul,
    q_power_minus_one,
    sub,
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
    for sparse in (QPolynomial([-1, 1]), QPolynomial.monomial(7, -2), QPolynomial([0, 0, 5, 0, 0, 0, 0, 1])):
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


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact(ONE, ZERO)


@given(polys, nonzero_polys)
def test_div_exact_inverts_mul(a, b):
    assert div_exact(a * b, b) == a


def test_eval_big_examples():
    assert eval_big(QPolynomial([1, 1, 1, 1]), 2) == 15
    assert eval_big(ZERO, 7) == 0
    assert eval_big(QPolynomial([1, 2, 2, 1]), 2) == 21


def test_eval_big_rejects_small_points():
    with pytest.raises(ValueError):
        eval_big(ONE, 1)


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


def test_function_forms_match_operators():
    a, b = QPolynomial([1, 2]), QPolynomial([0, 1, 1])
    assert add(a, b) == a + b
    assert sub(a, b) == a - b
    assert mul(a, b) == a * b


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
