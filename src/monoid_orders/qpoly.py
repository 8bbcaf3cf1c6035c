"""Exact arithmetic on integer-coefficient polynomials in the indeterminate q.

Two representations.  QPolynomial is dense: coeffs[i] is the coefficient of
q^i, with no trailing zero (the zero polynomial has an empty coefficient
tuple).  QProduct is factored: q^shift times a product of cyclotomic
polynomials Phi_n with exponents e_n, which covers every closed form built
from (q^d - 1) factors, since q^d - 1 = prod over n | d of Phi_n.

Exactness is checked literally in both.  Dense division raises on a nonzero
remainder.  Factored division subtracts exponents and raises as soon as a
Phi exponent or the shift would go negative; expanding a product to dense
coefficients then divides by the (q^d - 1) factors its Phi exponents imply,
with a sparse division that raises on a nonzero remainder as well.

All coefficients are Python ints, so arithmetic is exact at any size.  Values
are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import Iterable

from .errors import IndexOutOfRange, NonExactDivision


class QPolynomial:
    """Dense polynomial in q with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPolynomial":
        """Build coeff * q^power."""
        if power < 0:
            raise ValueError("negative power")
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        sparse = [(i, c) for i, c in enumerate(a) if c]
        other_terms = [(j, c) for j, c in enumerate(b) if c]
        if len(other_terms) < len(sparse):
            sparse, b = other_terms, a
        # one pass over the denser operand per nonzero term of the sparser one
        width = len(b)
        for i, c in sparse:
            out[i : i + width] = [o + c * cb for o, cb in zip(out[i : i + width], b)]
        return QPolynomial(out)

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
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

    def to_json(self) -> list[int]:
        """Coefficient array, ascending powers."""
        return list(self.coeffs)


ZERO = QPolynomial()
ONE = QPolynomial([1])
Q = QPolynomial([0, 1])
Q_MINUS_ONE = QPolynomial([-1, 1])


def q_power_minus_one(d: int) -> QPolynomial:
    """q^d - 1."""
    if d < 0:
        raise ValueError("negative power")
    return QPolynomial.monomial(d) - ONE


def div_exact(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Return c with a = b*c, raising NonExactDivision if no such c exists."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZERO
    if a.degree < b.degree:
        raise NonExactDivision(f"({a}) is not divisible by ({b})")
    rem = list(a.coeffs)
    div = b.coeffs
    lead = div[-1]
    out = [0] * (len(rem) - len(div) + 1)
    for k in range(len(out) - 1, -1, -1):
        top = rem[k + len(div) - 1]
        if top % lead != 0:
            raise NonExactDivision(f"({a}) is not divisible by ({b})")
        c = top // lead
        out[k] = c
        if c:
            for j, d in enumerate(div):
                rem[k + j] -= c * d
    if any(rem):
        raise NonExactDivision(f"({a}) is not divisible by ({b})")
    return QPolynomial(out)


def eval_big(p: QPolynomial, q0: int) -> int:
    """Exact value p(q0) for an integer q0 >= 2."""
    if q0 < 2:
        raise ValueError("evaluation point must be >= 2")
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * q0 + c
    return acc


def _divisors(n: int) -> list[int]:
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _times_binomial(coeffs: list[int], d: int) -> list[int]:
    """coeffs * (q^d - 1) by one shift-subtract."""
    return [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]


def _over_binomial(coeffs: list[int], d: int) -> list[int]:
    """coeffs / (q^d - 1), raising NonExactDivision on a nonzero remainder.

    With coeffs = c * (q^d - 1), c_k = -(coeffs_k + coeffs_{k-d} + ...), and
    the remainder is zero iff those running sums vanish on the top d powers.
    The zero polynomial (no coefficients) divides to zero.
    """
    sums = coeffs[:]
    for j in range(d):
        sums[j::d] = accumulate(coeffs[j::d])
    top = len(coeffs) - d
    if (coeffs and top < 1) or any(sums[top:]):
        raise NonExactDivision(
            f"degree-{len(coeffs) - 1} polynomial is not divisible by (q^{d} - 1)"
        )
    return [-s for s in sums[:top]]


@dataclass(frozen=True)
class QProduct:
    """q^shift * prod over n of Phi_n(q)^e_n, every e_n >= 0.

    Phi_n is the n-th cyclotomic polynomial.  ``phi`` holds the (n, e_n)
    pairs with e_n > 0 in increasing n, so equal products compare equal.
    Build values with ``QProduct.of``; multiplication adds exponents,
    exact division subtracts them, and ``expand`` gives the dense form.
    """

    shift: int = 0
    phi: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, degrees: Iterable[int] = (), shift: int = 0) -> "QProduct":
        """q^shift * prod of (q^d - 1) over the multiset ``degrees``."""
        if shift < 0:
            raise ValueError("negative power")
        phi: dict[int, int] = {}
        for d in degrees:
            if d < 1:
                raise ValueError(f"q^{d} - 1 is not a cyclotomic product")
            for n in _divisors(d):
                phi[n] = phi.get(n, 0) + 1
        return cls(shift, tuple(sorted(phi.items())))

    def _combine(self, other: "QProduct", sign: int) -> "QProduct":
        phi = dict(self.phi)
        for n, e in other.phi:
            phi[n] = phi.get(n, 0) + sign * e
        shift = self.shift + sign * other.shift
        if shift < 0 or any(e < 0 for e in phi.values()):
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return QProduct(shift, tuple(sorted((n, e) for n, e in phi.items() if e)))

    def __mul__(self, other: "QProduct") -> "QProduct":
        return self._combine(other, 1)

    def __truediv__(self, other: "QProduct") -> "QProduct":
        """Exact quotient; NonExactDivision unless every exponent stays >= 0."""
        return self._combine(other, -1)

    def __pow__(self, k: int) -> "QProduct":
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return QProduct()
        return QProduct(self.shift * k, tuple((n, e * k) for n, e in self.phi))

    def __str__(self) -> str:
        factors = [f"q^{self.shift}"] if self.shift else []
        factors += [f"Phi_{n}^{e}" if e > 1 else f"Phi_{n}" for n, e in self.phi]
        return " * ".join(factors) or "1"


def expand(product: QProduct) -> QPolynomial:
    """Dense coefficients of a factored product, expanded once.

    Moebius inversion of q^d - 1 = prod_{n | d} Phi_n rewrites the Phi
    exponents as (q^d - 1) exponents.  The positive ones are multiplied in
    by shift-subtract, then the negative ones divided out by sparse exact
    division, each O(degree).
    """
    power: dict[int, int] = {}
    for n, e in product.phi:
        for d in _divisors(n):
            power[d] = power.get(d, 0) + _mobius(n // d) * e
    coeffs = [1]
    for d in sorted(power):
        for _ in range(power[d]):
            coeffs = _times_binomial(coeffs, d)
    for d in sorted(power, reverse=True):
        for _ in range(-power[d]):
            coeffs = _over_binomial(coeffs, d)
    return QPolynomial([0] * product.shift + coeffs)


def gaussian_factors(n: int, r: int, base_power: int = 1) -> QProduct:
    """q-binomial [n, r] in the variable q^base_power, in factored form.

    The defining quotient prod (Q^{n-r+i} - 1) / (Q^i - 1) over i = 1..r,
    with Q = q^base_power, divided exactly.
    """
    if base_power < 1:
        raise ValueError("base_power must be >= 1")
    if r < 0 or n < 0 or r > n:
        raise IndexOutOfRange(f"need 0 <= r <= n, got n={n}, r={r}")
    top = QProduct.of(base_power * (n - r + i) for i in range(1, r + 1))
    return top / QProduct.of(base_power * i for i in range(1, r + 1))


def gaussian_binomial(n: int, r: int, base_power: int = 1) -> QPolynomial:
    """q-binomial [n, r] in the variable q^base_power.

    Counts r-dimensional subspaces of an n-dimensional space over a field
    with q^base_power elements; the result always has nonnegative
    coefficients.
    """
    return expand(gaussian_factors(n, r, base_power))


def is_palindromic(p: QPolynomial) -> bool:
    """True iff the coefficient sequence reads the same in both directions."""
    return p.coeffs == tuple(reversed(p.coeffs))
