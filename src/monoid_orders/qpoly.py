"""Exact arithmetic on integer-coefficient polynomials in the indeterminate q.

Two representations.  QPolynomial is dense: coeffs[i] is the coefficient of
q^i, with no trailing zero (the zero polynomial has an empty coefficient
tuple).  QProduct is factored: q^shift times a product of cyclotomic
polynomials Phi_n with exponents e_n, which covers every closed form built
from (q^d - 1) factors, since q^d - 1 = prod over n | d of Phi_n.

Exactness is checked literally in both.  Dense division raises on a nonzero
remainder.  Factored division subtracts exponents and raises as soon as a
Phi exponent or the shift would go negative.  expand_all is the one path
from factored to dense: it steps each distinct product from 1 or from the
product stepped to before it, multiplying and dividing by (q^d - 1)
factors, with a sparse division that raises on a nonzero remainder as well.
Each value it steps through has c_{degree-j} = c_0 c_j, c_0 = +-1, so past
a small degree it keeps only the low half and unfolds each result once.
times_product steps a dense polynomial by a factored product through the
same multiplications and divisions, on all of its coefficients.

All coefficients are Python ints, so arithmetic is exact at any size.  Values
are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import isqrt
from operator import add, mul, sub

from .errors import IndexOutOfRange, NonExactDivision


class Immutable:
    """Base of the package's value classes, in place of a frozen dataclass.

    A subclass lists its fields in ``_fields``, in constructor order, and
    every slot in ``__slots__``, the slots that hold the fields first; slots
    past those hold derived or memoized state, which equality, hashing,
    repr and replace leave out.  Its ``__init__`` assigns each slot with
    object.__setattr__ or the slot's member descriptor, since assignment
    otherwise raises.  Equality holds between instances of the same class
    with equal fields, and the hash is that of the field tuple, as a frozen
    dataclass has them; importing dataclasses would cost every CLI launch
    its inspect/ast import chain.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values())) | changes)


class QPolynomial(Immutable):
    """Dense polynomial in q with arbitrary-precision integer coefficients."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of_trimmed(cls, coeffs: tuple[int, ...]) -> "QPolynomial":
        """A coefficient tuple with no trailing zero, taken as it is."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def monomial(cls, power: int) -> "QPolynomial":
        """Build q^power."""
        if power < 0:
            raise ValueError("negative power")
        return cls([0] * power + [1])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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
        # each term as "+ c*q^i" or "- c*q^i", the unit magnitude left out
        parts = [
            f"+ {c}*q^{i}" if c > 1 else f"- {-c}*q^{i}" if c < -1
            else f"+ q^{i}" if c == 1 else f"- q^{i}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        if not parts:
            return "0"
        # q^0 and q^1 read as a bare number and as q; they can only be in
        # the first two terms
        for k, part in enumerate(parts[:2]):
            if part.endswith("*q^0"):
                parts[k] = part[:-4]  # "+ 5*q^0" -> "+ 5"
            elif part.endswith("q^0"):
                parts[k] = part[:-3] + "1"  # "+ q^0" -> "+ 1"
            elif part.endswith("q^1"):
                parts[k] = part[:-2]  # "+ 3*q^1" -> "+ 3*q"
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
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
    if div[0] == -1 and div[-1] == 1 and not any(div[1:-1]):  # q^d - 1
        return QPolynomial(_over_binomial(rem, b.degree))
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
    """Exact value p(q0) for an integer q0 >= 2.

    Horner within each block of 64 coefficients, then the block values are
    combined pairwise, v_2i + v_2i+1 * q0^(64 * 2^level), so the large
    products have operands of equal size, where CPython's Karatsuba
    multiply beats Horner's one small factor per coefficient.
    """
    if q0 < 2:
        raise ValueError("evaluation point must be >= 2")
    cs = p.coeffs
    values = []
    for start in range(0, len(cs), 64):
        acc = 0
        for c in reversed(cs[start : start + 64]):
            acc = acc * q0 + c
        values.append(acc)
    step = q0**64
    while len(values) > 1:
        values.append(0)  # pairs an odd last value; zip drops an even one's
        pairs = iter(values)
        values = [lo + hi * step for lo, hi in zip(pairs, pairs)]
        step *= step
    return sum(values)  # one value, or none for the zero polynomial


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return tuple(small + [n // i for i in reversed(small) if i * i != n])


def _times_binomial(coeffs: list[int], d: int) -> list[int]:
    """coeffs * (q^d - 1) by one shift-subtract."""
    return [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]


def _over_binomial(coeffs: list[int], d: int, degree: int | None = None) -> list[int]:
    """coeffs / (q^d - 1), raising NonExactDivision on a nonzero remainder.

    With coeffs = c * (q^d - 1), c_k = -(coeffs_k + coeffs_{k-d} + ...), and
    the remainder is zero iff those running sums vanish at the last d
    indices j.  Given a degree, coeffs is the low half 0..degree // 2 of a
    product p with p_{degree-j} = s p_j, s the sign of p_0: s times the
    running sum at degree - d - j adds p's terms past the half to each, and
    the quotient's low half is returned.  The zero polynomial (no
    coefficients) divides to zero.
    """
    sums = coeffs[:]
    for j in range(d):
        sums[j::d] = accumulate(coeffs[j::d])
    end = len(coeffs)
    window = [0] * d + sums  # window[d + j] = sums_j, 0 for j < 0
    remainder = window[end:]  # the running sums at j = end - d .. end - 1
    if degree is None:
        degree, top = end - 1, end - d
    else:  # plus s times those at degree - d - j
        mirror = window[degree - end + 1 : degree - end + d + 1][::-1]
        remainder = map(add if coeffs[0] > 0 else sub, remainder, mirror)
        top = (degree - d) // 2 + 1
    if any(remainder):
        raise NonExactDivision(
            f"degree-{degree} polynomial is not divisible by (q^{d} - 1)"
        )
    return [-s for s in sums[:top]]


class QProduct(Immutable):
    """q^shift * prod over n of Phi_n(q)^e_n, every e_n >= 0.

    Phi_n is the n-th cyclotomic polynomial.  ``phi`` holds the (n, e_n)
    pairs with e_n > 0 in increasing n, so equal products compare equal.
    Build values with ``QProduct.of``; multiplication adds exponents,
    exact division subtracts them, and ``expand`` gives the dense form.
    """

    __slots__ = _fields = ("shift", "phi")

    def __init__(self, shift: int = 0, phi: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "phi", phi)

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
        """self * other^sign by one merge of the two n-sorted phi tuples."""
        shift = self.shift + sign * other.shift
        a = self.phi
        phi = []
        i = 0
        for n, e in other.phi:
            while i < len(a) and a[i][0] < n:
                phi.append(a[i])
                i += 1
            e *= sign
            if i < len(a) and a[i][0] == n:
                e += a[i][1]
                i += 1
            if e:
                phi.append((n, e))
        phi += a[i:]
        if shift < 0 or any(e < 0 for _, e in phi):
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return QProduct(shift, tuple(phi))

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


def _binomial_powers(phi: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """The (q^d - 1) exponents p_d of prod Phi_n^e_n.  Since q^d - 1 is the
    product of Phi_n over n | d, e_n is the sum of p_d over the multiples d
    of n, solved for p_d from the largest d down."""
    exponents = dict(phi)
    top = max(exponents, default=0)
    power = [0] * (top + 1)
    for d in range(top, 0, -1):
        power[d] = exponents.get(d, 0) - sum(power[2 * d :: d])
    return {d: p for d, p in enumerate(power) if p}


def expand_all(products: Iterable[QProduct]) -> list[QPolynomial]:
    """Dense coefficients of each factored product.

    Each distinct Phi-exponent tuple is stepped to once per call, from 1 or
    from the tuple stepped to just before, whichever takes fewer (q^d - 1)
    steps: the positive ones by shift-subtract, then the negative ones by
    sparse exact division, which is exact since the coefficients are then
    the target times the factors still to divide out.  From degree 64 the
    steps keep only the low half of each value (_expanded).  Each result is
    unfolded once and shifted by its own product's power of q.
    """
    products = list(products)
    expanded: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
    coeffs, last = (1,), {}
    for phi in dict.fromkeys(product.phi for product in products):
        step = power = _binomial_powers(phi)
        if last:  # else coeffs is already 1
            step = {d: power.get(d, 0) - last.get(d, 0) for d in power | last}
            if sum(map(abs, step.values())) >= sum(map(abs, power.values())):
                coeffs, step = (1,), power
        expanded[phi] = coeffs = _expanded(coeffs, step)
        last = power
    # the top coefficient is +-c_0, never zero: no trim
    return [QPolynomial._of_trimmed((0,) * p.shift + expanded[p.phi]) for p in products]


# From this product degree up, _expanded keeps low halves; below it their
# bookkeeping costs more than it saves.  Folded, perfbench's catalog products
# took 1.00-1.04 times the full-length time at degrees 33-64, 0.90-0.91 at
# 65-128 and 0.61-0.69 at 1025-2048 (Python 3.11).
_FOLD_DEGREE = 64


def _expanded(coeffs: tuple[int, ...], step: dict[int, int]) -> tuple[int, ...]:
    """The cyclotomic product coeffs times prod (q^d - 1)^step[d], stepped
    as _stepped steps; from _FOLD_DEGREE up on coefficients 0..degree // 2
    alone, as c_{degree-j} = c_0 c_j, c_0 = +-1, reading the coefficients
    past the half from their mirror images (_mirrored, _over_binomial)."""
    degree = len(coeffs) - 1
    if degree + sum(map(mul, step, step.values())) < _FOLD_DEGREE:
        return tuple(_stepped(list(coeffs), step))
    half = list(coeffs[: degree // 2 + 1])
    for d in sorted(step):
        for _ in range(step[d]):
            n = (degree + d) // 2 + 1
            half += _mirrored(half, degree, n)
            half = _times_binomial(half, d)
            del half[n:]
            degree += d
    for d in sorted(step, reverse=True):
        for _ in range(-step[d]):
            half = _over_binomial(half, d, degree)
            degree -= d
    return tuple(half + _mirrored(half, degree, degree + 1))


def _mirrored(half: list[int], degree: int, n: int) -> list[int]:
    """Coefficients len(half)..n-1, none past the degree, of the product of
    this degree whose low half is half: c_j = c_0 c_{degree-j}."""
    mirror = half[degree - min(n, degree + 1) + 1 : degree - len(half) + 1][::-1]
    return mirror if half[0] > 0 else [-c for c in mirror]


def _stepped(coeffs: list[int], step: dict[int, int]) -> list[int]:
    """coeffs times prod (q^d - 1)^step[d]: the positive powers by
    shift-subtract first, then the negative ones by sparse exact division,
    so every division is exact when the whole product is a polynomial."""
    for d in sorted(step):
        for _ in range(step[d]):
            coeffs = _times_binomial(coeffs, d)
    for d in sorted(step, reverse=True):
        for _ in range(-step[d]):
            coeffs = _over_binomial(coeffs, d)
    return coeffs


def times_product(p: QPolynomial, product: QProduct) -> QPolynomial:
    """p times a factored product, stepped from p by the product's
    (q^d - 1) factors as expand_all steps from 1."""
    stepped = _stepped(list(p.coeffs), _binomial_powers(product.phi))
    return QPolynomial([0] * product.shift + stepped)


def expand(product: QProduct) -> QPolynomial:
    """Dense coefficients of one factored product: expand_all([product])[0]."""
    return expand_all([product])[0]


def poly_sum(polys: Iterable[QPolynomial]) -> QPolynomial:
    """Sum by columns: one pass over all coefficient tuples, not one
    addition per polynomial."""
    columns = zip_longest(*(p.coeffs for p in polys), fillvalue=0)
    return QPolynomial(map(sum, columns))


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
