"""Exact arithmetic on integer-coefficient polynomials in the indeterminate q.

Two representations.  QPolynomial is dense: coeffs[i] is the coefficient of
q^i, with no trailing zero (the zero polynomial has an empty coefficient
tuple).  QProduct is factored: q^shift times a product of cyclotomic
polynomials Phi_n with exponents e_n, which covers every closed form built
from (q^d - 1) factors, since q^d - 1 = prod over n | d of Phi_n.  It is
one int of 32-bit fields, the shift in field 0 and e_n in field n.

Exactness is checked literally in both.  Dense division raises on a nonzero
remainder.  Factored division is one int subtraction under each field's
top bit, and raises if a Phi exponent or the shift would go negative; a
product is one int addition.  expand_all is the one path from factored to
dense: it steps each distinct product from 1 or from the product stepped
to before it, multiplying and dividing by (q^d - 1) factors, with a
sparse division that raises on a nonzero remainder as well.
Each value it steps through has c_{degree-j} = c_0 c_j, c_0 = +-1, so past
a small degree it keeps only the low half and unfolds each result once.
times_product steps a dense polynomial, on all of its coefficients, by a
factored product through the same steps: orders' chain and census sums.

Each value expand_all returns records the product it was expanded from,
and eval_big evaluates it from that product's cyclotomic factors,
q0^shift * prod Phi_n(q0)^e_n, each Phi_n(q0) divided out of q0^n - 1
once per (n, q0); every other polynomial, a sum among them, is evaluated
by Horner over its coefficients.

All coefficients are Python ints, so arithmetic is exact at any size.  Values
are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate, compress, count, islice, zip_longest
from math import isqrt, prod
from operator import add, mul, sub
from sys import byteorder

from .errors import IndexOutOfRange, InvariantViolation, NonExactDivision


class Immutable:
    """Base of the package's value classes, in place of a frozen dataclass.

    A subclass lists its fields in ``_fields``, in constructor order, their
    defaults in ``_defaults`` and every slot in ``__slots__``, the fields
    first; slots past those hold derived or memoized state, which equality,
    hashing, repr and replace leave out (QProduct's fields are views of its
    one slot, which it compares and hashes itself).  The constructor sets
    the fields, since assignment otherwise raises; a subclass deriving more
    calls it and sets the rest by object.__setattr__ or member descriptor.
    Equality holds between instances of the same class with equal fields,
    and the hash is that of the field tuple, as a frozen dataclass has
    them; importing dataclasses would cost every CLI launch its inspect/ast
    import chain.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        """Each field from args in order, then from kwargs, then from
        _defaults; TypeError names a field missing, unknown or given twice."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, {len(args)} given")
        for key in kwargs:
            if key not in fields[len(args) :]:
                wrong = "a repeated" if key in fields else "an unknown"
                raise TypeError(f"{name} got {wrong} field {key!r}")
        values = self._defaults | dict(zip(fields, args)) | kwargs
        for field in fields:
            if field not in values:
                raise TypeError(f"{name} is missing the field {field!r}")
            object.__setattr__(self, field, values[field])

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
    """Dense polynomial in q with arbitrary-precision integer coefficients.

    A value expand_all returns also holds the QProduct it was expanded from
    in its last slot, which eval_big reads and equality, hashing, repr and
    replace leave out; every other constructor leaves that slot None.
    """

    _fields = ("coeffs",)
    __slots__ = _fields + ("_product",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        _set_coeffs(self, tuple(cs))
        _set_product(self, None)

    @classmethod
    def _of_trimmed(cls, coeffs: tuple[int, ...], product: "QProduct") -> "QPolynomial":
        """The expansion of product, a coefficient tuple with no trailing
        zero taken as it is."""
        p = object.__new__(cls)
        _set_coeffs(p, coeffs)
        _set_product(p, product)
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
        cs = self.coeffs
        if not cs:
            return "0"
        # q^0 and q^1 read as a bare number and as q, a unit magnitude left
        # out of q's
        terms = [f"+ {c}" if c > 0 else f"- {-c}" for c in cs[:1] if c]
        terms += [
            ("+ " if c > 0 else "- ") + ("q" if c in (1, -1) else f"{abs(c)}*q")
            for c in cs[1:2]
            if c
        ]
        # every higher term by one format over the pieces "+ %s*q^i" of the
        # nonzero exponents: a negative value's "+ -" then reads "- ", and a
        # unit magnitude is left out
        high = cs[2:]
        if high:  # no trailing zero, so not all zero
            template = " ".join(compress(islice(_term_pieces(len(cs)), 2, None), high))
            text = template % tuple(compress(high, high))
            terms.append(text.replace("+ -", "- ").replace(" 1*q^", " q^"))
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]


# each slot's member descriptor sets it past Immutable.__setattr__, more
# cheaply than object.__setattr__ with the slot's name
_set_coeffs, _set_product = (
    getattr(QPolynomial, name).__set__ for name in QPolynomial.__slots__
)


# "+ %s*q^i" at index i, grown only up to the largest exponent rendered
_PIECES: list[str] = []


def _term_pieces(n: int) -> list[str]:
    """The memoized format pieces of exponents 0..n-1, and maybe more."""
    if len(_PIECES) < n:
        _PIECES.extend(f"+ %s*q^{i}" for i in range(len(_PIECES), n))
    return _PIECES


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

    A value expand_all returned is q0^shift times prod Phi_n(q0)^e_n of the
    product it was expanded from, each Phi_n(q0) computed once per (n, q0)
    (_cyclotomic_value); any other by Horner over its coefficients
    (_horner).
    """
    if q0 < 2:
        raise ValueError("evaluation point must be >= 2")
    product = p._product
    if product is None:
        return _horner(p.coeffs, q0)
    shift, *phi = _fields(product._packed)
    factors = compress(enumerate(phi, 1), phi)  # the n with e_n > 0
    return q0**shift * prod(_cyclotomic_value(n, q0) ** e for n, e in factors)


@lru_cache(maxsize=None)
def _cyclotomic_value(n: int, q0: int) -> int:
    """Phi_n(q0): q0^n - 1 divided by Phi_d(q0) over the divisors d < n of n,
    as q^n - 1 = prod over d | n of Phi_d, raising NonExactDivision on a
    nonzero remainder."""
    divisor = prod(_cyclotomic_value(d, q0) for d in _divisors(n)[:-1])
    value, remainder = divmod(q0**n - 1, divisor)
    if remainder:
        raise NonExactDivision(
            f"q^{n} - 1 is not divisible by its Phi_d, d < {n}, at q={q0}"
        )
    return value


def _horner(cs: tuple[int, ...], q0: int) -> int:
    """sum cs[i] q0^i by Horner within each block of 64 coefficients; the
    block values are then combined pairwise, v_2i + v_2i+1 * q0^(64 * 2^level),
    so the large products have operands of equal size, where CPython's
    Karatsuba multiply beats Horner's one small factor per coefficient."""
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

    Phi_n is the n-th cyclotomic polynomial.  The one slot holds an int of
    32-bit fields below 2^31, the shift in field 0 and e_n in field n, as
    many as the largest n (the package's products have n <= 2 * rank);
    ``shift`` and ``phi``, the (n, e_n) pairs with e_n > 0 in increasing n,
    are read-only views of it.  Build values with ``QProduct.of``;
    ``expand`` gives the dense form.
    """

    _fields = ("shift", "phi")
    __slots__ = ("_packed",)
    __init__ = object.__init__  # __new__ builds the value

    def __new__(cls, shift: int = 0, phi: Iterable[tuple[int, int]] = ()):
        packed = cls.of((), shift)._packed
        for n, e in phi:  # the pairs add, in any order
            if n < 1 or not 0 <= e < _LIMIT:
                raise ValueError(f"Phi_{n}^{e} needs n >= 1 and 0 <= e < 2^31")
            packed += e << _WIDTH * n
        return _product(packed)

    @classmethod
    def of(cls, degrees: Iterable[int] = (), shift: int = 0) -> "QProduct":
        """q^shift * prod of (q^d - 1) over the multiset ``degrees``."""
        if not 0 <= shift < _LIMIT:
            raise ValueError(f"q^{shift} needs 0 <= shift < 2^31")
        return _product(sum(map(_divisor_mask, degrees), shift))

    @property
    def shift(self) -> int:
        return self._packed & _LOW

    @property
    def phi(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, e) for n, e in enumerate(_fields(self._packed)) if n and e)

    def __eq__(self, other) -> bool:
        same = other.__class__ is QProduct
        return self._packed == other._packed if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._packed)

    def __mul__(self, other: "QProduct") -> "QProduct":
        return _product(self._packed + other._packed)

    def __truediv__(self, other: "QProduct") -> "QProduct":
        """Exact quotient; NonExactDivision unless every exponent stays >= 0:
        a field of a | guard is its exponent plus 2^31, so subtracting b's
        keeps its top bit iff the quotient's exponent is >= 0, no borrow."""
        a, b = self._packed, other._packed
        guard = _guard(max(a, b).bit_length() // _WIDTH + 1)
        quotient = (a | guard) - b
        if quotient & guard != guard:
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return _product(quotient ^ guard)

    def __pow__(self, k: int) -> "QProduct":
        if k < 0:
            raise ValueError("negative exponent")
        if k * max(_fields(self._packed)) >= _LIMIT:
            raise InvariantViolation(f"({self})^{k} has an exponent of 2^31 or more")
        return _product(self._packed * k)

    def __str__(self) -> str:
        factors = [f"q^{self.shift}"] if self.shift else []
        factors += [f"Phi_{n}^{e}" if e > 1 else f"Phi_{n}" for n, e in self.phi]
        return " * ".join(factors) or "1"


_WIDTH = 32  # bits per QProduct field
_LIMIT, _LOW = 1 << _WIDTH - 1, (1 << _WIDTH) - 1  # each field's top bit; field 0
_ORDER = 1 if byteorder == "little" else -1  # _fields' step
_set_packed = QProduct._packed.__set__


def _product(packed: int) -> QProduct:
    """The QProduct of packed; a field summed to 2^31 or more sets its top
    bit, carrying into no other field, and raises InvariantViolation."""
    if packed & _guard(packed.bit_length() // _WIDTH + 1):
        raise InvariantViolation("a QProduct exponent or shift reached 2^31")
    product = object.__new__(QProduct)
    _set_packed(product, packed)
    return product


@lru_cache(maxsize=None)
def _guard(k: int) -> int:
    """The top bit of each of fields 0..k-1."""
    return int.from_bytes(b"\0\0\0\x80" * k, "little")


def _fields(packed: int) -> tuple[int, ...]:
    """Every field of packed, field 0 first: its bytes in the host's order
    read as 4-byte unsigned ints, the top field first on a big-endian host."""
    k = packed.bit_length() // _WIDTH + 1
    return tuple(memoryview(packed.to_bytes(4 * k, byteorder)).cast("I")[::_ORDER])


@lru_cache(maxsize=None)
def _divisor_mask(d: int) -> int:
    """One in field n for each n | d: q^d - 1 = prod over n | d of Phi_n."""
    if d < 1:
        raise ValueError(f"q^{d} - 1 is not a cyclotomic product")
    return sum(1 << _WIDTH * n for n in _divisors(d))


def _binomial_powers(exponents: tuple[int, ...]) -> list[int]:
    """The (q^d - 1) exponents p_d of prod Phi_n^e_n, e_n = exponents[n], n >= 1,
    as a list indexed by d, p_0 = 0.  Since q^d - 1 is the product of Phi_n
    over n | d, e_n is the sum of p_d over the multiples d of n, solved for
    p_d from the largest d down."""
    power = list(exponents)
    power[0] = 0
    for d in range(len(power) // 2, 0, -1):
        power[d] -= sum(power[2 * d :: d])
    return power


def expand_all(products: Iterable[QProduct]) -> list[QPolynomial]:
    """Dense coefficients of each factored product.

    Each distinct Phi-exponent int (field 0 cleared) is stepped to once per
    call, from 1 or from the int stepped to just before, whichever takes
    fewer (q^d - 1) steps: the positive ones by shift-subtract, then the
    negative ones by sparse exact division, which is exact since the
    coefficients are then the target times the factors still to divide
    out.  From degree 64 the steps keep only the low half of each value
    (_expanded).  Each result is unfolded once and shifted by its own
    product's power of q, and equal products get the same QPolynomial
    object, so a caller can render or evaluate each distinct one once.
    Each object records its product, from which eval_big evaluates it.
    """
    products = list(products)
    expanded: dict[int, tuple[int, ...]] = {}
    coeffs, last = (1,), []
    for phi in dict.fromkeys(p._packed >> _WIDTH << _WIDTH for p in products):
        step = power = _binomial_powers(_fields(phi))
        if last:  # else coeffs is already 1
            step = [a - b for a, b in zip_longest(power, last, fillvalue=0)]
            if sum(map(abs, step)) >= sum(map(abs, power)):
                coeffs, step = (1,), power
        expanded[phi] = coeffs = _expanded(coeffs, step)
        last = power
    made: dict[int, QPolynomial] = {}  # one value per distinct product
    values = []
    for p in products:
        key = p._packed
        value = made.get(key)
        if value is None:  # the top coefficient is +-c_0, never zero: no trim
            shift = key & _LOW
            coeffs = (0,) * shift + expanded[key - shift]
            value = made[key] = QPolynomial._of_trimmed(coeffs, p)
        values.append(value)
    return values


# From this product degree up, _expanded keeps low halves; below it their
# bookkeeping costs more than it saves.  Folded, perfbench's catalog products
# took 1.00-1.04 times the full-length time at degrees 33-64, 0.90-0.91 at
# 65-128 and 0.61-0.69 at 1025-2048 (Python 3.11).
_FOLD_DEGREE = 64


def _expanded(coeffs: tuple[int, ...], step: list[int]) -> tuple[int, ...]:
    """The cyclotomic product coeffs times prod (q^d - 1)^step[d], stepped
    as _stepped steps; from _FOLD_DEGREE up on coefficients 0..degree // 2
    alone, as c_{degree-j} = c_0 c_j, c_0 = +-1, reading the coefficients
    past the half from their mirror images (_mirrored, _over_binomial)."""
    degree = len(coeffs) - 1
    if degree + sum(map(mul, count(), step)) < _FOLD_DEGREE:
        return tuple(_stepped(list(coeffs), step))
    half = list(coeffs[: degree // 2 + 1])
    for d, k in enumerate(step):
        for _ in range(k):
            n = (degree + d) // 2 + 1
            half += _mirrored(half, degree, n)
            half = _times_binomial(half, d)
            del half[n:]
            degree += d
    for d in range(len(step) - 1, 0, -1):
        for _ in range(-step[d]):
            half = _over_binomial(half, d, degree)
            degree -= d
    return tuple(half + _mirrored(half, degree, degree + 1))


def _mirrored(half: list[int], degree: int, n: int) -> list[int]:
    """Coefficients len(half)..n-1, none past the degree, of the product of
    this degree whose low half is half: c_j = c_0 c_{degree-j}."""
    mirror = half[degree - min(n, degree + 1) + 1 : degree - len(half) + 1][::-1]
    return mirror if half[0] > 0 else [-c for c in mirror]


def _stepped(coeffs: list[int], step: list[int]) -> list[int]:
    """coeffs times prod (q^d - 1)^step[d] over d >= 1 (step[0] = 0): the
    positive powers by shift-subtract first, then the negative ones by
    sparse exact division, so every division is exact when the whole
    product is a polynomial."""
    for d, k in enumerate(step):
        for _ in range(k):
            coeffs = _times_binomial(coeffs, d)
    for d in range(len(step) - 1, 0, -1):
        for _ in range(-step[d]):
            coeffs = _over_binomial(coeffs, d)
    return coeffs


def times_product(p: QPolynomial, product: QProduct) -> QPolynomial:
    """p times a factored product, stepped from p by the product's
    (q^d - 1) factors as expand_all steps from 1."""
    fields = _fields(product._packed)
    stepped = _stepped(list(p.coeffs), _binomial_powers(fields))
    return QPolynomial([0] * fields[0] + stepped)


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


def is_palindromic(p: QPolynomial) -> bool:
    """True iff the coefficient sequence reads the same in both directions."""
    return p.coeffs == tuple(reversed(p.coeffs))
