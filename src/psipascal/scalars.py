"""Exact scalar arithmetic for the two field domains everything else runs on.

There are exactly two domains:

* rationals, represented by stdlib ``fractions.Fraction`` (already reduced,
  positive denominator, zero is 0/1), and
* rational functions in one indeterminate ``q`` over the rationals,
  represented by :class:`RationalFunction`.

A :class:`RationalFunction` is stored as a canonical pair of integer
polynomials: numerator and denominator coprime, no integer factor common to
all their coefficients, a positive leading denominator coefficient, zero as
0/1.  By Gauss's lemma every quotient has exactly one such pair, so equality
is a structural comparison of int tuples and the polynomial kernel never
sees a ``Fraction``.  The monic-denominator form, with ``Fraction``
coefficients where they are not integral, is derived only at the boundary:
the public ``numerator``/``denominator``, the text and the LaTeX forms.
Rationals embed into the rational-function domain as constants; the reverse
direction is an error.

All values are immutable and all operations are pure, so they can be shared
freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, neg
from typing import Iterable, Optional, Union

Rational = Fraction

__all__ = [
    "Rational",
    "RationalFunction",
    "Scalar",
    "ScalarField",
    "RATIONAL_FIELD",
    "RATIONAL_FUNCTION_FIELD",
    "ScalarParseError",
    "FieldMismatchError",
    "PoleError",
    "q",
    "field_of",
    "scalar_to_string",
    "scalar_to_latex",
    "parse_rational",
    "parse_rational_function",
    "parse_scalar",
]


class ScalarParseError(ValueError):
    """Malformed scalar text; ``position`` is the offset of the first bad character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position


class FieldMismatchError(TypeError):
    """A value from one scalar domain was forced into the other."""


class PoleError(ZeroDivisionError):
    """Substitution point is a root of the denominator."""


# ---------------------------------------------------------------------------
# dense polynomial kernel (ascending integer coefficient tuples, () is zero)
#
# Every coefficient the kernel sees is an int.  A rational function is stored
# as a pair of integer polynomials (see RationalFunction); the only Fraction
# coefficients are the public constructor's input, cleared in _primitive, and
# the monic form the public accessors derive.  Products of operands with
# enough dense terms are one big-int product (Kronecker substitution), and
# canonicalisation splits both sides into an integer content times a
# primitive polynomial, then divides out their gcd over Z.
# ---------------------------------------------------------------------------

# Fewest terms each operand needs for the packed product.  Replaying every
# product of `check eq4 -s q` and `check eq11-basic -s q` through both loops
# on CPython 3.11 put the break-even at 8-9 terms in the shorter operand.
_PACK_CUTOFF = 10


def _ptrim(cs) -> tuple:
    """Canonical tuple: trailing zeros dropped."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _ptrim(tuple(map(add, a, b)) + a[len(b):])


def _pneg(a: tuple) -> tuple:
    return tuple(map(neg, a))


def _dense(a: tuple) -> bool:
    return len(a) >= _PACK_CUTOFF and 2 * a.count(0) <= len(a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    # a product with the unit monomial q^e is a shift; testing the leading
    # coefficient first keeps the count off every other operand
    if a[-1] == 1 and a.count(0) == len(a) - 1:
        return (0,) * (len(a) - 1) + b
    if b[-1] == 1 and b.count(0) == len(b) - 1:
        return (0,) * (len(b) - 1) + a
    # the leading product is nonzero, so neither loop's result needs a trim
    if _dense(a) and _dense(b):
        return _pmul_packed(a, b)
    return _pmul_school(a, b)


def _pmul_school(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, b[j]) for j in compress(range(len(b)), b)]
    for i in compress(range(len(a)), a):
        ca = a[i]
        for j, cb in terms:
            out[i + j] += ca * cb
    return tuple(out)


def _pack(a: tuple, width: int) -> int:
    # slot i holds a[i] + 2^(8 width - 1), which is nonnegative and fits
    half = 1 << (8 * width - 1)
    packed = b"".join([(c + half).to_bytes(width, "little") for c in a])
    return int.from_bytes(packed, "little") - _offset(len(a), width)


def _offset(n: int, width: int) -> int:
    # n slots of 2^(8 width - 1) each
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pmul_packed(a: tuple, b: tuple) -> tuple:
    """Kronecker substitution q := 2^(8 width): one big-int product.

    Every product coefficient is bounded by max|a| max|b| min(len a, len b),
    so a slot of that many bits plus a sign bit holds it exactly.
    """
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    pa = _pack(a, width)
    product = pa * pa if a is b else pa * _pack(b, width)
    n = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    raw = (product + _offset(n, width)).to_bytes(n * width, "little")
    return tuple(
        [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)]
    )


def _ppow(a: tuple, e: int) -> tuple:
    out = (1,)
    base = a
    while e:
        if e & 1:
            out = _pmul(out, base)
        e >>= 1
        if e:
            base = _pmul(base, base)
    return out


def _primitive(a: tuple) -> tuple:
    """(content, p) with a == content * p, p primitive over Z with positive lead.

    The content is an int.  Only the public constructor's input can hold
    other coefficients (Fractions); math.gcd rejects them, and they are
    cleared here, which makes the content a Fraction.
    """
    try:
        g = gcd(*a)
    except TypeError:
        fs = [Fraction(c) for c in a]
        d = lcm(*[f.denominator for f in fs])
        g, a = _primitive(tuple([f.numerator * (d // f.denominator) for f in fs]))
        return Fraction(g, d), a
    if a[-1] < 0:
        g = -g
    return g, (a if g == 1 else tuple([c // g for c in a]))


def _pexquo(a: tuple, b: tuple):
    """a / b over Z if b divides a, else None; a and b are integer polynomials."""
    db = len(b) - 1
    if len(a) <= db or (b[0] and a[0] % b[0]):
        return None
    lead = b[-1]
    terms = [(t, b[t]) for t in compress(range(db), b)]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = rem[i]
        if not f:
            continue
        if lead != 1:
            f, r = divmod(f, lead)
            if r:
                return None
        off = i - db
        quo[off] = f
        for t, bt in terms:
            rem[off + t] -= f * bt
    if any(rem[:db]):
        return None
    return tuple(quo)


def _pprem(a: tuple, b: tuple) -> tuple:
    """Remainder of a by b over Z, up to a nonzero integer factor.

    Each step scales the running remainder by only as much of lead(b) as the
    coefficient being cancelled needs (Knuth, TAOCP 2, 4.6.1).
    """
    db = len(b) - 1
    lead = b[-1]
    terms = [(t, b[t]) for t in compress(range(db), b)]
    rem = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        g = gcd(c, lead)
        scale, f = lead // g, c // g
        if scale != 1:
            rem[:i] = [scale * v for v in rem[:i]]
        off = i - db
        for t, bt in terms:
            rem[off + t] -= f * bt
    return _ptrim(rem[:db])


def _pgcd(a: tuple, b: tuple) -> tuple:
    """gcd of two primitive integer polynomials by the primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pprem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)[1]
    return (1,)


def _pscale(a: tuple, k: int) -> tuple:
    return a if k == 1 else tuple([k * c for c in a])


def _peval(a: tuple, point: Fraction):
    acc = 0
    for c in reversed(a):
        acc = acc * point + c
    return acc


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _poly_terms(cs: tuple, number, power: str, times: str) -> str:
    """Nonzero terms in ascending degree, each sign written as a separator.

    The text and LaTeX forms differ only in how they write a coefficient's
    magnitude (``number``), a power q^k with k >= 2 (the ``power`` format)
    and the product sign (``times``).
    """
    if not cs:
        return "0"
    parts = []
    for k, c in enumerate(cs):
        if not c:
            continue
        mag = abs(Fraction(c))
        if k == 0:
            body = number(mag)
        else:
            q_k = "q" if k == 1 else power.format(k)
            body = q_k if mag == 1 else f"{number(mag)}{times}{q_k}"
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts)


def _poly_str(cs: tuple) -> str:
    return _poly_terms(cs, str, "q^{}", "*")


def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _poly_latex(cs: tuple) -> str:
    return _poly_terms(cs, _frac_latex, "q^{{{}}}", " ")


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------


def _to_poly(value) -> tuple:
    if isinstance(value, RationalFunction):
        raise TypeError("polynomial coefficients expected, not a RationalFunction")
    return _ptrim((value,) if isinstance(value, (int, Fraction)) else tuple(value))


def _over(cs: tuple, d: int) -> tuple:
    """cs / d, with integral values as int and the others as Fraction."""
    if d == 1:
        return cs
    return tuple([Fraction(c, d) if c % d else c // d for c in cs])


class RationalFunction:
    """A reduced quotient of two polynomials in q with rational coefficients.

    It is stored as the one pair of integer polynomials (num, den) that are
    coprime, share no integer factor across all their coefficients, and give
    den a positive leading coefficient (Gauss's lemma makes this pair unique),
    so equality is a comparison of int tuples.  The public ``numerator`` and
    ``denominator`` give the monic-denominator form instead.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator=0, denominator=1):
        num = _to_poly(numerator)
        den = _to_poly(denominator)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self._num, self._den = (), (1,)
            return
        # num/den == (cn/cd) * num'/den' with num', den' primitive over Z, so
        # by Gauss's lemma divisibility over Q is divisibility over Z
        cn, num = _primitive(num)
        cd, den = _primitive(den)
        if len(den) > 1:
            quo = _pexquo(num, den)
            if quo is not None:
                num, den = quo, (1,)
            elif len(num) > 1:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num, den = _pexquo(num, g), _pexquo(den, g)
        k = Fraction(cn, cd)
        self._num, self._den = _pscale(num, k.numerator), _pscale(den, k.denominator)

    @classmethod
    def _make(cls, num: tuple, den: tuple) -> "RationalFunction":
        # bypass for results already known to be canonical
        obj = object.__new__(cls)
        obj._num, obj._den = num, den
        return obj

    @classmethod
    def from_coefficients(cls, numerator: Iterable, denominator: Iterable = (1,)) -> "RationalFunction":
        return cls(tuple(numerator), tuple(denominator))

    @classmethod
    def generator(cls) -> "RationalFunction":
        return cls._make((0, 1), (1,))

    # -- structure -----------------------------------------------------

    @property
    def numerator(self) -> tuple:
        """Ascending numerator coefficients over the monic denominator (ints or Fractions)."""
        return _over(self._num, self._den[-1])

    @property
    def denominator(self) -> tuple:
        """Ascending coefficients of the monic denominator (ints or Fractions)."""
        return _over(self._den, self._den[-1])

    @property
    def is_polynomial(self) -> bool:
        return len(self._den) == 1

    @property
    def is_constant(self) -> bool:
        return len(self._den) == 1 and len(self._num) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise FieldMismatchError(f"{self} is not a constant")
        return Fraction(self._num[0] if self._num else 0, self._den[0])

    def eval_at(self, point) -> Fraction:
        """Exact substitution q := point; raises PoleError at denominator roots."""
        point = Fraction(point)
        dv = _peval(self._den, point)
        if dv == 0:
            raise PoleError(f"denominator vanishes at q = {point}")
        return Fraction(_peval(self._num, point)) / Fraction(dv)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalFunction._make((value.numerator,) if value else (), (value.denominator,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == (1,) and o._den == (1,):
            return RationalFunction._make(_padd(self._num, o._num), (1,))
        return RationalFunction(
            _padd(_pmul(self._num, o._den), _pmul(o._num, self._den)),
            _pmul(self._den, o._den),
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == (1,) and o._den == (1,):
            return RationalFunction._make(_pmul(self._num, o._num), (1,))
        return RationalFunction(_pmul(self._num, o._num), _pmul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(_pmul(self._num, o._den), _pmul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent >= 0:
            return RationalFunction._make(_ppow(self._num, exponent), _ppow(self._den, exponent))
        if not self._num:
            raise ZeroDivisionError("zero has no negative powers")
        return RationalFunction(_ppow(self._den, -exponent), _ppow(self._num, -exponent))

    def __neg__(self):
        return RationalFunction._make(_pneg(self._num), self._den)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self.is_constant and (self._num[0] if self._num else 0) == other * self._den[0]
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self._num, self._den))

    def __str__(self):
        if self.is_constant:
            return str(self.constant_value())
        return f"({_poly_str(self.numerator)})/({_poly_str(self.denominator)})"

    def __repr__(self):
        return f"RationalFunction({str(self)!r})"


q = RationalFunction.generator()

Scalar = Union[Fraction, RationalFunction]


# ---------------------------------------------------------------------------
# field domains
# ---------------------------------------------------------------------------


class ScalarField:
    """Domain tag plus the coercion and parsing rules of one scalar field."""

    __slots__ = ("name", "symbolic")

    def __init__(self, name: str, symbolic: bool):
        self.name = name
        self.symbolic = symbolic

    @property
    def zero(self) -> Scalar:
        return RationalFunction._make((), (1,)) if self.symbolic else Fraction(0)

    @property
    def one(self) -> Scalar:
        return RationalFunction._make((1,), (1,)) if self.symbolic else Fraction(1)

    def coerce(self, value) -> Scalar:
        if self.symbolic:
            out = RationalFunction._coerce(value)
            if out is None:
                raise FieldMismatchError(f"cannot coerce {value!r} into {self.name}")
            return out
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fraction):
            return value
        raise FieldMismatchError(f"cannot coerce {value!r} into {self.name}")

    def parse(self, text: str) -> Scalar:
        return parse_scalar(text, self)

    def join(self, other: "ScalarField") -> "ScalarField":
        return self if self is other or self.symbolic else other

    def __repr__(self):
        return f"<ScalarField {self.name}>"


RATIONAL_FIELD = ScalarField("rational", symbolic=False)
RATIONAL_FUNCTION_FIELD = ScalarField("rational-function", symbolic=True)


def infer_field(values, declared: Optional[ScalarField] = None) -> ScalarField:
    """``declared`` if given; otherwise Q(q) if any value is a rational function, else Q."""
    if declared is not None:
        return declared
    if any(isinstance(v, RationalFunction) for v in values):
        return RATIONAL_FUNCTION_FIELD
    return RATIONAL_FIELD


def field_of(value) -> ScalarField:
    """The domain a scalar value belongs to."""
    if isinstance(value, RationalFunction):
        return RATIONAL_FUNCTION_FIELD
    if isinstance(value, (int, Fraction)):
        return RATIONAL_FIELD
    raise TypeError(f"not a scalar: {value!r}")


def scalar_to_string(value) -> str:
    """Canonical text form; parse_scalar inverts it within the same domain."""
    if isinstance(value, RationalFunction):
        return str(value)
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    raise TypeError(f"not a scalar: {value!r}")


def scalar_to_latex(value) -> str:
    if isinstance(value, (int, Fraction)):
        return _frac_latex(Fraction(value))
    if isinstance(value, RationalFunction):
        if value.is_constant:
            return _frac_latex(value.constant_value())
        if value.is_polynomial:
            return _poly_latex(value.numerator)
        return f"\\frac{{{_poly_latex(value.numerator)}}}{{{_poly_latex(value.denominator)}}}"
    raise TypeError(f"not a scalar: {value!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_DIGITS = "0123456789"

# Largest k accepted in q^k.  A parsed polynomial holds one coefficient per
# degree, so without a bound a short text such as q^1000000000 would ask for
# a billion-entry list; the largest degree any catalog result reaches is far
# below this.
MAX_Q_EXPONENT = 100_000

# Longest run of digits accepted in one number.  It equals CPython's default
# limit on converting text to int, so a longer run gets this parser's own
# error, with the offset of its first digit, whether or not that limit is
# set; the CLI lifts the limit so that exact values print at any length.
MAX_DIGITS = 4300


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_spaces(self) -> None:
        while self.peek() == " ":
            self.pos += 1

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ScalarParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def take_uint(self, what: str) -> int:
        start = self.pos
        while self.peek() in _DIGITS and self.peek():
            self.pos += 1
        if self.pos == start:
            raise ScalarParseError(f"expected {what}", self.pos)
        if self.pos - start > MAX_DIGITS:
            raise ScalarParseError(f"more than {MAX_DIGITS} digits in one number", start)
        return int(self.text[start : self.pos])


def _parse_unsigned_rational(cur: _Cursor) -> Fraction:
    num = cur.take_uint("digits")
    if cur.peek() == "/":
        cur.pos += 1
        dpos = cur.pos
        den = cur.take_uint("digits after '/'")
        if den == 0:
            raise ScalarParseError("zero denominator", dpos)
        return Fraction(num, den)
    return Fraction(num)


def parse_rational(text: str) -> Fraction:
    """Parse the rational grammar: optional '-', digits, optional '/' digits."""
    cur = _Cursor(text)
    negative = cur.peek() == "-"
    if negative:
        cur.pos += 1
    value = _parse_unsigned_rational(cur)
    if cur.pos != len(text):
        raise ScalarParseError("unexpected character", cur.pos)
    return -value if negative else value


def _parse_q_exponent(cur: _Cursor) -> int:
    cur.expect("q")
    if cur.peek() != "^":
        return 1
    cur.pos += 1
    start = cur.pos
    exponent = cur.take_uint("exponent digits")
    if exponent > MAX_Q_EXPONENT:
        raise ScalarParseError(f"exponent of q above {MAX_Q_EXPONENT}", start)
    return exponent


def _parse_poly_body(cur: _Cursor) -> list:
    coeffs: dict[int, Fraction] = {}
    sign = 1
    cur.skip_spaces()
    if cur.peek() == "-":
        sign = -1
        cur.pos += 1
    while True:
        cur.skip_spaces()
        if cur.peek() == "q":
            mag = Fraction(1)
            exponent = _parse_q_exponent(cur)
        else:
            mag = _parse_unsigned_rational(cur)
            if cur.peek() == "*":
                cur.pos += 1
                exponent = _parse_q_exponent(cur)
            else:
                exponent = 0
        coeffs[exponent] = coeffs.get(exponent, Fraction(0)) + sign * mag
        cur.skip_spaces()
        nxt = cur.peek()
        if nxt == "+":
            sign = 1
        elif nxt == "-":
            sign = -1
        else:
            break
        cur.pos += 1
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def parse_rational_function(text: str) -> RationalFunction:
    """Parse '(poly)/(poly)', a bare polynomial in q, or a plain rational."""
    cur = _Cursor(text)
    cur.skip_spaces()
    if cur.peek() == "(":
        cur.pos += 1
        num = _parse_poly_body(cur)
        cur.skip_spaces()
        cur.expect(")")
        cur.skip_spaces()
        cur.expect("/")
        cur.skip_spaces()
        cur.expect("(")
        den = _parse_poly_body(cur)
        cur.skip_spaces()
        cur.expect(")")
    else:
        num = _parse_poly_body(cur)
        den = [1]
    cur.skip_spaces()
    if cur.pos != len(text):
        raise ScalarParseError("unexpected character", cur.pos)
    if not any(den):
        raise ScalarParseError("zero denominator polynomial", len(text) - 1)
    return RationalFunction(num, den)


def parse_scalar(text: str, field: ScalarField) -> Scalar:
    """Parse text into the join of the given domain and the text's own one.

    Rationals embed upward, and over Q a text outside the rational grammar
    is read in the Q(q) grammar, as arithmetic would widen it: a point given
    to a rational sequence may be a rational function.  A text that is
    neither reports the Q(q) grammar's error.
    """
    if not field.symbolic:
        try:
            return parse_rational(text)
        except ScalarParseError:
            pass
    return parse_rational_function(text)
