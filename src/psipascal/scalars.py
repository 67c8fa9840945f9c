"""Exact scalar arithmetic for the two field domains everything else runs on.

There are exactly two domains:

* rationals, represented by a Python ``int`` or a stdlib
  ``fractions.Fraction`` (already reduced, positive denominator); the
  field's own operations (``zero``, ``one``, ``coerce``, parsing and
  :func:`divide`, the one exact division) give an ``int`` exactly when the
  value is integral, an arithmetic result of ``Fraction`` operands that
  happens to be integral stays a ``Fraction``, and the two forms of one
  value compare and hash alike, and
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
    "divide",
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
# coefficients are the public constructor's input, cleared there with one
# lcm, and the monic form the public accessors derive.  Products of operands
# with enough dense terms are one big-int product (Kronecker substitution).
# A sum of shifted products q^d a b (the weighted Cauchy sums of sequences.py
# at a unit-monomial base, which _unit_weighted_sum recognises) is added into
# one coefficient list, the accumulator step of sparse polynomial
# arithmetic: _paccumulate adds each packed product at its offset and runs
# the schoolbook loop of any other pair at shifted indices, so no shifted
# factor, product or partial sum is built.
# Every result is reduced by one gcd step, _cancel: an integer gcd where one
# side is a constant, one exact division where the primitive part of the
# denominator divides the numerator, and otherwise the contents' gcd times
# the primitive PRS gcd; see "arithmetic on canonical pairs".  Exact
# division of a long dense divisor by a long quotient is one big-int divmod
# of the packed operands, its quotient proved by multiplying it back; every
# other division, and every packed one that cannot decide, is integer trial
# division.
# ---------------------------------------------------------------------------

# Fewest terms each operand needs for the packed product.  Replaying every
# product of `check eq4 -s q` and `check eq11-basic -s q` through both loops
# on CPython 3.11 put the break-even at 8-9 terms in the shorter operand.
# Packed exact division packs, divides, unpacks and multiplies back, so it
# needs twice as many terms in both the divisor and the quotient: replaying
# the divisions of the q-dense and suite-full benchmark workloads, and a
# ladder of dense divisors and quotients of 10 to 1000 terms, put its
# break-even at 16-24 terms in the shorter of the two.
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
    # a constant factor is a scaling
    if len(a) == 1:
        return _pscale(b, a[0])
    if len(b) == 1:
        return _pscale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    _pmul_into(out, a, b, 0)
    return tuple(out)


def _pmul_into(out: list, a: tuple, b: tuple, d: int) -> None:
    """Add q^d a b into the coefficient list ``out``, one term product at a time."""
    terms = [(j + d, b[j]) for j in compress(range(len(b)), b)]
    for i in compress(range(len(a)), a):
        ca = a[i]
        for j, cb in terms:
            out[i + j] += ca * cb


def _paccumulate(terms: list) -> tuple:
    """The sum of q^d a b over the (d, a, b) of ``terms`` (not empty), added into one list.

    A pair of operands dense enough to pack (``_dense``, as ``_pmul``
    decides) is one packed product added at offset d; any other pair runs
    the schoolbook loop at indices shifted by d.  No shifted factor, product
    or partial sum is built, and the result is trimmed once.
    """
    out = [0] * max([d + len(a) + len(b) for d, a, b in terms])
    for d, a, b in terms:
        if _dense(a) and _dense(b):
            for i, c in enumerate(_pmul_packed(a, b), d):
                out[i] += c
        else:
            _pmul_into(out, a, b, d)
    return _ptrim(out)


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
    return _unpack(product, len(a) + len(b) - 1, width)


def _unpack(packed: int, n: int, width: int) -> tuple:
    """The n coefficients of width-byte slots that ``packed`` holds, as _pack packs them.

    Every coefficient must lie strictly between -2^(8 width - 1) and
    2^(8 width - 1).
    """
    half = 1 << (8 * width - 1)
    raw = (packed + _offset(n, width)).to_bytes(n * width, "little")
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
    """(content, p) with a == content * p, p primitive over Z with positive lead."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return g, _pdivi(a, g)


def _pexquo(a: tuple, b: tuple):
    """a / b over Z if b divides a, else None; a and b are integer polynomials."""
    db = len(b) - 1
    if len(a) <= db or (b[0] and a[0] % b[0]):
        return None
    if min(len(a) - db, len(b)) >= 2 * _PACK_CUTOFF and _dense(b):
        quo = _pexquo_packed(a, b)
        if quo is not _UNDECIDED:
            return quo
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


# what _pexquo_packed returns when the packed images cannot decide
_UNDECIDED = object()


def _pexquo_packed(a: tuple, b: tuple):
    """a / b by one big-int divmod of the Kronecker images; _UNDECIDED if it cannot tell.

    b(X) is nonzero, so a nonzero remainder proves that b does not divide a.
    A zero remainder only gives a candidate: its slots may overflow, or the
    images may divide although the polynomials do not, so the candidate is
    accepted only if multiplying it back gives a.
    """
    top = max(max(a), -min(a), max(b), -min(b))
    width = top.bit_length() // 8 + 1
    quo, rem = divmod(_pack(a, width), _pack(b, width))
    if rem:
        return None
    try:
        cand = _unpack(quo, len(a) - len(b) + 1, width)
    except OverflowError:
        return _UNDECIDED
    return cand if _pmul(cand, b) == a else _UNDECIDED


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


def _pdivi(a: tuple, g: int) -> tuple:
    """a / g for an integer g that divides every coefficient."""
    return a if g == 1 else tuple([c // g for c in a])


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
    return tuple([divide(c, d) for c in cs])


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
        # one lcm clears every Fraction coefficient; an int is its own numerator
        k = lcm(*[c.denominator for c in num + den])
        num, den = [tuple([c.numerator * (k // c.denominator) for c in p]) for p in (num, den)]
        self._num, self._den = _reduce(num, den)

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
        return _sum(self._num, self._den, o._num, o._den)

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
        return _product(self._num, self._den, o._num, o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by zero rational function")
        return _product(self._num, self._den, *_inverse(o._num, o._den))

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
        num, den = _inverse(self._num, self._den)
        return RationalFunction._make(_ppow(num, -exponent), _ppow(den, -exponent))

    def __neg__(self):
        return RationalFunction._make(_pneg(self._num), self._den)

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


# ---------------------------------------------------------------------------
# arithmetic on canonical pairs
#
# The operators pass canonical pairs (num, den) to these functions, which
# build the canonical pair of the result the way Fraction adds and
# multiplies.  By Gauss's lemma over the UFD Z[q] each needs one complete
# gcd step, _cancel, which the constructor shares through _reduce (von zur
# Gathen & Gerhard, Modern Computer Algebra, 6.2).
# ---------------------------------------------------------------------------


def _inverse(num: tuple, den: tuple) -> tuple:
    """The canonical pair of den/num, for canonical num/den with num nonzero."""
    return (_pneg(den), _pneg(num)) if num[-1] < 0 else (den, num)


def _cancel(n: tuple, d: tuple) -> tuple:
    """(n / g, d / g) for g = gcd(n, d) over Z[q], with the sign of d's lead kept in d / g.

    When n or d is a constant, g is an integer gcd.  Otherwise d = c p for
    its content c and primitive part p.  If p divides n, g = p gcd(c, n / p);
    if not, g is the gcd of the two contents times the primitive PRS gcd of
    the two primitive parts.
    """
    if len(d) == 1:
        g = gcd(d[0], *n)
        return _pdivi(n, g), (d[0] // g,)
    if len(n) == 1:
        g = gcd(n[0], *d)
        return (n[0] // g,), _pdivi(d, g)
    c, p = _primitive(d)
    quo = _pexquo(n, p)
    if quo is not None:
        g = gcd(c, *quo)
        return _pdivi(quo, g), (c // g,)
    cn, pn = _primitive(n)
    g, k = _pgcd(pn, p), gcd(cn, c)
    return _pscale(_pexquo(pn, g), cn // k), _pscale(_pexquo(p, g), c // k)


def _reduce(n: tuple, d: tuple) -> tuple:
    """The canonical pair of n/d, for integer polynomials n and nonzero d."""
    if not n:
        return (), (1,)
    n, d = _cancel(n, d)
    return (_pneg(n), _pneg(d)) if d[-1] < 0 else (n, d)


def _product(an: tuple, ad: tuple, bn: tuple, bd: tuple) -> RationalFunction:
    """an/ad * bn/bd for canonical pairs, as Fraction multiplies.

    Each numerator is divided by its gcd with the other denominator.  The
    two quotients are then coprime across, so their products form the
    canonical pair and need no further reduction.
    """
    if not an or not bn:
        return RationalFunction._make((), (1,))
    (n1, d1), (n2, d2) = _cancel(an, bd), _cancel(bn, ad)
    return RationalFunction._make(_pmul(n1, n2), _pmul(d2, d1))


def _sum(an: tuple, ad: tuple, bn: tuple, bd: tuple) -> RationalFunction:
    """an/ad + bn/bd for canonical pairs; integer denominators add as Fraction adds."""
    if len(ad) > 1 or len(bd) > 1:
        return RationalFunction._make(*_reduce(_padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd)))
    da, db = ad[0], bd[0]
    # by Gauss's lemma only an integer can divide both sides, and with
    # g = gcd(da, db) it divides g (so nothing cancels when g = 1)
    g = gcd(da, db)
    s = _padd(_pscale(an, db // g), _pscale(bn, da // g))
    if not s:
        return RationalFunction._make((), (1,))
    g2 = gcd(g, *s)
    return RationalFunction._make(_pdivi(s, g2), ((da // g) * db // g2,))


def _unit_weighted_sum(terms: list) -> Optional[RationalFunction]:
    """The sum of w a c over the (w, a, c) of ``terms`` by _paccumulate, or None where it does not apply.

    It applies when ``terms`` is not empty, every w is a unit monomial q^d
    and every value has denominator 1.  The numerators are then added into
    one list, and the result is the canonical pair that the term-by-term sum
    of the same values builds.
    """
    shifted = []
    for w, a, c in terms:
        n = w._num
        if not (w._den == a._den == c._den == (1,) and n.count(0) + 1 == len(n) and n[-1] == 1):
            return None
        shifted.append((len(n) - 1, a._num, c._num))
    return RationalFunction._make(_paccumulate(shifted), (1,)) if shifted else None


q = RationalFunction.generator()

Scalar = Union[int, Fraction, RationalFunction]


def divide(a, b) -> Scalar:
    """The exact quotient a / b of two scalars of either field.

    Over Q an integral quotient is an ``int`` and any other a ``Fraction``,
    never a ``float``: two ints divide by ``divmod``, and a ``Fraction``
    quotient with denominator 1 gives its numerator.  A ``RationalFunction``
    operand divides over Q(q).  The operand types choose the route, so a
    Q(q) point divides by a Q factorial.
    """
    if isinstance(a, int) and isinstance(b, int):
        quotient, remainder = divmod(a, b)
        return Fraction(a, b) if remainder else quotient
    out = a / b
    if type(out) is Fraction and out.denominator == 1:
        return out.numerator
    return out


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
        return RationalFunction._make((), (1,)) if self.symbolic else 0

    @property
    def one(self) -> Scalar:
        return RationalFunction._make((1,), (1,)) if self.symbolic else 1

    def coerce(self, value) -> Scalar:
        """``value`` in this field; over Q an integral value is an ``int``, any other a ``Fraction``."""
        if self.symbolic:
            out = RationalFunction._coerce(value)
            if out is None:
                raise FieldMismatchError(f"cannot coerce {value!r} into {self.name}")
            return out
        if isinstance(value, int):
            # int() of an int is the value itself, of a bool 0 or 1
            return int(value)
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
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


def _parse_unsigned_rational(cur: _Cursor) -> Union[int, Fraction]:
    num = cur.take_uint("digits")
    if cur.peek() == "/":
        cur.pos += 1
        dpos = cur.pos
        den = cur.take_uint("digits after '/'")
        if den == 0:
            raise ScalarParseError("zero denominator", dpos)
        return divide(num, den)
    return num


def parse_rational(text: str) -> Union[int, Fraction]:
    """Parse the rational grammar: optional '-', digits, optional '/' digits.

    An integral value is returned as an ``int``, any other as a ``Fraction``.
    """
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
    coeffs: dict[int, Union[int, Fraction]] = {}
    sign = 1
    cur.skip_spaces()
    if cur.peek() == "-":
        sign = -1
        cur.pos += 1
    while True:
        cur.skip_spaces()
        if cur.peek() == "q":
            mag = 1
            exponent = _parse_q_exponent(cur)
        else:
            mag = _parse_unsigned_rational(cur)
            if cur.peek() == "*":
                cur.pos += 1
                exponent = _parse_q_exponent(cur)
            else:
                exponent = 0
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * mag
        cur.skip_spaces()
        nxt = cur.peek()
        if nxt == "+":
            sign = 1
        elif nxt == "-":
            sign = -1
        else:
            break
        cur.pos += 1
    out = [0] * (max(coeffs) + 1)
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
