"""Polynomial kernel of the scalar layer: packed products and canonical form.

The packed (Kronecker) product is checked against the schoolbook oracle in
``oracles.py``, the fraction-free canonicalisation against ``sympy.cancel``.
The arithmetic on canonical pairs is checked against the oracle's own
reduction, and the packed exact division against the schoolbook division.
"""

import contextlib
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul, sub, truediv
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psipascal import scalars
from psipascal.engine import MUST_PASS, run_suite
from psipascal.scalars import (
    RATIONAL_FIELD,
    RATIONAL_FUNCTION_FIELD,
    _PACK_CUTOFF,
    _UNDECIDED,
    RationalFunction,
    _dense,
    _pack,
    _pexquo,
    _pexquo_packed,
    _pmul,
    _pmul_packed,
    _ppow,
    _unpack,
)
from psipascal.sequences import PascalTriangle

from oracles import poly_add, poly_mul, reduce_pair

RF = RationalFunction

small = st.integers(min_value=-9, max_value=9)
huge = st.integers(min_value=-(2**260), max_value=2**260)
coeffs = st.one_of(small, huge)
negative = st.integers(min_value=-(2**260), max_value=-1)
# lengths on both sides of the packing cutoff
lengths = st.integers(min_value=1, max_value=3 * _PACK_CUTOFF)


@st.composite
def int_polys(draw, elements=coeffs, size=lengths):
    """Canonical integer polynomial: ascending tuple with a nonzero last term."""
    n = draw(size)
    body = draw(st.lists(elements, min_size=n - 1, max_size=n - 1))
    return tuple(body) + (draw(elements.filter(bool)),)


@st.composite
def half_zero_polys(draw):
    """Dense enough to pack, yet exactly half of the slots (rounded down) are 0."""
    n = draw(st.integers(min_value=_PACK_CUTOFF, max_value=3 * _PACK_CUTOFF))
    cs = draw(st.lists(coeffs.filter(bool), min_size=n, max_size=n))
    for i in draw(st.permutations(range(n - 1)))[: n // 2]:
        cs[i] = 0
    return tuple(cs)


def oracle(a, b):
    return tuple(poly_mul(a, b))


class TestPackedProduct:
    @given(int_polys(), int_polys())
    @settings(deadline=None, max_examples=80)
    def test_packed_equals_schoolbook(self, a, b):
        assert _pmul_packed(a, b) == oracle(a, b)

    @given(int_polys(), int_polys())
    @settings(deadline=None, max_examples=80)
    def test_product_equals_schoolbook_either_side_of_cutoff(self, a, b):
        out = _pmul(a, b)
        assert out == oracle(a, b)
        assert all(type(c) is int for c in out)

    @given(half_zero_polys(), half_zero_polys())
    @settings(deadline=None, max_examples=60)
    def test_half_zero_operands_take_the_packed_path(self, a, b):
        assert _dense(a) and _dense(b)
        assert _pmul(a, b) == oracle(a, b)

    @given(int_polys(elements=negative), int_polys(elements=negative))
    @settings(deadline=None, max_examples=60)
    def test_all_negative_operands(self, a, b):
        assert _pmul_packed(a, b) == oracle(a, b)
        assert _pmul(a, b) == oracle(a, b)

    @given(int_polys(size=st.integers(min_value=1, max_value=2 * _PACK_CUTOFF)), st.integers(0, 5))
    @settings(deadline=None, max_examples=40)
    def test_power_equals_repeated_product(self, a, e):
        expected = (1,)
        for _ in range(e):
            expected = oracle(expected, a)
        assert _ppow(a, e) == expected

    def test_coefficients_above_2_to_the_200(self):
        a = tuple((-1) ** i * (2**200 + 7 * i) for i in range(2 * _PACK_CUTOFF))
        b = tuple(-(2**230) + i for i in range(_PACK_CUTOFF + 3))
        assert _dense(a) and _dense(b)
        assert _pmul(a, b) == oracle(a, b)
        assert _pmul(a, a) == oracle(a, a)

    def test_sparse_operands_are_not_packed(self):
        a = (0,) * (4 * _PACK_CUTOFF) + (1,)
        assert not _dense(a)
        assert not _dense((1,) * (_PACK_CUTOFF - 1))
        assert _pmul(a, a) == oracle(a, a)

    def test_rational_operands(self):
        # the kernel sees only ints; Fraction coefficients are cleared when a
        # RationalFunction is built, so their products are checked there
        a = tuple(Fraction(i + 1, 3 + i % 4) for i in range(2 * _PACK_CUTOFF))
        b = (Fraction(1, 2), 0, Fraction(-3, 7), 2)
        for x, y in ((a, b), (a, a)):
            value = RF.from_coefficients(x) * RF.from_coefficients(y)
            assert value.numerator == oracle(x, y)
            assert value.denominator == (1,)
        # integral products of Fraction operands come out as ints
        value = RF(Fraction(1, 2)) * RF.from_coefficients((2, Fraction(4, 3)))
        assert value.numerator == (1, Fraction(2, 3))
        _assert_integral_coefficients_are_ints(value.numerator)


fracs = st.fractions(min_value=-40, max_value=40, max_denominator=30)
frac_lists = st.lists(fracs, max_size=7)


def _canonical(cs):
    """Ascending tuple with trailing zeros dropped and integral values as ints."""
    out = [c.numerator if c.denominator == 1 else c for c in map(Fraction, cs)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _assert_integral_coefficients_are_ints(cs):
    for c in cs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def _monomial(e, c=1):
    return (0,) * e + (c,)


def _is_unit_monomial(p):
    return p[-1] == 1 and not any(p[:-1])


def _counting_general_path(product, a, b):
    """product(a, b) and how many times it entered a multiplication loop."""
    with mock.patch.object(scalars, "_pmul_school", wraps=scalars._pmul_school) as school:
        with mock.patch.object(scalars, "_pmul_packed", wraps=scalars._pmul_packed) as packed:
            out = product(a, b)
    return out, school.call_count + packed.call_count


def _pmul_counting_general_path(a, b):
    return _counting_general_path(_pmul, a, b)


def _rf_product_counting_general_path(a, b):
    """The product of a and b as RationalFunctions, and its loop entries."""
    out, general = _counting_general_path(mul, RF.from_coefficients(a), RF.from_coefficients(b))
    assert out.denominator == (1,)
    return out.numerator, general


exponents = st.integers(min_value=0, max_value=3 * _PACK_CUTOFF)
fraction_polys = st.lists(fracs, min_size=1, max_size=2 * _PACK_CUTOFF).map(_canonical).filter(bool)


class TestMonomialShift:
    """A product with the unit monomial q^e is a shift of the other operand."""

    @given(exponents, int_polys(), st.booleans())
    @settings(deadline=None, max_examples=80)
    def test_unit_monomial_on_either_side(self, e, other, left):
        a, b = (_monomial(e), other) if left else (other, _monomial(e))
        out, general = _pmul_counting_general_path(a, b)
        assert out == oracle(a, b)
        assert general == 0
        assert all(type(c) is int for c in out)

    @given(exponents, fraction_polys, st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_unit_monomial_times_rational_coefficients(self, e, other, left):
        # other is stored as an integer polynomial over a constant, so its
        # product with q^e is a shift of that integer polynomial
        a, b = (_monomial(e), other) if left else (other, _monomial(e))
        out, general = _rf_product_counting_general_path(a, b)
        assert out == oracle(a, b)
        assert general == 0
        _assert_integral_coefficients_are_ints(out)

    def test_exponent_zero_returns_the_other_operand(self):
        other = (1, 0, -3, 7)
        assert _pmul((1,), other) == other
        assert _pmul(other, (1,)) == other

    @given(exponents, exponents)
    @settings(deadline=None, max_examples=40)
    def test_monomial_times_monomial(self, e, f):
        out, general = _pmul_counting_general_path(_monomial(e), _monomial(f))
        assert out == _monomial(e + f) == oracle(_monomial(e), _monomial(f))
        assert general == 0

    @given(
        exponents,
        st.sampled_from([2, -1]),
        int_polys().filter(lambda p: not _is_unit_monomial(p)),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=80)
    def test_other_single_terms_take_the_general_path(self, e, c, other, left):
        mono = _monomial(e, c)
        a, b = (mono, other) if left else (other, mono)
        out, general = _pmul_counting_general_path(a, b)
        assert out == oracle(a, b)
        assert general == 1
        assert all(type(c) is int for c in out)

    @given(
        exponents,
        st.sampled_from([2, -1, Fraction(1, 2), Fraction(-3, 4)]),
        fraction_polys,
        st.booleans(),
    )
    @settings(deadline=None, max_examples=60)
    def test_single_terms_times_rational_coefficients(self, e, c, other, left):
        mono = _monomial(e, c)
        a, b = (mono, other) if left else (other, mono)
        out, _ = _rf_product_counting_general_path(a, b)
        assert out == oracle(a, b)
        _assert_integral_coefficients_are_ints(out)


def _monic_canonical(num, den):
    """sympy.cancel of num/den, as coefficient tuples with a monic denominator."""
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def expr(cs):
        terms = enumerate(map(Fraction, cs))
        return sum(sympy.Rational(c.numerator, c.denominator) * s**i for i, c in terms)

    top, bottom = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    top, bottom = sympy.Poly(top, s, domain="QQ"), sympy.Poly(bottom, s, domain="QQ")
    lead = bottom.LC()

    def coefficients(poly):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed((poly * (1 / lead)).all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    return coefficients(top), coefficients(bottom)


def _assert_canonical_ints(value):
    for c in value.numerator + value.denominator:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


class TestCanonicalForm:
    @given(frac_lists, frac_lists.filter(any))
    @settings(deadline=None, max_examples=80)
    def test_matches_sympy_cancel(self, num, den):
        value = RF(num, den)
        assert (value.numerator, value.denominator) == _monic_canonical(num, den)
        _assert_canonical_ints(value)

    @given(frac_lists, frac_lists.filter(any), frac_lists.filter(any))
    @settings(deadline=None, max_examples=60)
    def test_common_factor_cancels(self, f, g, h):
        num, den = poly_mul(f, g), poly_mul(h, g)
        value = RF(num, den)
        assert (value.numerator, value.denominator) == _monic_canonical(num, den)
        assert value == RF(f, h)
        _assert_canonical_ints(value)

    @given(frac_lists, frac_lists.filter(any))
    @settings(deadline=None, max_examples=60)
    def test_exact_quotient_is_a_polynomial(self, f, g):
        value = RF(poly_mul(f, g), g)
        assert value.denominator == (1,)
        assert value == RF(f)

    def test_large_coefficients(self):
        f = [2**201 + 3, -(2**205), 17]
        g = [Fraction(1, 3), -(2**210), 1]
        h = [-5, 2**220 + 1]
        value = RF(poly_mul(f, g), poly_mul(h, g))
        assert (value.numerator, value.denominator) == _monic_canonical(f, h)


@st.composite
def rational_functions(draw):
    return RF(draw(frac_lists), draw(frac_lists.filter(any)))


class TestIntegralCoefficientsAreInts:
    @given(rational_functions(), rational_functions(), st.integers(-3, 3))
    @settings(deadline=None, max_examples=80)
    def test_arithmetic_results(self, a, b, e):
        results = [a + b, a - b, a * b, -a, a * 2, Fraction(1, 2) * b]
        if b:
            results.append(a / b)
        if e >= 0 or a:
            results.append(a**e)
        for value in results:
            _assert_canonical_ints(value)

    def test_integral_fractions_collapse(self):
        value = RF.from_coefficients((Fraction(4, 2), Fraction(0), Fraction(3)), (Fraction(1),))
        assert value.numerator == (2, 0, 3)
        _assert_canonical_ints(value)
        half = RF.from_coefficients((Fraction(1, 2), Fraction(1, 2)))
        _assert_canonical_ints(half + half)
        _assert_canonical_ints(half * 2)


nonzero_fracs = fracs.filter(bool)


def _assert_one_value(x, y):
    """x and y are equal, hash alike and are one element of a set."""
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


class TestCanonicalStorage:
    """Equal values reached by different routes are stored alike."""

    @given(rational_functions(), rational_functions().filter(bool))
    @settings(deadline=None, max_examples=80)
    def test_product_then_quotient(self, a, c):
        _assert_one_value((a * c) / c, a)

    @given(rational_functions(), rational_functions())
    @settings(deadline=None, max_examples=80)
    def test_sum_then_difference(self, a, b):
        _assert_one_value((a + b) - b, a)

    @given(frac_lists, frac_lists.filter(any), nonzero_fracs)
    @settings(deadline=None, max_examples=80)
    def test_scaled_numerator_and_denominator(self, num, den, r):
        scaled = RF([c * r for c in num], [c * r for c in den])
        _assert_one_value(scaled, RF(num, den))

    @given(fracs, nonzero_fracs, rational_functions())
    @settings(deadline=None, max_examples=80)
    def test_constant_hashes_like_its_fraction(self, r, s, a):
        for value in (RF(r), RF([r * s], [s]), (a - a) + r, (a * 0) + RF(r)):
            assert value == r
            assert hash(value) == hash(r)
            assert len({value, r}) == 1

    @given(rational_functions())
    @settings(deadline=None, max_examples=80)
    def test_stored_pair_is_the_integer_canonical_form(self, a):
        num, den = a._num, a._den
        assert all(type(c) is int for c in num + den)
        assert gcd(*num, *den) == 1
        assert den[-1] > 0
        assert num[-1:] != (0,)
        # the public form divides both by den's leading coefficient
        assert a.denominator[-1] == 1


# ---------------------------------------------------------------------------
# arithmetic on canonical pairs, against an independent reduction
# ---------------------------------------------------------------------------


def _unreduced_product(an, ad, bn, bd):
    return RF(poly_mul(an, bn), poly_mul(ad, bd))


def _unreduced_sum(an, ad, bn, bd):
    return RF(poly_add(poly_mul(an, bd), poly_mul(bn, ad)), poly_mul(ad, bd))


@contextlib.contextmanager
def forced(route):
    """Send every sum, product and quotient down one route.

    "general" builds each result with the general constructor from the
    unreduced sum or product of the operands' pairs, computed by the oracle;
    "pairs" leaves the arithmetic on canonical pairs in place.
    """
    if route == "pairs":
        yield
        return
    with mock.patch.object(scalars, "_product", _unreduced_product):
        with mock.patch.object(scalars, "_sum", _unreduced_sum):
            yield


@contextlib.contextmanager
def constructor_calls():
    """The argument tuples of every general-constructor call in the block."""
    calls, original = [], RF.__init__

    def counting(self, *args):
        calls.append(args)
        original(self, *args)

    RF.__init__ = counting
    try:
        yield calls
    finally:
        RF.__init__ = original


def _pair(value):
    return value._num, value._den


def _operand_pair(x):
    """The canonical pair of a RationalFunction, an int or a Fraction."""
    if isinstance(x, RF):
        return _pair(x)
    x = Fraction(x)
    return ((x.numerator,) if x else ()), (x.denominator,)


SHAPES = ("zero", "constant", "polynomial", "quotient")
signed = st.sampled_from([1, -1])


@st.composite
def shaped_values(draw, shapes=SHAPES):
    """A value of one shape: zero, c/d, a polynomial over an integer, or a quotient."""
    shape = draw(st.sampled_from(shapes))
    if shape == "zero":
        return RF(0)
    if shape == "constant":
        return RF(Fraction(draw(coeffs.filter(bool)), draw(st.integers(1, 10**6))))
    den = draw(st.integers(1, 60)) * draw(signed)
    num = draw(int_polys(size=st.integers(min_value=2, max_value=12)))
    if shape == "polynomial":
        return RF(num, [den])
    return RF(num, draw(int_polys(elements=small, size=st.integers(min_value=2, max_value=6))))


@st.composite
def divisible_pairs(draw):
    """(P/d, c/D) or the reverse, where the primitive part of D divides P."""
    divisor = draw(int_polys(elements=small, size=st.integers(min_value=2, max_value=12)))
    cofactor = draw(int_polys(size=st.integers(min_value=1, max_value=14)))
    content = draw(st.integers(1, 12)) * draw(signed)
    poly = RF(poly_mul(cofactor, divisor), [draw(st.integers(1, 40))])
    scale = RF(draw(coeffs.filter(bool)), [content * c for c in divisor])
    return (poly, scale) if draw(st.booleans()) else (scale, poly)


OPERATIONS = (add, sub, mul, truediv)


def _results(a, b, e):
    """Every operation of a and b, with its name; division only by a nonzero b."""
    out = [(op.__name__, op(a, b)) for op in OPERATIONS if op is not truediv or b]
    out.append(("neg", -a))
    if a:
        out.append(("pow", a ** -e))
    return out


def _expected(a, b, e):
    """The oracle's pair for each name that _results gives for a, b and e."""
    (an, ad), (bn, bd) = _operand_pair(a), _operand_pair(b)
    expected = {
        "add": reduce_pair(poly_add(poly_mul(an, bd), poly_mul(bn, ad)), poly_mul(ad, bd)),
        "sub": reduce_pair(poly_add(poly_mul(an, bd), poly_mul([-c for c in bn], ad)), poly_mul(ad, bd)),
        "mul": reduce_pair(poly_mul(an, bn), poly_mul(ad, bd)),
        "neg": reduce_pair([-c for c in an], ad),
    }
    if bn:
        expected["truediv"] = reduce_pair(poly_mul(an, bd), poly_mul(ad, bn))
    if an:
        expected["pow"] = reduce_pair(reduce(poly_mul, [ad] * e), reduce(poly_mul, [an] * e))
    return expected


# (q+1)/(q-1) * (q-1)/(q+2): one cross gcd is q - 1, which divides first;
# the other, of q + 1 and q + 2, is 1 and needs the PRS to tell
ONE_POLYNOMIAL_GCD = (RF([1, 1], [-1, 1]), RF([-1, 1], [2, 1]))
# (q+1)(q+3)/((q-1)(q+2)) * (q-1)(q+5)/((q+1)(q+7)): both cross gcds are
# polynomials, and neither denominator divides the other side's numerator
TWO_POLYNOMIAL_GCDS = (
    RF(poly_mul([1, 1], [3, 1]), poly_mul([-1, 1], [2, 1])),
    RF(poly_mul([-1, 1], [5, 1]), poly_mul([1, 1], [7, 1])),
)


class TestPairArithmetic:
    """Each result, by either route, is the pair of an independent reduction.

    The oracle (``reduce_pair``) reduces the unreduced sum, product or
    quotient of the operands' pairs by a monic Euclid gcd over Q.
    """

    @pytest.mark.parametrize("route", ["general", "pairs"])
    @given(shaped_values(), shaped_values(), st.integers(1, 3))
    @settings(deadline=None, max_examples=120)
    def test_each_route_equals_the_constructor(self, route, a, b, e):
        with forced(route):
            results = _results(a, b, e)
        expected = _expected(a, b, e)
        for name, value in results:
            assert _pair(value) == expected[name], name

    @given(shaped_values(), st.sampled_from([Fraction(-7, 3), Fraction(0), 5, -1]))
    @settings(deadline=None, max_examples=120)
    def test_routes_agree_with_rational_operands(self, a, r):
        for x, y in ((a, r), (r, a)):
            expected = _expected(x, y, 1)
            for op in OPERATIONS:
                if op is not truediv or y:
                    assert _pair(op(x, y)) == expected[op.__name__], op.__name__

    @given(st.one_of(st.tuples(shaped_values(), shaped_values()), divisible_pairs()), st.integers(1, 3))
    @example(ONE_POLYNOMIAL_GCD, 1)
    @example(TWO_POLYNOMIAL_GCDS, 1)
    @settings(deadline=None, max_examples=240)
    def test_no_operator_calls_the_constructor(self, operands, e):
        # every operator on every shape, polynomial cross gcds included;
        # a quotient by the inverse is the product
        a, b = operands
        with constructor_calls() as calls:
            results = _results(a, b, e) + ([("mul", a / (1 / b))] if b else [])
        assert calls == []
        expected = _expected(a, b, e)
        for name, value in results:
            assert _pair(value) == expected[name], name

    @given(shaped_values(("zero", "constant", "polynomial")), shaped_values(("zero", "constant", "polynomial")))
    @settings(deadline=None, max_examples=120)
    def test_integer_denominators_skip_the_constructor(self, a, b):
        def ops(x, y):
            # a quotient by a non-constant polynomial has a polynomial denominator
            return [x + y, x - y, x * y] + ([x / y] if y.is_constant and y else [])

        with constructor_calls() as calls:
            results = ops(a, b)
        assert calls == []
        with forced("general"):
            expected = ops(a, b)
        assert list(map(_pair, results)) == list(map(_pair, expected))

    @given(shaped_values(("constant",)), shaped_values())
    @settings(deadline=None, max_examples=120)
    def test_constant_factors_skip_the_constructor(self, c, a):
        with constructor_calls() as calls:
            results = [c * a, a * c, a / c] + ([c / a] if a else [])
        assert calls == []
        with forced("general"):
            expected = [c * a, a * c, a / c] + ([c / a] if a else [])
        assert list(map(_pair, results)) == list(map(_pair, expected))

    @given(divisible_pairs())
    @settings(deadline=None, max_examples=120)
    def test_divide_first_products_skip_the_constructor(self, pair):
        a, b = pair
        with constructor_calls() as calls:
            product = a * b
        assert calls == []
        with forced("general"):
            assert _pair(product) == _pair(a * b)
        # the same route serves a quotient by the inverse
        inverse = 1 / b
        with constructor_calls() as calls:
            quotient = a / inverse
        assert calls == []
        assert quotient == product

    def test_products_that_need_a_polynomial_gcd(self):
        cases = [
            (ONE_POLYNOMIAL_GCD, ((1, 1), (2, 1)), 1),
            (TWO_POLYNOMIAL_GCDS, ((15, 8, 1), (14, 9, 1)), 2),
        ]
        for (a, b), pair, prs_calls in cases:
            with constructor_calls() as calls:
                with mock.patch.object(scalars, "_pgcd", wraps=scalars._pgcd) as prs:
                    product = a * b
            assert calls == []
            assert prs.call_count == prs_calls
            assert _pair(product) == pair

    def test_zero_and_sign_cases(self):
        x = RF([3, 0, -6], [5])
        cases = [
            (x - x, ((), (1,))),
            (x * 0, ((), (1,))),
            (RF(0) / x, ((), (1,))),
            (x / -3, ((-1, 0, 2), (5,))),
            (-3 / x, ((5,), (-1, 0, 2))),
            (x * Fraction(-5, 3), ((-1, 0, 2), (1,))),
            (x + Fraction(-3, 5), ((0, 0, -6), (5,))),
            (RF([1], [-2, 0, -4]) * RF([2, 0, 4]), ((-1,), (1,))),
            (RF([2], [-1, 1]) ** -2, ((1, -2, 1), (4,))),
            (RF([-2], [1, 1]) ** -1, ((-1, -1), (2,))),
        ]
        for value, pair in cases:
            assert _pair(value) == pair
            assert _pair(RF(value.numerator, value.denominator)) == pair


# ---------------------------------------------------------------------------
# packed exact division
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def forced_division(route):
    """Send every exact division down one path, and count the packed attempts.

    "packed" lowers the cutoff to zero terms, so every division by a divisor
    with at most half zeros is tried packed first; "school" raises it past
    any size, so none is.
    """
    with mock.patch.object(scalars, "_PACK_CUTOFF", 0 if route == "packed" else 10**9):
        with mock.patch.object(scalars, "_pexquo_packed", wraps=scalars._pexquo_packed) as spy:
            yield spy


def _ints(cs) -> tuple:
    """The oracle's integral Fraction coefficients as the kernel's ints."""
    return tuple(int(c) for c in cs)


dense_divisors = int_polys(
    elements=st.one_of(small, huge).filter(bool), size=st.integers(min_value=1, max_value=2 * _PACK_CUTOFF)
)


@st.composite
def division_pairs(draw):
    """(a, b, quotient or None): a = b c, or b c plus a remainder of lower degree."""
    b = draw(dense_divisors)
    c = draw(int_polys(size=st.integers(min_value=1, max_value=3 * _PACK_CUTOFF)))
    a = _ints(poly_mul(b, c))
    if len(b) > 1 and draw(st.booleans()):
        r = draw(int_polys(size=st.integers(min_value=1, max_value=len(b) - 1)))
        return _ints(poly_add(a, r)), b, None
    return a, b, c


class TestPackedExactDivision:
    @pytest.mark.parametrize("route", ["school", "packed"])
    @given(division_pairs())
    @settings(deadline=None, max_examples=150)
    def test_each_path_gives_the_quotient(self, route, case):
        a, b, quotient = case
        with forced_division(route) as packed:
            assert _pexquo(a, b) == quotient
        if route == "school":
            assert packed.call_count == 0
        elif quotient is not None:
            # a divisible pair never fails the constant-term test first
            assert packed.call_count == 1

    @given(int_polys(), dense_divisors)
    @settings(deadline=None, max_examples=150)
    def test_paths_agree_on_random_pairs(self, a, b):
        with forced_division("school"):
            school = _pexquo(a, b)
        with forced_division("packed"):
            assert _pexquo(a, b) == school
        if len(a) >= len(b):
            packed = _pexquo_packed(a, b)
            assert packed is _UNDECIDED or packed == school

    def test_images_divide_although_the_polynomials_do_not(self):
        # a = b0 q^9 and b = 2 b0: a(X) / b(X) = X^9 / 2 is an integer for
        # X = 2^(8 width), yet a / b = q^9 / 2 is not over Z
        b0 = tuple(range(1, _PACK_CUTOFF + 3))
        a = (0,) * 9 + b0
        b = tuple(2 * c for c in b0)
        width = max(a + b).bit_length() // 8 + 1
        assert divmod(_pack(a, width), _pack(b, width))[1] == 0
        assert _pexquo_packed(a, b) is _UNDECIDED
        assert _pexquo(a, b) is None
        # over Q the quotient exists, so the canonical form keeps the 2
        assert _pair(RF(a, b)) == ((0,) * 9 + (1,), (2,))

    def test_a_quotient_that_overflows_its_slot_falls_back(self):
        # (1 - q^10)^9 / (1 - q)^9 = (1 + q + ... + q^9)^9: operands of at
        # most 7 bits, a quotient coefficient of 27 bits
        a = _ppow((1,) + (0,) * 9 + (-1,), 9)
        b = _ppow((1, -1), 9)
        quotient = _ppow((1,) * 10, 9)
        top = max(max(map(abs, a)), max(map(abs, b)))
        assert max(quotient).bit_length() > top.bit_length() + 8
        assert _pexquo_packed(a, b) is _UNDECIDED
        with forced_division("packed") as packed:
            assert _pexquo(a, b) == quotient
        assert packed.call_count == 1

    def test_only_long_divisors_and_quotients_are_packed(self):
        # the packed route needs at least 2 _PACK_CUTOFF terms in both the
        # divisor and the quotient; one term fewer in either takes the loop
        def pair(nb, nq):
            b = tuple(range(1, nb + 1))
            return _pmul(b, tuple(range(2, nq + 2))), b

        edge = 2 * _PACK_CUTOFF
        for nb, nq, packs in ((edge, edge, True), (edge - 1, 5 * edge, False), (5 * edge, edge - 1, False)):
            a, b = pair(nb, nq)
            with mock.patch.object(scalars, "_pexquo_packed", wraps=scalars._pexquo_packed) as packed:
                assert _pmul(_pexquo(a, b), b) == a
            assert packed.call_count == packs

    def test_a_packed_quotient_past_the_last_slot_falls_back(self):
        # one-byte slots; the integer quotient of the images is about 0.87 X^10,
        # which with the slot offsets needs an eleventh slot
        a = (-87, 75, 9, 22, 46, -29, -121, 64, -5, 30, -39, 122, -2, -32, 111, -28, 10, -122, 116)
        b = (125, -72, -73, 119, -86, 111, 59, -127, -35, 1)
        quo, rem = divmod(_pack(a, 1), _pack(b, 1))
        assert rem == 0
        with pytest.raises(OverflowError):
            _unpack(quo, len(a) - len(b) + 1, 1)
        assert _pexquo_packed(a, b) is _UNDECIDED
        with forced_division("school"):
            assert _pexquo(a, b) is None
        assert _pexquo(a, b) is None

    def test_packed_gaussian_binomial_quotient(self):
        # [24]! / ([12]! [12]!) as the canonicaliser meets it
        def q_int(n):
            return (1,) * n

        fact = [(1,)]
        for n in range(1, 25):
            fact.append(_pmul(fact[-1], q_int(n)))
        a, b = fact[24], _pmul(fact[12], fact[12])
        quotient = _pexquo_packed(a, b)
        assert quotient is not _UNDECIDED and _pmul(quotient, b) == a
        with forced_division("school"):
            assert _pexquo(a, b) == quotient


# ---------------------------------------------------------------------------
# weighted Cauchy sums in one accumulator
# ---------------------------------------------------------------------------


@st.composite
def strided_polys(draw):
    """Sparse integer polynomial: nonzero coefficients only at multiples of a stride 2..14."""
    stride = draw(st.integers(min_value=2, max_value=14))
    body = draw(st.lists(coeffs, min_size=0, max_size=2 * _PACK_CUTOFF))
    lead = draw(coeffs.filter(bool))
    cs = [0] * (stride * len(body) + 1)
    cs[::stride] = body + [lead]
    return tuple(cs)


# dense enough to pack: every coefficient nonzero, at least _PACK_CUTOFF of them
dense_polys = int_polys(
    elements=coeffs.filter(bool), size=st.integers(min_value=_PACK_CUTOFF, max_value=3 * _PACK_CUTOFF)
)
factors = st.one_of(strided_polys(), dense_polys, int_polys(), st.just(()))
shifted_terms = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4 * _PACK_CUTOFF), factors, factors), min_size=1, max_size=5
)


def oracle_shifted_sum(terms):
    """sum of q^d a b by oracles.poly_mul and poly_add, as the kernel's ints."""
    total = []
    for d, a, b in terms:
        total = poly_add(total, poly_mul(_monomial(d), poly_mul(a, b)))
    return _ints(total)


def term_by_term(terms):
    """The canonical pair of sum of q^d a b, added term by term as RationalFunctions."""
    total = RF(0)
    for d, a, b in terms:
        total = total + RF.generator() ** d * RF.from_coefficients(a) * RF.from_coefficients(b)
    return total._num, total._den


class TestAccumulator:
    """``_paccumulate`` against the oracle and the term-by-term RationalFunction loop."""

    @given(shifted_terms)
    @settings(deadline=None, max_examples=150)
    def test_equals_the_oracle_and_the_term_by_term_loop(self, terms):
        out = scalars._paccumulate(terms)
        assert out == oracle_shifted_sum(terms)
        assert (out, (1,)) == term_by_term(terms)
        assert all(type(c) is int for c in out)

    @given(st.lists(st.tuples(st.integers(0, 1), dense_polys, dense_polys), min_size=1, max_size=3))
    @settings(deadline=None, max_examples=60)
    def test_dense_pairs_take_the_packed_product(self, terms):
        with mock.patch.object(scalars, "_pmul_packed", wraps=scalars._pmul_packed) as packed:
            out = scalars._paccumulate(terms)
        assert packed.call_count == len(terms)
        assert out == oracle_shifted_sum(terms) == term_by_term(terms)[0]

    @given(st.lists(st.tuples(st.integers(0, 1), strided_polys(), strided_polys()), min_size=1, max_size=3))
    @settings(deadline=None, max_examples=60)
    def test_strided_pairs_pack_only_where_pmul_would(self, terms):
        # a stride of 3 or more leaves too many zeros to pack; a stride of 2
        # packs when the zeros are at most half of the slots, as in _pmul
        with mock.patch.object(scalars, "_pmul_packed", wraps=scalars._pmul_packed) as packed:
            out = scalars._paccumulate(terms)
        assert packed.call_count == sum(_dense(a) and _dense(b) for _, a, b in terms)
        assert out == oracle_shifted_sum(terms) == term_by_term(terms)[0]

    @pytest.mark.parametrize("d", [0, 1])
    def test_zero_operands(self, d):
        a = (3, 0, -1)
        assert scalars._paccumulate([(d, (), a)]) == ()
        assert scalars._paccumulate([(d, a, ())]) == ()
        assert scalars._paccumulate([(d, (), ()), (d, a, (2,))]) == (0,) * d + (6, 0, -2)
        # terms that cancel leave the zero polynomial, trimmed
        assert scalars._paccumulate([(d, a, (1,)), (d, a, (-1,))]) == ()

    @pytest.mark.parametrize("d", [0, 1])
    def test_offsets(self, d):
        a = tuple(range(1, _PACK_CUTOFF + 1))
        terms = [(d, a, a), (d + 1, (1, 0, 1), (0, 2))]
        assert scalars._paccumulate(terms) == oracle_shifted_sum(terms) == term_by_term(terms)[0]
        assert scalars._paccumulate(terms)[:d] == (0,) * d


def triangle_term_by_term(triangle, binomial, r, s, j):
    """The weighted Cauchy sum of ``PascalTriangle.weighted_cauchy``, one term at a time."""
    total = triangle.field.zero
    for k in range(max(0, j - s), min(r, j) + 1):
        total = total + triangle.power((r - k) * (j - k)) * binomial(r, k) * binomial(s, s - j + k)
    return total


WEIGHTED_CAUCHY_INDICES = [(r, s, j) for r in range(5) for s in range(5) for j in range(r + s + 1)]


def sums_that_read(predicate):
    """How many sums of WEIGHTED_CAUCHY_INDICES have a term (r, s, j, k) that satisfies predicate."""
    return sum(
        any(predicate(r, s, j, k) for k in range(max(0, j - s), min(r, j) + 1))
        for r, s, j in WEIGHTED_CAUCHY_INDICES
    )


class TestWeightedCauchyRoute:
    """``PascalTriangle.weighted_cauchy`` uses the accumulator only at a unit-monomial base over Q(q)."""

    @staticmethod
    def run(triangle, binomial):
        """Every sum of WEIGHTED_CAUCHY_INDICES, and how many went through the accumulator."""
        with mock.patch.object(scalars, "_paccumulate", wraps=scalars._paccumulate) as spy:
            sums = [triangle.weighted_cauchy(binomial, *index) for index in WEIGHTED_CAUCHY_INDICES]
        expected = [triangle_term_by_term(triangle, binomial, *index) for index in WEIGHTED_CAUCHY_INDICES]
        for value, want in zip(sums, expected):
            assert type(value) is type(want)
            assert value == want
            if isinstance(want, RF):
                assert (value._num, value._den) == (want._num, want._den)
        return spy.call_count

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_unit_monomial_bases_take_the_accumulator(self, m):
        triangle = PascalTriangle(RF.generator() ** m, RATIONAL_FUNCTION_FIELD)
        assert self.run(triangle, triangle.binomial) == len(WEIGHTED_CAUCHY_INDICES)

    @pytest.mark.parametrize(
        "base",
        [Fraction(2), Fraction(-1, 3)],
        ids=["2", "-1/3"],
    )
    def test_rational_bases_take_the_loop(self, base):
        triangle = PascalTriangle(base, RATIONAL_FIELD)
        assert self.run(triangle, triangle.binomial) == 0

    @pytest.mark.parametrize(
        "base, leaves_the_route",
        [
            # b^0 = 1 = q^0, so a sum stays on the route when all its weights are b^0
            (RF.from_coefficients((1, 1)), lambda r, s, j, k: (r - k) * (j - k) > 0),
            (2 * RF.generator(), lambda r, s, j, k: (r - k) * (j - k) > 0),
            # the even powers of -q are unit monomials
            (-RF.generator(), lambda r, s, j, k: (r - k) * (j - k) % 2),
            # and at 1/(1+q) only B(n, 0) = B(n, n) = 1 are polynomials
            (RF((1,), (1, 1)), lambda r, s, j, k: (r - k) * (j - k) or 0 < k < r or 0 < s - j + k < s),
        ],
        ids=["1+q", "2q", "-q", "1/(1+q)"],
    )
    def test_other_symbolic_bases_take_the_loop(self, base, leaves_the_route):
        triangle = PascalTriangle(base, RATIONAL_FUNCTION_FIELD)
        reads = sums_that_read(leaves_the_route)
        assert 0 < reads < len(WEIGHTED_CAUCHY_INDICES)
        assert self.run(triangle, triangle.binomial) == len(WEIGHTED_CAUCHY_INDICES) - reads

    def test_a_weight_that_is_not_a_unit_monomial_takes_the_loop(self):
        triangle = PascalTriangle(RF.generator(), RATIONAL_FUNCTION_FIELD)
        triangle.binomial(8, 0)
        triangle._powers[2] = triangle.power(2) + 1
        # every sum that reads the weight q^2 falls back; the others stay on the route
        reads = sums_that_read(lambda r, s, j, k: (r - k) * (j - k) == 2)
        assert 0 < reads < len(WEIGHTED_CAUCHY_INDICES)
        assert self.run(triangle, triangle.binomial) == len(WEIGHTED_CAUCHY_INDICES) - reads

    def test_an_operand_with_a_proper_denominator_takes_the_loop(self):
        triangle = PascalTriangle(RF.generator(), RATIONAL_FUNCTION_FIELD)
        over = RF((1,), (2, 1))

        def binomial(n, k):
            # B(2, 1) = 1 + q over 2 + q: a factor that is not a polynomial
            value = triangle.binomial(n, k)
            return value * over if (n, k) == (2, 1) else value

        assert binomial(2, 1)._den == (2, 1)
        reads = sums_that_read(lambda r, s, j, k: (2, 1) in ((r, k), (s, s - j + k)))
        assert 0 < reads < len(WEIGHTED_CAUCHY_INDICES)
        assert self.run(triangle, binomial) == len(WEIGHTED_CAUCHY_INDICES) - reads


# ---------------------------------------------------------------------------
# kernel faults against the quick suite
# ---------------------------------------------------------------------------


def _lead_bumped(pmul):
    def faulty(a, b):
        out = pmul(a, b)
        return out[:-1] + (out[-1] + 1,) if out else out

    return faulty


def _tail_off_by_one(padd):
    def faulty(a, b):
        # the longer operand's tail is kept from len(b) + 1, not len(b)
        if len(a) < len(b):
            a, b = b, a
        return scalars._ptrim(tuple(map(add, a, b)) + a[len(b) + 1 :])

    return faulty


def _width_short(pmul_packed):
    def faulty(a, b):
        # _pmul_packed with a slot one byte narrower than its bound needs
        bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
        width = bound.bit_length() // 8
        packed = scalars._pack(a, width) * scalars._pack(b, width)
        return scalars._unpack(packed, len(a) + len(b) - 1, width)

    return faulty


def _last_term_dropped(paccumulate):
    def faulty(terms):
        # the weighted Cauchy sum without its largest k
        return paccumulate(terms[:-1]) if len(terms) > 1 else ()

    return faulty


# fault -> (kernel name in scalars, the faulty version made from the original)
KERNEL_FAULTS = {
    "pgcd-is-one": ("_pgcd", lambda original: lambda a, b: (1,)),
    "gcd-is-one": ("gcd", lambda original: lambda *args: 1),
    "pmul-bumps-lead": ("_pmul", _lead_bumped),
    "padd-off-by-one": ("_padd", _tail_off_by_one),
    "pack-width-short": ("_pmul_packed", _width_short),
    "accumulator-drops-last-term": ("_paccumulate", _last_term_dropped),
}

# faults that no must-pass entry of the suite sees, with the reason
BLIND_SPOTS = {
    # _pgcd is reached only where an exact division fails (21 times in the
    # quick suite, 36 in the full one), and each of those gcds is 1, so
    # (1,) is the right answer everywhere the suite asks;
    # TestPairArithmetic::test_products_that_need_a_polynomial_gcd sees it
    "pgcd-is-one": "every polynomial gcd the suite asks for is 1",
    # no product of the quick suite has two operands dense enough to pack
    # (the full one makes 434); TestPackedProduct and test_matmul.py's
    # TestBothPaths::test_coefficients_at_the_width_bound see it
    "pack-width-short": "the quick suite makes no packed product",
}


@pytest.mark.parametrize("fault", list(KERNEL_FAULTS))
def test_the_quick_suite_sees_each_kernel_fault(fault):
    attr, make_faulty = KERNEL_FAULTS[fault]
    with mock.patch.object(scalars, attr, make_faulty(getattr(scalars, attr))):
        try:
            result = run_suite("quick")
        except Exception:
            caught = True
        else:
            caught = any(e.expected == MUST_PASS and not e.as_expected for e in result.entries)
    assert caught == (fault not in BLIND_SPOTS), BLIND_SPOTS.get(fault)
