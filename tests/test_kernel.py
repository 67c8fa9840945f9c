"""Polynomial kernel of the scalar layer: packed products and canonical form.

The packed (Kronecker) product is checked against the schoolbook oracle in
``oracles.py``, the fraction-free canonicalisation against ``sympy.cancel``.
"""

from fractions import Fraction
from math import gcd
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psipascal import scalars
from psipascal.scalars import (
    _PACK_CUTOFF,
    RationalFunction,
    _dense,
    _pmul,
    _pmul_packed,
    _ppow,
)

from oracles import poly_mul

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
