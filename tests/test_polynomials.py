"""Polynomials, the lowering derivative, the shift, and binomial powers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psipascal import polynomials
from psipascal import (
    Polynomial,
    check_odd_cancellation,
    check_sheffer_basic,
    classical,
    fibonomial,
    psi_derivative,
    psi_plus_power,
    psi_shift,
    q,
    q_numeric,
    q_symbolic,
)

small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def all_sequences():
    return [classical(), q_symbolic(), q_numeric(2), fibonomial()]


class TestPolynomial:
    def test_trailing_zeros_are_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert Polynomial([0, 0]).is_zero

    def test_degree(self):
        assert Polynomial([1, 2, 3]).degree == 2
        assert Polynomial([]).degree == -1

    def test_arithmetic(self):
        p = Polynomial([1, 1])
        assert (p + p).coefficients == (2, 2)

    def test_evaluation(self):
        p = Polynomial([1, 0, 1])
        assert p(Fraction(2)) == 5
        assert p(q) == 1 + q**2

    def test_text_form(self):
        assert str(Polynomial([1, 2, 1])) == "1 + 2*x + 1*x^2"
        assert str(Polynomial([0, 0, Fraction(1, 2)])) == "1/2*x^2"
        assert str(Polynomial([])) == "0"
        assert str(Polynomial([1 + q])) == "(1 + q)/(1)"

    def test_monomial(self):
        assert Polynomial.monomial(3).coefficients == (0, 0, 0, 1)


class TestDerivative:
    def test_classical_cube(self):
        cube = Polynomial.monomial(3)
        assert psi_derivative(classical(), cube) == Polynomial([0, 0, 3])

    def test_fibonomial_cube(self):
        cube = Polynomial.monomial(3)
        assert psi_derivative(fibonomial(), cube) == Polynomial([0, 0, 2])

    def test_constants_vanish(self):
        for seq in all_sequences():
            assert psi_derivative(seq, Polynomial([7])).is_zero

    def test_degree_drops_by_one(self):
        rng = random.Random(7)
        for seq in all_sequences():
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(6)] + [Fraction(1)]
            p = Polynomial(coeffs)
            assert psi_derivative(seq, p).degree == p.degree - 1

    @given(st.lists(small_fracs, max_size=6), st.lists(small_fracs, max_size=6))
    @settings(deadline=None, max_examples=30)
    def test_linearity(self, a, b):
        seq = fibonomial()
        pa, pb = Polynomial(a), Polynomial(b)
        assert psi_derivative(seq, pa + pb) == psi_derivative(seq, pa) + psi_derivative(seq, pb)


class TestShift:
    def test_classical_is_the_taylor_shift(self):
        shifted = psi_shift(classical(), Polynomial.monomial(2), Fraction(3))
        assert shifted == Polynomial([9, 6, 1])

    def test_classical_shift_evaluates_to_translation(self):
        rng = random.Random(11)
        seq = classical()
        for _ in range(20):
            p = Polynomial([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))])
            y = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert psi_shift(seq, p, y)(x0) == p(x0 + y)

    def test_fibonomial_square(self):
        y = Fraction(1)
        shifted = psi_shift(fibonomial(), Polynomial.monomial(2), y)
        # F_2 = 1, so the middle coefficient is y rather than 2y
        assert shifted == Polynomial([1, 1, 1])

    def test_zero_shift_is_identity(self):
        p = Polynomial([3, 0, 2, 5])
        for seq in all_sequences():
            assert psi_shift(seq, p, seq.field.zero) == p

    def test_monomial_coefficients_are_binomials(self):
        for seq in all_sequences():
            y = Fraction(2, 3)
            for n in range(9):
                shifted = psi_shift(seq, Polynomial.monomial(n, seq.field), y)
                for k in range(n + 1):
                    assert shifted.coefficient(k) == seq.binomial(n, k) * y ** (n - k)


class TestPlusPower:
    def test_fibonomial_expansion_at_ones(self):
        # 1 + F_4 + F_4 F_3 + F_4 + 1 with F_3 = 2, F_4 = 3
        assert psi_plus_power(fibonomial(), 1, 1, 4) == 14

    def test_fibonomial_alternating_square(self):
        assert psi_plus_power(fibonomial(), 1, -1, 2) == 1

    def test_q_alternating_square(self):
        assert psi_plus_power(q_symbolic(), 1, -1, 2) == 1 - q

    def test_classical_matches_plain_power(self):
        rng = random.Random(3)
        seq = classical()
        for _ in range(25):
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            y = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            n = rng.randint(0, 9)
            assert psi_plus_power(seq, x, y, n) == (x + y) ** n

    def test_symmetry(self):
        rng = random.Random(5)
        for seq in all_sequences():
            for _ in range(10):
                x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                y = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                n = rng.randint(0, 8)
                assert psi_plus_power(seq, x, y, n) == psi_plus_power(seq, y, x, n)

    def test_odd_powers_cancel(self):
        rng = random.Random(9)
        for seq in all_sequences():
            for _ in range(5):
                a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for k in range(9):
                    assert psi_plus_power(seq, a, -a, 2 * k + 1) == 0

    def test_classical_cancels_at_every_power(self):
        seq = classical()
        for m in range(1, 12):
            assert psi_plus_power(seq, Fraction(5, 3), Fraction(-5, 3), m) == 0

    def test_shift_power_consistency(self):
        rng = random.Random(13)
        for seq in all_sequences():
            x = Fraction(rng.randint(1, 5))
            y = Fraction(rng.randint(-5, -1))
            for n in range(10):
                shifted = psi_shift(seq, Polynomial.monomial(n, seq.field), y)
                assert shifted(x) == psi_plus_power(seq, x, y, n)


class TestShefferBasic:
    def test_classical_example(self):
        report = check_sheffer_basic(classical(), 3, Fraction(2), Fraction(1))
        assert report.passed
        assert psi_plus_power(classical(), 2, 1, 3) == 27

    def test_fibonomial_example(self):
        assert check_sheffer_basic(fibonomial(), 4, Fraction(1), Fraction(1)).passed

    def test_degree_zero(self):
        for seq in all_sequences():
            assert check_sheffer_basic(seq, 0, seq.field.one, seq.field.one).passed

    def test_symbolic_arguments(self):
        assert check_sheffer_basic(q_symbolic(), 5, q, 1 - q).passed

    @staticmethod
    def _spy_on_shift(monkeypatch):
        calls, real_shift = [], polynomials.psi_shift

        def spy(*args):
            calls.append(args)
            return real_shift(*args)

        monkeypatch.setattr(polynomials, "psi_shift", spy)
        return calls

    def test_the_shift_route_runs_once_route_two_agrees(self, monkeypatch):
        calls = self._spy_on_shift(monkeypatch)
        assert check_sheffer_basic(classical(), 4, Fraction(2), Fraction(1)).passed
        assert len(calls) == 1

    def test_a_route_two_failure_never_runs_the_shift_route(self, monkeypatch):
        calls = self._spy_on_shift(monkeypatch)
        real_power = polynomials.psi_plus_power
        monkeypatch.setattr(polynomials, "psi_plus_power", lambda *args: real_power(*args) + 1)
        report = check_sheffer_basic(classical(), 4, Fraction(2), Fraction(1))
        assert not report.passed
        assert report.counterexample.location == (4,)
        assert report.counterexample.detail is None
        assert (report.counterexample.lhs, report.counterexample.rhs) == ("82", "81")
        assert calls == []


class TestOddCancellationReport:
    def test_passes_everywhere(self):
        for seq in all_sequences():
            report = check_odd_cancellation(seq, Fraction(3, 2), 8)
            assert report.passed
            assert report.identity == "odd-cancel"

    def test_params_echo(self):
        report = check_odd_cancellation(fibonomial(), Fraction(2), 3)
        assert report.params == {"sequence": "fibonomial", "a": "2", "max_k": "3"}
