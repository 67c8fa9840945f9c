"""Admissible sequences: integers, factorials, binomials, normality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psipascal import (
    AdmissibilityError,
    FieldMismatchError,
    RationalFunction,
    classical,
    custom,
    fibonomial,
    from_selector,
    operator_from_selector,
    q,
    q_numeric,
    psi_plus_power,
    q_symbolic,
    run_identity,
)

from oracles import (
    fib,
    fibonomial as fibonomial_oracle,
    fibonomial_rule,
    gaussian_binomial,
    gaussian_quotient,
    poly_eval,
    poly_mul,
    q_integer,
)

RF = RationalFunction

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
# a Q(q) point that is never zero or a pole: (a + b q)/(d + q) with d >= 1
points = st.builds(lambda a, b, d: (a + b * q) / (d + q), fractions, fractions.filter(bool), st.integers(1, 5))
scalars = st.one_of(fractions, points)


class TestIntegers:
    def test_classical(self):
        assert classical().integer(5) == 5

    def test_q_symbolic_reduces_the_ratio(self):
        # oracle route: (1 - q^3)/(1 - q)
        expected = RF.from_coefficients((1, 0, 0, -1)) / RF.from_coefficients((1, -1))
        assert q_symbolic().integer(3) == expected
        assert q_symbolic().integer(3).numerator == (1, 1, 1)

    def test_fibonomial(self):
        seq = fibonomial()
        for n in range(1, 20):
            assert seq.integer(n) == fib(n)
        assert seq.integer(6) == 8

    def test_q_numeric_matches_geometric_sum(self):
        seq = q_numeric(Fraction(3, 2))
        for n in range(1, 10):
            assert seq.integer(n) == q_integer(n, Fraction(3, 2))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            classical().integer(0)


class TestFactorials:
    def test_classical(self):
        assert classical().factorial(4) == 24
        assert classical().factorial(0) == 1

    def test_fibonomial(self):
        assert fibonomial().factorial(4) == 6

    def test_q_symbolic_expansion(self):
        # oracle: (1 + q)(1 + q + q^2) expanded by naive multiplication
        expected = tuple(poly_mul([1, 1], [1, 1, 1]))
        value = q_symbolic().factorial(3)
        assert value.numerator == expected == (1, 2, 2, 1)

    def test_recurrence(self):
        seq = fibonomial()
        for n in range(1, 25):
            assert seq.factorial(n) == seq.factorial(n - 1) * seq.integer(n)


class TestBinomials:
    def test_fibonomial_against_factorial_ratio(self):
        seq = fibonomial()
        assert seq.binomial(4, 2) == 6 == fibonomial_oracle(4, 2)
        assert seq.binomial(5, 2) == 15 == fibonomial_oracle(5, 2)
        for n in range(15):
            for k in range(n + 1):
                assert seq.binomial(n, k) == fibonomial_oracle(n, k)

    def test_q_symbolic_against_triangle_oracle(self):
        seq = q_symbolic()
        assert seq.binomial(4, 2).numerator == (1, 1, 2, 1, 1)
        for n in range(14):
            for k in range(n + 1):
                assert seq.binomial(n, k).numerator == tuple(gaussian_binomial(n, k))

    def test_edges_and_symmetry(self):
        for seq in (classical(), q_symbolic(), fibonomial(), q_numeric(2)):
            assert seq.binomial(7, 0) == 1
            assert seq.binomial(7, 7) == 1
            assert seq.binomial(7, -1) == 0
            assert seq.binomial(7, 8) == 0
            for n in range(9):
                for k in range(n + 1):
                    assert seq.binomial(n, k) == seq.binomial(n, n - k)

    @pytest.mark.parametrize("selector", ["classical", "q=2", "fibonomial"])
    def test_factorial_product_identity(self, selector):
        seq = from_selector(selector)
        for n in range(33):
            for k in range(n + 1):
                assert seq.binomial(n, k) * seq.factorial(k) * seq.factorial(n - k) == seq.factorial(n)

    def test_factorial_product_identity_symbolic(self):
        seq = q_symbolic()
        for n in range(17):
            for k in range(n + 1):
                assert seq.binomial(n, k) * seq.factorial(k) * seq.factorial(n - k) == seq.factorial(n)

    def test_trinomial_revision(self):
        # binom(i,k) binom(k,j) = binom(i,j) binom(i-j, k-j)
        cases = [(from_selector(s), bound) for s, bound in
                 [("classical", 16), ("fibonomial", 16), ("q=2", 16), ("q", 16)]]
        for seq, bound in cases:
            for i in range(bound + 1):
                for k in range(i + 1):
                    for j in range(k + 1):
                        lhs = seq.binomial(i, k) * seq.binomial(k, j)
                        rhs = seq.binomial(i, j) * seq.binomial(i - j, k - j)
                        assert lhs == rhs

    def test_fibonomial_integrality(self):
        seq = fibonomial()
        for n in range(33):
            for k in range(n + 1):
                assert seq.binomial(n, k).denominator == 1

    def test_q_binomials_are_polynomials(self):
        seq = q_symbolic()
        for n in range(17):
            for k in range(n + 1):
                assert seq.binomial(n, k).denominator == (1,)


def query_order(order, bound):
    """Every (n, k) with n <= bound, in the given order of asking."""
    pairs = [(n, k) for n in range(bound + 1) for k in range(n + 1)]
    if order == "descending":
        pairs.reverse()
    elif order == "shuffled":
        random.Random(13).shuffle(pairs)
    return pairs


ORDERS = ("ascending", "descending", "shuffled")


class TestBinomialRoutes:
    """The ratio-rule memo against a factorial quotient and a division-free rule.

    The memo walks a diagonal down to whichever entry is cached, so each
    route is compared in three orders of asking, each on a fresh sequence.
    """

    @pytest.mark.parametrize("order", ORDERS)
    def test_gaussian(self, order):
        seq = q_symbolic()
        for n, k in query_order(order, 13):
            value = seq.binomial(n, k)
            assert value.denominator == (1,)
            assert list(value.numerator) == gaussian_quotient(n, k) == gaussian_binomial(n, k)

    @pytest.mark.parametrize("order", ORDERS)
    def test_fibonomial(self, order):
        seq = fibonomial()
        for n, k in query_order(order, 13):
            assert seq.binomial(n, k) == fibonomial_oracle(n, k) == fibonomial_rule(n, k)

    @pytest.mark.parametrize("r", [Fraction(2), Fraction(-1, 3)])
    def test_numeric_q_is_the_gaussian_at_r(self, r):
        seq = q_numeric(r)
        for n, k in query_order("shuffled", 13):
            assert seq.binomial(n, k) == poly_eval(gaussian_binomial(n, k), r)

    @pytest.mark.parametrize("n, k", [(4, 2), (4, 4), (4, 0), (7, 3), (9, 1)])
    def test_a_vanishing_integer_is_reported_at_the_smallest_n(self, n, k):
        # the ratio rule reads binomial(4, 2) from the integers 3, 4, 1, 2;
        # they are checked in ascending order first, as factorial(4) checks them
        with pytest.raises(AdmissibilityError, match="integer at n = 2 is zero"):
            q_numeric(-1).binomial(n, k)
        with pytest.raises(AdmissibilityError, match="only up to n = 2"):
            custom([1, 2]).binomial(n + 2, k)


def plain_binomial_sum(binomial, n, a, b):
    total = Fraction(0)
    for k in range(n + 1):
        total = total + binomial(n, k) * a[k] * b[n - k]
    return total


def scalar_lists(n):
    return st.lists(scalars, min_size=n + 1, max_size=n + 1)


class TestBinomialSum:
    @given(st.integers(0, 10), st.data())
    @settings(deadline=None, max_examples=40)
    def test_fibonomial_against_a_plain_loop(self, n, data):
        a, b = data.draw(scalar_lists(n)), data.draw(scalar_lists(n))
        expected = plain_binomial_sum(fibonomial_oracle, n, a, b)
        assert fibonomial().binomial_sum(n, a, b) == expected

    @given(st.integers(0, 7), st.data())
    @settings(deadline=None, max_examples=40)
    def test_gaussian_against_a_plain_loop(self, n, data):
        a, b = data.draw(scalar_lists(n)), data.draw(scalar_lists(n))
        gaussian = lambda n, k: RF.from_coefficients(gaussian_binomial(n, k))
        assert q_symbolic().binomial_sum(n, a, b) == plain_binomial_sum(gaussian, n, a, b)

    @given(points, points)
    @settings(deadline=None, max_examples=20)
    def test_powers_of_rational_function_points(self, x, y):
        # a rational sequence widens to Q(q) at a Q(q) point
        seq = fibonomial()
        xs, ys = [x ** k for k in range(7)], [y ** k for k in range(7)]
        for n in range(7):
            value = seq.binomial_sum(n, xs, ys)
            assert value == plain_binomial_sum(fibonomial_oracle, n, xs, ys)
            assert value == psi_plus_power(seq, x, y, n)

    def test_only_the_first_n_plus_one_entries_are_read(self):
        assert classical().binomial_sum(2, [1, 2, 3, 99], [1, 1, 1, 99]) == 1 + 2 * 2 + 3
        assert classical().binomial_sum(0, [5], [7]) == 35


class TestNormality:
    def test_classical_is_normal(self):
        assert classical().is_normal_up_to(20).is_normal

    def test_fibonomial_fails_at_two(self):
        result = fibonomial().is_normal_up_to(20)
        assert result == (False, 2, 1)

    def test_q_symbolic_fails_at_two(self):
        result = q_symbolic().is_normal_up_to(20)
        assert not result.is_normal
        assert result.first_failure == 2
        assert result.value == 1 - q

    def test_q_two_fails_at_two(self):
        result = q_numeric(2).is_normal_up_to(20)
        assert result == (False, 2, -1)

    def test_bumped_binomial_memo_fails_at_its_row(self):
        # a corrupted memo entry must surface at the first row that reads it;
        # the key (6, 1) serves both k = 1 and k = 5
        seq = classical()
        seq.binomial(4, 2)
        seq._binoms[(4, 2)] = seq._binoms[(4, 2)] + 1
        assert seq.is_normal_up_to(20) == (False, 4, 1)
        seq = classical()
        seq.binomial(6, 1)
        seq._binoms[(6, 1)] = seq._binoms[(6, 1)] + Fraction(1, 3)
        assert seq.is_normal_up_to(20) == (False, 6, Fraction(-2, 3))
        report = run_identity("normality", {"sequence": seq, "n": 10})
        assert str(report.counterexample) == "at (6): lhs=-2/3 rhs=0"


class TestCustomAndSelectors:
    def test_zero_entry_is_rejected_with_its_index(self):
        with pytest.raises(AdmissibilityError) as err:
            custom([1, 1, 0, 3])
        assert "entry 3" in str(err.value)

    def test_past_the_end(self):
        seq = custom([1, 2])
        with pytest.raises(AdmissibilityError):
            seq.integer(3)

    def test_selector_round_trip(self):
        for selector in ["classical", "q", "q=2", "q=-1/2", "fibonomial", "custom:1,1,2,3"]:
            seq = from_selector(selector)
            assert seq.selector == selector
            assert from_selector(seq.selector).selector == selector

    def test_symbolic_custom(self):
        seq = from_selector("custom:1,(1 + q)/(1)")
        assert seq.field.symbolic
        assert seq.integer(2) == 1 + q

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            from_selector("fermat")

    def test_root_of_unity_fails_loudly(self):
        seq = q_numeric(-1)
        assert seq.integer(1) == 1
        with pytest.raises(AdmissibilityError) as err:
            seq.integer(2)
        assert "n = 2" in str(err.value)

    def test_q_zero_is_admissible(self):
        seq = from_selector("q=0")
        assert [seq.integer(n) for n in range(1, 6)] == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("q0", [0.1, "1/2"])
    def test_q_numeric_refuses_what_the_rational_field_refuses(self, q0):
        # a float would otherwise run at its binary value, 0.1 at
        # 3602879701896397/36028797018963968
        with pytest.raises(FieldMismatchError):
            q_numeric(q0)

    def test_integral_q_numeric_is_named_by_its_int(self):
        assert q_numeric(Fraction(4, 2)).selector == "q=2"

    def test_q_one_matches_classical(self):
        seq = q_numeric(1)
        ref = classical()
        for n in range(1, 12):
            assert seq.integer(n) == ref.integer(n)

    def test_memo_is_stable(self):
        seq = q_symbolic()
        first = seq.binomial(6, 3)
        assert seq.binomial(6, 3) == first
        assert seq.binomial(6, 3) is seq.binomial(6, 3)


# points that are not roots of unity, so no q-integer vanishes there
SPECIAL_POINTS = (Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 3))
# the Pascal triangle needs no admissible sequence, so it is also compared
# at the root of unity -1, and at 0
TRIANGLE_POINTS = SPECIAL_POINTS + (Fraction(-1), Fraction(0))
SPECIAL_N = 12


def memo_values(seq) -> dict:
    """The integers, factorials and binomials of seq up to n = 12, by name."""
    values = {}
    for n in range(SPECIAL_N + 1):
        if n:
            values[("integer", n)] = seq.integer(n)
        values[("factorial", n)] = seq.factorial(n)
        for k in range(n + 1):
            values[("binomial", n, k)] = seq.binomial(n, k)
    return values


def specialised(values: dict, r) -> dict:
    return {key: value.eval_at(r) for key, value in values.items()}


class TestSpecialisation:
    """Every Q(q) value, evaluated at q = r, is the value of the q=r sequence.

    The two sides are computed in different fields, Q(q) by the polynomial
    kernel and Q by Fraction, so a wrong rational-function result shows as a
    mismatch at one of the points.  At r = 1 the q=r side is the classical
    sequence itself.
    """

    @pytest.mark.parametrize("r", SPECIAL_POINTS, ids=str)
    def test_memo_values(self, r):
        assert specialised(memo_values(q_symbolic()), r) == memo_values(from_selector(f"q={r}"))

    def test_memo_values_at_one_are_classical(self):
        assert specialised(memo_values(q_symbolic()), 1) == memo_values(classical())

    @pytest.mark.parametrize("r", SPECIAL_POINTS + (Fraction(1),), ids=str)
    def test_plus_power_at_rational_points(self, r):
        seq = q_symbolic()
        target = classical() if r == 1 else from_selector(f"q={r}")
        for x, y in ((Fraction(-547, 811), Fraction(601, 743)), (Fraction(3, 2), Fraction(-7, 5))):
            for n in range(SPECIAL_N + 1):
                assert psi_plus_power(seq, x, y, n).eval_at(r) == psi_plus_power(target, x, y, n)

    @pytest.mark.parametrize("r", TRIANGLE_POINTS, ids=str)
    def test_power_operator_binomials(self, r):
        # base q^m at each degree against base r^m; at r = 0 every degree
        # m >= 1 shares the triangle of base 0
        symbolic, numeric = operator_from_selector("qhat-power:q"), operator_from_selector(f"qhat-power:q={r}")
        for m in range(5):
            for n in range(11):
                for k in range(n + 1):
                    value = symbolic.binomial_eigenvalue(n, k, m)
                    assert value.eval_at(r) == numeric.binomial_eigenvalue(n, k, m), (n, k, m)

    @pytest.mark.parametrize("r", TRIANGLE_POINTS, ids=str)
    def test_pascal_triangle(self, r):
        # the triangle needs no admissibility: q=-1 has a vanishing integer
        # 2_psi, yet its triangle is defined
        seq = from_selector(f"q={r}")
        symbolic, numeric = q_symbolic().triangle, seq.triangle
        for n in range(11):
            for k in range(n + 1):
                assert symbolic.binomial(n, k).eval_at(r) == numeric.binomial(n, k), (n, k)
        if r == -1:
            with pytest.raises(AdmissibilityError, match="n = 2 is zero"):
                seq.check_integers(10)
