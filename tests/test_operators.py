"""Diagonal mutator operators and the per-degree operator Cauchy identity."""

import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psipascal import (
    Polynomial,
    operators,
    check_operator_cauchy,
    classical,
    fibonomial,
    list_identities,
    operator_from_selector,
    q,
    q_numeric,
    q_symbolic,
    qhat_power,
    qhat_ratio,
    run_identity,
)

from oracles import comb, fib, gaussian_binomial, poly_eval, q_integer


class TestRatioEigenvalues:
    def test_classical_is_constant_one(self):
        op = qhat_ratio(classical())
        for n in range(12):
            assert op.eigenvalue(n) == 1

    def test_q_symbolic_is_constant_q(self):
        op = qhat_ratio(q_symbolic())
        assert op.eigenvalue(0) == 1
        for n in range(1, 12):
            assert op.eigenvalue(n) == q

    def test_fibonomial_ratio(self):
        op = qhat_ratio(fibonomial())
        assert op.eigenvalue(4) == Fraction(4, 3)
        for n in range(1, 12):
            assert op.eigenvalue(n) == Fraction(fib(n + 1) - 1, fib(n))

    def test_q_two_is_constant_two(self):
        op = qhat_ratio(q_numeric(2))
        for n in range(1, 10):
            assert op.eigenvalue(n) == 2


class TestPowerEigenvalues:
    def test_symbolic_powers(self):
        op = qhat_power(q)
        assert op.eigenvalue(3) == q**3

    def test_base_one_is_identity(self):
        op = qhat_power(Fraction(1))
        for m in range(8):
            assert op.eigenvalue(m) == 1

    def test_numeric_power(self):
        assert qhat_power(Fraction(2)).eigenvalue(4) == 16


class TestOperatorIntegers:
    def test_base_one_gives_plain_n(self):
        op = qhat_ratio(classical())
        for m in range(5):
            for n in range(10):
                assert op.integer_eigenvalue(n, m) == n

    def test_power_base_degree_one(self):
        assert qhat_power(q).integer_eigenvalue(2, 1) == 1 + q

    def test_n_one_is_one_and_n_zero_is_zero(self):
        for op in (qhat_ratio(fibonomial()), qhat_power(q), qhat_power(Fraction(3))):
            for m in range(5):
                assert op.integer_eigenvalue(1, m) == 1
                assert op.integer_eigenvalue(0, m) == 0


class TestOperatorBinomials:
    def test_base_one_reduces_to_plain_binomials(self):
        op = qhat_ratio(classical())
        assert op.binomial_eigenvalue(4, 2, 3) == 6
        for n in range(10):
            for k in range(n + 1):
                assert op.binomial_eigenvalue(n, k, 2) == comb(n, k)

    def test_power_base_small(self):
        assert qhat_power(q).binomial_eigenvalue(2, 1, 1) == 1 + q

    def test_edges(self):
        op = qhat_power(q)
        for n in range(8):
            assert op.binomial_eigenvalue(n, n, 3) == 1
            assert op.binomial_eigenvalue(n, 0, 3) == 1
            assert op.binomial_eigenvalue(n, n + 1, 3) == 0
            assert op.binomial_eigenvalue(n, -1, 3) == 0

    def test_recurrence_matches_factorial_ratio(self):
        # wherever the factorial eigenvalues are nonzero the two agree
        for op in (qhat_ratio(fibonomial()), qhat_ratio(q_symbolic()), qhat_power(q)):
            for m in range(5):
                for n in range(11):
                    fact_n = op.factorial_eigenvalue(n, m)
                    for k in range(n + 1):
                        product = (
                            op.binomial_eigenvalue(n, k, m)
                            * op.factorial_eigenvalue(k, m)
                            * op.factorial_eigenvalue(n - k, m)
                        )
                        assert product == fact_n

    def test_ratio_over_q_equals_scalar_q_binomials(self):
        # degree independence at every positive degree, matching the scalar values
        seq = q_symbolic()
        op = qhat_ratio(seq)
        for n in range(9):
            for k in range(n + 1):
                reference = seq.binomial(n, k)
                for m in range(1, 8):
                    assert op.binomial_eigenvalue(n, k, m) == reference


@lru_cache(maxsize=None)
def _gaussian(n, k):
    return tuple(gaussian_binomial(n, k))


def _expected(base, n, k, m):
    """B(n, k) at base L(m) = base^m, from the independent Gaussian oracle."""
    coefficients = _gaussian(n, k)
    if base is None:  # symbolic q: the Gaussian binomial spread to stride m
        spread = [Fraction(0)] * (m * (len(coefficients) - 1) + 1) if coefficients else []
        for t, c in enumerate(coefficients):
            spread[m * t] += c
        while spread and spread[-1] == 0:
            spread.pop()
        return spread
    return poly_eval(list(coefficients), Fraction(base) ** m)


def _observed(op, n, k, m):
    value = op.binomial_eigenvalue(n, k, m)
    if op.field.symbolic:
        assert value.denominator == (1,)
        return [Fraction(c) for c in value.numerator]
    return value


queries = st.lists(
    st.tuples(st.integers(0, 10), st.integers(-2, 12), st.integers(0, 5)), max_size=40
)


class TestTriangleOrderIndependence:
    """Each base keeps one triangle grown on demand; the order of queries must not matter."""

    @given(
        st.sampled_from([None, Fraction(2), Fraction(-1, 2), Fraction(0)]),
        queries,
        queries,
    )
    @settings(deadline=None, max_examples=60)
    def test_any_query_order_matches_the_oracle(self, base, warm_up, asked):
        warmed = qhat_power(q if base is None else base)
        for n, k, m in warm_up:
            warmed.binomial_eigenvalue(n, k, m)
        # repeats, out-of-range k and descending n are all in the mix
        for op in (qhat_power(q if base is None else base), warmed):
            for n, k, m in asked + asked[::-1]:
                assert _observed(op, n, k, m) == _expected(base, n, k, m), (n, k, m)


def _q_binomial_at(n, k, q0):
    """Gaussian binomial at a rational q0 from the product of q-integers."""
    value = Fraction(1)
    for t in range(k):
        value = value * q_integer(n - t, q0) / q_integer(t + 1, q0)
    return value


class TestConcurrentGrowth:
    SIZE, DEGREES = 30, (1, 2, 3)

    def grow_concurrently(self, op, base_at):
        """Six threads ask for B(n, k) at each degree; returns the wrong answers."""
        expected = {
            (n, k, m): _q_binomial_at(n, k, base_at(m))
            for m in self.DEGREES
            for n in range(self.SIZE)
            for k in (0, n // 2, n)
        }
        wrong = []

        def ask():
            for (n, k, m), value in expected.items():
                if op.binomial_eigenvalue(n, k, m) != value:
                    wrong.append((n, k, m))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=ask) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for m in self.DEGREES:
            assert [len(row) for row in op.triangle(m)._rows] == list(range(1, self.SIZE + 1))
        return wrong

    def test_threads_growing_one_triangle_agree_with_the_oracle(self):
        # the bases 2^m are distinct, so each degree grew a triangle of its own
        op = qhat_power(Fraction(2))
        assert self.grow_concurrently(op, lambda m: 2**m) == []
        assert len(op._triangles) == len(self.DEGREES)

    def test_threads_growing_a_shared_triangle_agree_with_the_oracle(self):
        # the ratio base of q=2 is 2 at every degree m >= 1: one triangle
        op = qhat_ratio(q_numeric(2))
        assert self.grow_concurrently(op, lambda m: 2) == []
        assert list(op._triangles) == [2]


def checked_degrees(monkeypatch, op, sweep):
    """Run eq8 and return the degree m of every instance the sweep really checks."""
    degrees, check = [], operators.check_operator_cauchy

    def recording(op, i, j, m):
        degrees.append(m)
        return check(op, i, j, m)

    monkeypatch.setattr(operators, "check_operator_cauchy", recording)
    assert run_identity("eq8", {"operator": op, **sweep}).passed
    monkeypatch.undo()
    return degrees


class TestMemoCorruption:
    """A corrupted operator memo must make eq8 fail at the first index that reads it."""

    SWEEP = {"i": 4, "j": 4, "m": 4}

    def built(self):
        op = operator_from_selector("qhat-power:q")
        assert run_identity("eq8", {"operator": op, **self.SWEEP}).passed
        return op

    def test_bumped_triangle_entry(self):
        # B(4, 2) at degree 2 is first read as the right side B(i+j, j) of (2, 2, 2)
        op = self.built()
        rows = op.triangle(2)._rows
        rows[4][2] = rows[4][2] + 1
        report = run_identity("eq8", {"operator": op, **self.SWEEP})
        ce = report.counterexample
        assert not report.passed
        assert ce.location == (2, 2, 2)
        assert ce.lhs == "(1 + q^2 + 2*q^4 + q^6 + q^8)/(1)"
        assert ce.rhs == "(2 + q^2 + 2*q^4 + q^6 + q^8)/(1)"

    def test_bumped_power_in_a_weight(self):
        # L(3)^2 is first read as the weight b^((i-k)(j-k)) of (1, 2, 3), k = 0
        op = self.built()
        powers = op.triangle(3)._powers
        powers[2] = powers[2] + 1
        report = run_identity("eq8", {"operator": op, **self.SWEEP})
        ce = report.counterexample
        assert not report.passed
        assert ce.location == (1, 2, 3)
        assert (ce.lhs, ce.rhs) == ("(2 + q^3 + q^6)/(1)", "(1 + q^3 + q^6)/(1)")

    def test_bumped_power_in_an_eq9_weight(self):
        # eq9 on q reads its weights from the triangle at q; after a warm-up
        # has built every row, q^2 is first read as the weight of (1, 2, 2),
        # k = 0, so the bumped memo entry makes that instance fail there
        seq = q_symbolic()
        assert run_identity("eq9", {"sequence": seq, "n": 5}).passed
        powers = seq.triangle._powers
        powers[2] = powers[2] + 1
        report = run_identity("eq9", {"sequence": seq, "n": 5})
        ce = report.counterexample
        assert not report.passed
        assert ce.location == (1, 2, 2)
        assert (ce.lhs, ce.rhs) == ("(2 + q + q^2)/(1)", "(1 + q + q^2)/(1)")

    def test_bumped_power_feeding_the_triangle(self):
        # corrupted before any row is built, L(3)^2 also enters B(n, 2) at degree 3
        op = operator_from_selector("qhat-power:q")
        op.triangle(3)._powers[2] = op.eigenvalue_power(3, 2) + 1
        report = run_identity("eq8", {"operator": op, **self.SWEEP})
        ce = report.counterexample
        assert not report.passed
        assert ce.location == (1, 3, 3)
        assert (ce.lhs, ce.rhs) == ("(1 + q^3 + q^6 + q^9)/(1)", "(2 + q^3 + q^6 + q^9)/(1)")

    def test_bumped_triangle_entry_of_a_constant_base(self, monkeypatch):
        # the classical ratio base is 1 at every degree, so the sweep checks
        # degree 0 only, and every degree reads its one triangle
        op = operator_from_selector("qhat-paper:classical")
        assert set(checked_degrees(monkeypatch, op, self.SWEEP)) == {0}
        assert list(op._triangles) == [1]
        rows = op.triangle(0)._rows
        rows[4][2] = rows[4][2] + 1
        report = run_identity("eq8", {"operator": op, **self.SWEEP})
        ce = report.counterexample
        assert not report.passed
        assert ce.location == (2, 2, 0)
        assert (ce.lhs, ce.rhs) == ("6", "7")


class TestSharedTriangles:
    """Degrees with equal eigenvalues share one triangle, keyed by the eigenvalue."""

    FULL = {"i": 8, "j": 8, "m": 10}

    @pytest.mark.parametrize(
        "selector, bases",
        [("qhat-paper:classical", [1]), ("qhat-paper:q", [1, q]), ("qhat-paper:q=2", [1, 2])],
    )
    def test_a_full_eq8_run_builds_one_triangle_per_base(self, monkeypatch, selector, bases):
        # ratio bases: L(0) = 1, and L(m >= 1) = 1 (classical) or q (q, q=r);
        # the sweep checks each (i, j) once per base, at its first degree
        op = operator_from_selector(selector)
        pairs = (self.FULL["i"] + 1) * (self.FULL["j"] + 1)
        assert checked_degrees(monkeypatch, op, self.FULL) == list(range(len(bases))) * pairs
        assert list(op._triangles) == bases
        assert all(op.triangle(m) is op._triangles[bases[-1]] for m in range(1, self.FULL["m"] + 1))


EQ8_SWEEP = next(spec for spec in list_identities() if spec.id == "eq8").instances


def per_degree_sweep(op, i_max, j_max, m_max):
    """The reference eq8 sweep: one Cauchy check at every (i, j, m)."""
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            for m in range(m_max + 1):
                yield check_operator_cauchy(op, i, j, m)


def up_to_first_failure(reports):
    out = []
    for report in reports:
        out.append(report)
        if not report.passed:
            break
    return out


class TestDistinctBaseSweep:
    """eq8 checks each (i, j, L(m)) once and reports exactly as the per-degree sweep."""

    BOUNDS = (6, 6, 8)
    SELECTORS = (
        "qhat-paper:classical",
        "qhat-paper:q",
        "qhat-paper:q=2",
        "qhat-paper:fibonomial",
        # ratio bases 1, 1, 1, 1, 2, 1, 2, 3, 1 at degrees 0..8
        "qhat-paper:custom:1,2,3,4,9,10,21,64,65",
        "qhat-power:q",
        "qhat-power:q=0",
        "qhat-power:q=1",
        "qhat-power:q=-1",
        "qhat-power:q=2",
    )

    def reports(self, new_op, ref_op):
        new = up_to_first_failure(EQ8_SWEEP(new_op, *self.BOUNDS))
        ref = up_to_first_failure(per_degree_sweep(ref_op, *self.BOUNDS))
        return new, ref

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_same_reports_as_per_degree(self, selector):
        new, ref = self.reports(operator_from_selector(selector), operator_from_selector(selector))
        assert all(report.passed for report in ref)
        assert new == ref

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_same_first_failure_under_a_corrupted_triangle(self, selector):
        # bump B(4, 2) in the triangle of the last degree whose base is new;
        # both sweeps first read it as the right side of (2, 2, m)
        new_op, ref_op = operator_from_selector(selector), operator_from_selector(selector)
        self.reports(new_op, ref_op)  # a passing sweep on each side builds the triangles
        bases = [new_op.eigenvalue(m) for m in range(self.BOUNDS[2] + 1)]
        m = max(d for d, base in enumerate(bases) if base not in bases[:d])
        for op in (new_op, ref_op):
            rows = op.triangle(m)._rows
            rows[4][2] = rows[4][2] + 1
        new, ref = self.reports(new_op, ref_op)
        assert not ref[-1].passed
        assert ref[-1].counterexample.location == (2, 2, m)
        assert new == ref


class TestDiagonalAction:
    def test_apply_scales_each_degree(self):
        op = qhat_power(Fraction(2))
        p = Polynomial([5, 1, 0, 7])
        image = op.apply(p)
        assert image == Polynomial([5, 2, 0, 56])

    def test_apply_is_linear_combination_of_monomial_actions(self):
        op = qhat_ratio(fibonomial())
        p = Polynomial([Fraction(1, 2), 0, 3, 1])
        total = Polynomial.zero()
        for m in range(p.degree + 1):
            term = Polynomial.monomial(m).scale(p.coefficient(m)) if p.coefficient(m) else None
            if term is not None:
                total = total + op.apply(term)
        assert total == op.apply(p)


class TestOperatorCauchy:
    def test_two_term_case(self):
        for op in (qhat_power(q), qhat_ratio(fibonomial()), qhat_ratio(q_symbolic())):
            for m in range(5):
                report = check_operator_cauchy(op, 1, 1, m)
                assert report.passed
                lam = op.eigenvalue(m)
                assert op.binomial_eigenvalue(2, 1, m) == lam + 1

    def test_classical_reduces_to_vandermonde(self):
        op = qhat_ratio(classical())
        for i in range(7):
            for j in range(7):
                assert check_operator_cauchy(op, i, j, 2).passed
                assert sum(comb(i, k) * comb(j, k) for k in range(min(i, j) + 1)) == comb(i + j, j)

    def test_degenerate_cases(self):
        op = qhat_power(q)
        for j in range(6):
            assert check_operator_cauchy(op, 0, j, 4).passed

    def test_power_base_sweep(self):
        op = qhat_power(q)
        for m in range(6):
            for i in range(6):
                for j in range(6):
                    assert check_operator_cauchy(op, i, j, m).passed


class TestSelectors:
    def test_ratio_selector(self):
        op = operator_from_selector("qhat-paper:fibonomial")
        assert op.selector == "qhat-paper:fibonomial"
        assert op.eigenvalue(4) == Fraction(4, 3)

    def test_power_selectors(self):
        assert operator_from_selector("qhat-power:q").eigenvalue(3) == q**3
        assert operator_from_selector("qhat-power:q=2").eigenvalue(3) == 8

    def test_unknown(self):
        with pytest.raises(ValueError):
            operator_from_selector("qhat-unknown:q")
        with pytest.raises(ValueError):
            operator_from_selector("qhat-power:classical")
