"""Matrix layer: generators, Pascal-type matrices, products, moment convolution,
serialization, and the matrix-level identity checks."""

import random
from fractions import Fraction

import pytest

from psipascal import (
    LowerTriMatrix,
    MatrixDocument,
    SquareMatrix,
    binom_convolve,
    check_cauchy_vandermonde,
    check_exp_vs_closed,
    check_nilpotency,
    check_product_identity,
    check_semigroup,
    check_transpose_fermat,
    check_weighted_cauchy,
    classical,
    fermat,
    fibonomial,
    from_selector,
    k_matrix,
    matmul,
    matrix_document,
    matrix_to_latex,
    pascal_closed,
    psi_exp_nilpotent,
    psi_plus_power,
    q,
    q_numeric,
    q_symbolic,
    run_identity,
    scalar_to_string,
)

from oracles import comb, fib

_RNG_SEED = 2718281


def all_sequences():
    return [classical(), q_symbolic(), q_numeric(2), fibonomial()]


class TestGenerator:
    def test_classical_subdiagonal(self):
        K = k_matrix(classical(), 3)
        assert [row[-2] for row in K.rows[1:]] == [1, 2]
        assert K.has_zero_diagonal

    def test_fibonomial_subdiagonal(self):
        K = k_matrix(fibonomial(), 4)
        assert [row[-2] for row in K.rows[1:]] == [fib(1), fib(2), fib(3)] == [1, 1, 2]

    def test_size_one_is_zero(self):
        assert k_matrix(q_symbolic(), 1).is_zero

    def test_row_shape_is_validated(self):
        with pytest.raises(ValueError):
            LowerTriMatrix([[1], [2]])


class TestExponential:
    def test_size_one(self):
        E = psi_exp_nilpotent(classical(), k_matrix(classical(), 1), Fraction(1))
        assert E.rows == ((Fraction(1),),)

    def test_classical_size_three(self):
        E = psi_exp_nilpotent(classical(), k_matrix(classical(), 3), Fraction(1))
        assert E.rows == ((Fraction(1),), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2), Fraction(1)))

    def test_zero_argument_gives_identity(self):
        for seq in all_sequences():
            E = psi_exp_nilpotent(seq, k_matrix(seq, 5), seq.field.zero)
            assert E == LowerTriMatrix.identity(5)

    def test_rejects_nonzero_diagonal(self):
        bad = LowerTriMatrix([[1], [0, 1]])
        with pytest.raises(ValueError):
            psi_exp_nilpotent(classical(), bad, Fraction(1))


class TestClosedForm:
    def test_symbolic_row_two(self):
        P = pascal_closed(classical(), 3, q)
        assert P.entry(2, 0) == q**2
        assert P.entry(2, 1) == 2 * q
        assert P.entry(2, 2) == 1

    def test_fibonomial_row_four(self):
        P = pascal_closed(fibonomial(), 5, Fraction(1))
        assert list(P.rows[4]) == [1, 3, 6, 3, 1]

    def test_zero_argument_gives_identity(self):
        for seq in all_sequences():
            assert pascal_closed(seq, 6, seq.field.zero) == LowerTriMatrix.identity(6)

    def test_agrees_with_exponential(self):
        rng = random.Random(_RNG_SEED)
        for seq in all_sequences():
            for x in (q, Fraction(1), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
                for n in (1, 2, 5, 9):
                    assert check_exp_vs_closed(seq, n, x).passed


class TestFermat:
    def test_classical_table(self):
        F = fermat(classical(), 3)
        assert [list(r) for r in F.rows] == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]
        for i in range(3):
            for j in range(3):
                assert F.entry(i, j) == comb(i + j, i)

    def test_corner(self):
        assert fermat(fibonomial(), 1).entry(0, 0) == 1

    def test_q_entry(self):
        assert fermat(q_symbolic(), 2).entry(1, 1) == 1 + q


class TestProducts:
    def test_identity_is_neutral(self):
        P = pascal_closed(fibonomial(), 6, Fraction(2))
        I = LowerTriMatrix.identity(6)
        assert matmul(I, P) == P
        assert matmul(P, I) == P

    def test_associativity(self):
        rng = random.Random(_RNG_SEED)
        seq = fibonomial()
        a = pascal_closed(seq, 5, Fraction(rng.randint(1, 5)))
        b = pascal_closed(seq, 5, Fraction(rng.randint(-5, -1)))
        c = k_matrix(seq, 5)
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            matmul(k_matrix(classical(), 3), k_matrix(classical(), 4))

    def test_transpose_involution(self):
        P = pascal_closed(q_symbolic(), 4, q)
        assert P.transpose().transpose() == P
        assert P.transpose().entry(0, 3) == P.entry(3, 0)

    def test_classical_square_is_argument_two(self):
        P1 = pascal_closed(classical(), 8, Fraction(1))
        assert matmul(P1, P1) == pascal_closed(classical(), 8, Fraction(2))

    def test_mixed_domain_product_promotes(self):
        P = pascal_closed(classical(), 3, Fraction(1))
        Q = pascal_closed(classical(), 3, q)
        assert matmul(P, Q).field.symbolic


class TestNilpotency:
    @pytest.mark.parametrize("selector_n", [("classical", 12), ("q", 10), ("q=2", 12), ("fibonomial", 12)])
    def test_exact_index(self, selector_n):
        from psipascal import from_selector

        selector, bound = selector_n
        seq = from_selector(selector)
        for n in range(1, bound + 1):
            assert check_nilpotency(seq, n).passed


class TestProductIdentities:
    def test_eq4_entry_value(self):
        # entry (3, 1) of P[1]P[1] classically: 3 + 6 + 3 = 12 = 2^2 * C(3,1)
        P1 = pascal_closed(classical(), 4, Fraction(1))
        product = matmul(P1, P1)
        brute = sum(comb(3, k) * comb(k, 1) for k in range(1, 4))
        assert product.entry(3, 1) == brute == 12

    def test_eq4_all_sequences(self):
        for seq in all_sequences():
            assert check_product_identity(seq, 16, "eq4").passed

    def test_eq5_classical_gives_identity_matrix(self):
        P1 = pascal_closed(classical(), 8, Fraction(1))
        Pm = pascal_closed(classical(), 8, Fraction(-1))
        assert matmul(P1, Pm) == LowerTriMatrix.identity(8)
        assert check_product_identity(classical(), 8, "eq5").passed

    def test_eq5_fibonomial_nonzero_off_diagonal(self):
        seq = fibonomial()
        assert check_product_identity(seq, 5, "eq5").passed
        product = matmul(pascal_closed(seq, 5, Fraction(1)), pascal_closed(seq, 5, Fraction(-1)))
        assert product.entry(2, 0) == 1  # the non-group witness

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_product_identity(classical(), 3, "eq7")

    def test_semigroup_random_pairs(self):
        rng = random.Random(_RNG_SEED)
        for seq in all_sequences():
            for _ in range(3):
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                y = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                assert check_semigroup(seq, 8, x, y).passed

    def test_semigroup_matches_plus_power_entrywise(self):
        seq = q_symbolic()
        x, y = Fraction(2), Fraction(-1, 3)
        product = matmul(pascal_closed(seq, 6, x), pascal_closed(seq, 6, y))
        for i in range(6):
            for j in range(i + 1):
                assert product.entry(i, j) == seq.binomial(i, j) * psi_plus_power(seq, x, y, i - j)


class TestTransposeFermat:
    def test_classical_passes(self):
        assert check_transpose_fermat(classical(), 5).passed

    def test_q_symbolic_fails_at_one_one(self):
        report = check_transpose_fermat(q_symbolic(), 2)
        assert not report.passed
        assert report.counterexample.location == (1, 1)
        assert report.counterexample.lhs == "2"
        assert report.counterexample.rhs == "(1 + q)/(1)"

    def test_fibonomial_fails_at_one_one(self):
        report = check_transpose_fermat(fibonomial(), 2)
        assert not report.passed
        assert (report.counterexample.lhs, report.counterexample.rhs) == ("2", "1")

    def test_counterexample_is_lexicographically_first(self):
        report = check_transpose_fermat(q_symbolic(), 6)
        assert report.counterexample.location == (1, 1)


class TestWeightedCauchy:
    def test_two_term_case(self):
        seq = q_symbolic()
        assert check_weighted_cauchy(seq, 1, 1).passed
        assert seq.binomial(2, 1) == 1 + q

    def test_trivial_row(self):
        for j in range(5):
            assert check_weighted_cauchy(q_symbolic(), 0, j).passed

    def test_sweep_symbolic(self):
        seq = q_symbolic()
        for i in range(6):
            for j in range(6):
                assert check_weighted_cauchy(seq, i, j).passed

    def test_q_one_specializes_to_plain_vandermonde(self):
        seq = q_numeric(1)
        for i in range(6):
            for j in range(6):
                assert check_weighted_cauchy(seq, i, j).passed
        assert sum(comb(4, k) * comb(3, k) for k in range(4)) == comb(7, 3)

    def test_vandermonde_form(self):
        seq = q_symbolic()
        for r in range(5):
            for s in range(5):
                for j in range(r + s + 1):
                    assert check_cauchy_vandermonde(seq, r, s, j).passed

    def test_symbolic_identity_specializes_numerically(self):
        # evaluating the symbolic binomials at q = 2 matches the q = 2 sequence
        qs, q2 = q_symbolic(), q_numeric(2)
        for n in range(9):
            for k in range(n + 1):
                assert qs.binomial(n, k).eval_at(2) == q2.binomial(n, k)

    def test_wrong_sequence_kind(self):
        with pytest.raises(ValueError):
            check_weighted_cauchy(classical(), 2, 2)
        with pytest.raises(ValueError):
            check_cauchy_vandermonde(fibonomial(), 2, 2, 1)


class TestMomentAlgebra:
    def test_convolution_of_powers_is_plus_power(self):
        rng = random.Random(_RNG_SEED)
        for seq in all_sequences():
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            y = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            a = tuple(x**m for m in range(8))
            b = tuple(y**m for m in range(8))
            c = binom_convolve(seq, a, b)
            for m in range(8):
                assert c[m] == psi_plus_power(seq, x, y, m)

    def test_identity_moments_are_neutral(self):
        seq = fibonomial()
        a = tuple(Fraction(3) ** m for m in range(6))
        e = (Fraction(1),) + (Fraction(0),) * 5
        assert binom_convolve(seq, a, e) == a

    def test_alternating_pattern(self):
        seq = fibonomial()
        ones = tuple(Fraction(1) for _ in range(6))
        alt = tuple(Fraction(-1) ** m for m in range(6))
        c = binom_convolve(seq, ones, alt)
        assert c[:4] == (1, 0, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            binom_convolve(classical(), (1, 2), (1,))


class TestSerialization:
    def test_json_round_trip(self):
        seq = fibonomial()
        doc = matrix_document("pascal", seq, pascal_closed(seq, 4, Fraction(1)), Fraction(1))
        text = doc.to_json()
        assert MatrixDocument.from_json(text).to_json() == text

    def test_csv_shape(self):
        seq = classical()
        doc = matrix_document("pascal", seq, pascal_closed(seq, 3, Fraction(1)), Fraction(1))
        assert doc.to_csv() == "1\n1,1\n1,2,1"

    def test_text_shape(self):
        seq = classical()
        doc = matrix_document("K", seq, k_matrix(seq, 3))
        assert doc.to_text() == "0\n1 0\n0 2 0"

    def test_bad_document(self):
        with pytest.raises(ValueError):
            MatrixDocument.from_json('{"kind": "K"}')

    def test_latex_form(self):
        text = matrix_to_latex(pascal_closed(q_symbolic(), 3, q))
        assert text.startswith("\\left[\\begin{array}{ccc}")
        assert text.endswith("\\end{array}\\right]")
        assert "q^{2}" in text

    def test_symbolic_entries_round_trip(self):
        seq = q_symbolic()
        doc = matrix_document("fermat", seq, fermat(seq, 3))
        parsed = MatrixDocument.from_json(doc.to_json())
        assert parsed.entries[1][1] == "(1 + q)/(1)"


class TestCorruptedMemo:
    """A corrupted sequence memo must surface through the matrix path.

    The counterexamples were recorded from the dense reference product, so
    they also pin that the sparse product reports the same smallest one.
    """

    @staticmethod
    def perturbed_factorial():
        seq = fibonomial()
        seq.factorial(10)
        seq._facts[5] = seq._facts[5] * 2
        return seq

    @staticmethod
    def zeroed_integer():
        seq = fibonomial()
        seq.integer(7)
        seq._ints[7] = seq.field.zero
        return seq

    def test_perturbed_factorial_fails_exp_vs_closed(self):
        report = run_identity("exp-vs-closed", {"sequence": self.perturbed_factorial(), "n": 10})
        ce = report.counterexample
        assert not report.passed
        assert (ce.location, ce.lhs, ce.rhs) == ((5, 0), "(1/2*q^5)/(1)", "(q^5)/(1)")
        assert ce.detail == "instance sequence=fibonomial n=6 x=(q)/(1)"
        direct = check_exp_vs_closed(self.perturbed_factorial(), 10, Fraction(-3, 2))
        ce = direct.counterexample
        assert (ce.location, ce.lhs, ce.rhs) == ((5, 0), "-243/64", "-243/32")

    def test_zeroed_integer_fails_nilpotent(self):
        report = run_identity("nilpotent", {"sequence": self.zeroed_integer(), "n": 12})
        ce = report.counterexample
        assert not report.passed
        assert (ce.location, ce.lhs, ce.rhs, ce.detail) == ((7,), "0", "nonzero", "K^7 vanished")
        direct = check_nilpotency(self.zeroed_integer(), 12)
        ce = direct.counterexample
        assert (ce.location, ce.detail) == ((11,), "K^11 vanished")

    @staticmethod
    def bumped_binomial():
        seq = q_numeric(2)
        for n in range(9):
            seq.binomial_row(n)
        seq._binoms[(4, 2)] = seq._binoms[(4, 2)] + 1
        return seq

    def test_bumped_binomial_fails_eq9_at_the_smallest_index(self):
        # r, s, j are swept in lexicographic order; the right side comes from
        # the Pascal triangle, so (0, 4, 2), whose left side is the memo entry
        # binomial(4, 2) itself, is the first triple that reads it
        report = run_identity("eq9", {"sequence": self.bumped_binomial(), "n": 5})
        ce = report.counterexample
        assert not report.passed
        assert report.params == {"sequence": "q=2", "n": "5"}
        assert str(ce) == "at (0, 4, 2): lhs=36 rhs=35 [instance sequence=q=2 r=0 s=4 j=2]"

    def test_bumped_binomial_fails_eq10_at_the_smallest_index(self):
        # (2, 2) reads binomial(4, 2) only on its right side, which is the
        # triangle's; (2, 4) is the first pair whose left side reads the memo entry
        report = run_identity("eq10", {"sequence": self.bumped_binomial(), "i": 4, "j": 4})
        ce = report.counterexample
        assert not report.passed
        assert report.params == {"sequence": "q=2", "i": "4", "j": "4"}
        assert str(ce) == "at (2, 4): lhs=652 rhs=651 [instance sequence=q=2 i=2 j=4]"

    @pytest.mark.parametrize("selector", ["q=2", "q"])
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(1, n // 2 + 1)])
    def test_every_bumped_binomial_fails_eq9_at_r_zero(self, selector, n, k):
        # at r = 0 the left side is the memo entry binomial(s, j) alone and the
        # right side the triangle's, so the sweep stops at (0, n, k)
        seq = from_selector(selector)
        for row in range(8):
            seq.binomial_row(row)
        true = seq._binoms[(n, k)]
        seq._binoms[(n, k)] = true + 1
        ce = run_identity("eq9", {"sequence": seq, "n": 7}).counterexample
        assert ce is not None
        assert (ce.location, ce.lhs, ce.rhs) == ((0, n, k), scalar_to_string(true + 1), scalar_to_string(true))
