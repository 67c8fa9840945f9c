"""Matrix layer arithmetic: the sparse product, scaling and sums.

``matmul`` walks nonzero entries only, and its results, like those of
``scale`` and ``+``, are built by the trusted constructor without
re-coercing entries.  Every result is checked against the dense
triple-loop oracle in ``oracles.py`` and for the representation invariants
the trusted constructor must keep: the shape, the field (the join of the
operands' fields), and row dicts that hold exactly the nonzero entries,
each of the field's type.  Equality and hashing go by nonzero entries,
across both shapes and fields, whatever order a row's dict holds them in.

Q(q) entries are polynomials of degree at most 2, so every entry of a
product or sum has degree at most 4 and is fixed by its values at the five
or more points in ``POINTS``: comparing the evaluated result with the
oracle on the evaluated operands at each of them is an exact check.  A
Q(q) matrix holds either rational or integer coefficients; products of two
integer ones can take the packed path of ``matmul``, and ``TestBothPaths``
forces each path on the same inputs.
"""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psipascal.matrices as matrix_layer
from psipascal import LowerTriMatrix, SquareMatrix, matmul
from psipascal.matrices import (
    check_exp_vs_closed,
    check_nilpotency,
    check_product_identity,
    check_semigroup,
    pascal_closed,
)
from psipascal.scalars import (
    RATIONAL_FIELD,
    RATIONAL_FUNCTION_FIELD,
    RationalFunction,
    field_of,
)
from psipascal.sequences import classical, q_symbolic

from oracles import mat_mul

POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))
PATTERNS = ("random", "strictly-lower", "identity", "zero")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.lists(rationals, min_size=1, max_size=3).map(RationalFunction.from_coefficients)
# integers of up to 70 bits: slots of one byte up to ten
int_polys = st.lists(
    st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=3
).map(RationalFunction.from_coefficients)
fields = st.sampled_from((RATIONAL_FIELD, RATIONAL_FUNCTION_FIELD))


@st.composite
def matrices(draw, lower, n, field=None):
    """A matrix of the given shape and size over a drawn field and zero pattern."""
    field = field or draw(fields)
    pattern = draw(st.sampled_from(PATTERNS))
    values = rationals if field is RATIONAL_FIELD else draw(st.sampled_from((polys, int_polys)))
    rows = []
    for i in range(n):
        row = []
        for j in range(i + 1 if lower else n):
            if pattern == "identity":
                row.append(int(i == j))
            elif pattern == "zero" or (pattern == "strictly-lower" and j >= i):
                row.append(0)
            elif pattern == "random" and draw(st.booleans()):
                row.append(0)
            else:
                row.append(draw(values))
        rows.append(row)
    return LowerTriMatrix(rows, field) if lower else SquareMatrix(rows, field)


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    a_lower, b_lower = draw(st.booleans()), draw(st.booleans())
    return draw(matrices(a_lower, n)), draw(matrices(b_lower, n))


@st.composite
def lower_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return draw(matrices(True, n)), draw(matrices(True, n))


@st.composite
def any_matrices(draw, field=None):
    n = draw(st.integers(min_value=1, max_value=6))
    return draw(matrices(draw(st.booleans()), n, field))


scalars = st.one_of(st.integers(min_value=-3, max_value=3), rationals, polys)


def at(matrix, point):
    """The dense grid of plain Fractions, each Q(q) entry evaluated at q = point."""
    n = matrix.size
    return [
        [
            v.eval_at(point) if isinstance(v, RationalFunction) else v
            for v in (matrix.entry(i, j) for j in range(n))
        ]
        for i in range(n)
    ]


def value_at(value, point):
    return value.eval_at(point) if isinstance(value, RationalFunction) else Fraction(value)


def assert_well_formed(result, lower, field):
    assert type(result) is (LowerTriMatrix if lower else SquareMatrix)
    assert result.field is field
    n = result.size
    assert [len(row) for row in result.rows] == [i + 1 if lower else n for i in range(n)]
    # over Q an entry is an int or a Fraction, over Q(q) a RationalFunction
    entry_types = (int, Fraction) if field is RATIONAL_FIELD else (RationalFunction,)
    assert all(type(v) in entry_types for row in result.rows for v in row)
    assert result._rows == [{j: v for j, v in enumerate(row) if v} for row in result.rows]
    assert all(type(v) in entry_types and v for row in result._rows for v in row.values())


class TestProduct:
    @given(operand_pairs())
    @settings(deadline=None, max_examples=150)
    def test_matmul_equals_dense_oracle(self, pair):
        a, b = pair
        lower = isinstance(a, LowerTriMatrix) and isinstance(b, LowerTriMatrix)
        product = matmul(a, b)
        assert_well_formed(product, lower, a.field.join(b.field))
        for point in POINTS:
            assert at(product, point) == mat_mul(at(a, point), at(b, point))

    @given(operand_pairs())
    @settings(deadline=None, max_examples=60)
    def test_chained_products_reuse_the_nonzero_pattern(self, pair):
        # a product is the left operand of the next one, as in K^k K
        a, b = pair
        lower = isinstance(a, LowerTriMatrix) and isinstance(b, LowerTriMatrix)
        chained = matmul(matmul(a, b), b)
        assert_well_formed(chained, lower, a.field.join(b.field))
        for point in POINTS:
            ab = mat_mul(at(a, point), at(b, point))
            assert at(chained, point) == mat_mul(ab, at(b, point))

    def test_entries_that_cancel_leave_the_nonzero_pattern(self):
        ones = SquareMatrix([[1, 1], [1, 1]])
        product = matmul(ones, SquareMatrix([[1, -1], [-1, 1]]))
        assert_well_formed(product, False, RATIONAL_FIELD)
        assert product.is_zero
        partial = matmul(LowerTriMatrix([[1], [1, 1]]), LowerTriMatrix([[1], [-1, 1]]))
        assert_well_formed(partial, True, RATIONAL_FIELD)
        assert partial.rows == ((1,), (0, 1)) and not partial.is_zero

    def test_identity_is_neutral_in_both_fields(self):
        for field in (RATIONAL_FIELD, RATIONAL_FUNCTION_FIELD):
            one = LowerTriMatrix.identity(4, field)
            assert_well_formed(one, True, field)
            m = LowerTriMatrix([[1], [2, 3], [0, 4, 5], [6, 0, 7, 8]])
            assert matmul(one, m) == m == matmul(m, one)


class TestScaleAndSum:
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: matrices(True, n)), scalars)
    @settings(deadline=None, max_examples=120)
    def test_scale_equals_entrywise_product(self, m, value):
        scaled = m.scale(value)
        assert_well_formed(scaled, True, m.field.join(field_of(value)))
        for point in POINTS:
            c = value_at(value, point)
            assert at(scaled, point) == [[v * c for v in row] for row in at(m, point)]

    @given(lower_pairs())
    @settings(deadline=None, max_examples=120)
    def test_sum_equals_entrywise_sum(self, pair):
        a, b = pair
        total = a + b
        assert_well_formed(total, True, a.field.join(b.field))
        for point in POINTS:
            expected = [
                [x + y for x, y in zip(ra, rb)] for ra, rb in zip(at(a, point), at(b, point))
            ]
            assert at(total, point) == expected

    def test_mixed_fields_never_leak_rationals_into_q_of_q(self):
        rational = LowerTriMatrix([[1], [0, Fraction(1, 2)]])
        symbolic = LowerTriMatrix([[0], [RationalFunction.generator(), 0]])
        for result in (
            rational + symbolic,
            symbolic + rational,
            rational.scale(RationalFunction.generator()),
            matmul(rational, symbolic),
            matmul(symbolic, rational.transpose()),
        ):
            assert result.field is RATIONAL_FUNCTION_FIELD
            assert all(type(v) is RationalFunction for row in result.rows for v in row)


class TestEqualityAndHash:
    @given(any_matrices())
    @settings(deadline=None, max_examples=120)
    def test_double_transpose_is_equal_across_shapes(self, m):
        # a triangle comes back as a square with zeros above the diagonal
        once = m.transpose()
        twice = once.transpose()
        assert_well_formed(once, False, m.field)
        assert_well_formed(twice, False, m.field)
        assert m == twice and twice == m
        assert hash(m) == hash(twice)
        n = m.size
        assert all(once.entry(i, j) == m.entry(j, i) for i in range(n) for j in range(n))

    @given(any_matrices(RATIONAL_FIELD))
    @settings(deadline=None, max_examples=80)
    def test_rational_matrix_equals_its_q_of_q_copy(self, m):
        copy = type(m)(m.rows, RATIONAL_FUNCTION_FIELD)
        assert_well_formed(copy, isinstance(m, LowerTriMatrix), RATIONAL_FUNCTION_FIELD)
        assert m == copy and copy == m
        assert hash(m) == hash(copy)
        assert copy.transpose().transpose() == m

    @given(any_matrices(), st.data())
    @settings(deadline=None, max_examples=120)
    def test_bumping_one_entry_breaks_equality(self, m, data):
        i = data.draw(st.integers(min_value=0, max_value=m.size - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(m.rows[i]) - 1))
        rows = [list(row) for row in m.rows]
        rows[i][j] = rows[i][j] + 1
        bumped = type(m)(rows, m.field)
        assert m != bumped and bumped != m
        assert m.transpose().transpose() != bumped
        assert m != bumped.transpose().transpose()

    def test_sizes_and_other_types_differ(self):
        assert LowerTriMatrix.identity(2) != LowerTriMatrix.identity(3)
        assert SquareMatrix([[0, 0], [0, 0]]) != SquareMatrix([[0]])
        assert LowerTriMatrix([[1]]) != ((1,),)

    def test_equality_and_hash_ignore_the_order_columns_were_stored_in(self):
        # row 0 of the product gets column 1 from b[0] before column 0 from b[1]
        product = matmul(SquareMatrix([[1, 1], [0, 0]]), SquareMatrix([[0, 2], [3, 0]]))
        assert list(product._rows[0]) == [1, 0]
        given_rows = SquareMatrix([[3, 2], [0, 0]])
        assert list(given_rows._rows[0]) == [0, 1]
        assert product == given_rows and given_rows == product
        assert hash(product) == hash(given_rows)
        assert len({product, given_rows}) == 1


@contextlib.contextmanager
def forced(route):
    """Send every product down one path of matmul.

    "packed" drops the density cutoff, so every product of two Q(q)
    operands whose entries are all integer polynomials is packed; "loop"
    raises it past any size, so none is.
    """
    saved = matrix_layer._PACK_CUTOFF
    matrix_layer._PACK_CUTOFF = -1 if route == "packed" else 10**9
    try:
        yield
    finally:
        matrix_layer._PACK_CUTOFF = saved


@contextlib.contextmanager
def routes_taken():
    """The list of paths ("packed" or "loop") the products in the block took."""
    taken, saved = [], (matrix_layer._packed_product, matrix_layer._entry_product)

    def spy(route, product):
        def run(a_rows, b_rows):
            taken.append(route)
            return product(a_rows, b_rows)
        return run

    matrix_layer._packed_product = spy("packed", saved[0])
    matrix_layer._entry_product = spy("loop", saved[1])
    try:
        yield taken
    finally:
        matrix_layer._packed_product, matrix_layer._entry_product = saved


def integer_polynomials(m) -> bool:
    return m.field is RATIONAL_FUNCTION_FIELD and all(
        v.denominator == (1,) and all(type(c) is int for c in v.numerator)
        for row in m._rows for v in row.values()
    )


def stored_order(m):
    return [list(row) for row in m._rows]


class TestBothPaths:
    @pytest.mark.parametrize("route", ["loop", "packed"])
    @given(operand_pairs())
    @settings(deadline=None, max_examples=150)
    def test_each_path_equals_dense_oracle(self, route, pair):
        a, b = pair
        lower = isinstance(a, LowerTriMatrix) and isinstance(b, LowerTriMatrix)
        with forced(route), routes_taken() as taken:
            product = matmul(a, b)
            chained = matmul(product, b)
        packs = route == "packed" and integer_polynomials(a) and integer_polynomials(b)
        assert taken[0] == ("packed" if packs else "loop")
        for result in (product, chained):
            assert_well_formed(result, lower, a.field.join(b.field))
        for point in POINTS:
            ab = mat_mul(at(a, point), at(b, point))
            assert at(product, point) == ab
            assert at(chained, point) == mat_mul(ab, at(b, point))

    @given(operand_pairs())
    @settings(deadline=None, max_examples=150)
    def test_paths_agree_entry_for_entry(self, pair):
        a, b = pair
        with forced("loop"):
            looped = matmul(a, b)
        with forced("packed"):
            packed = matmul(a, b)
        assert type(packed) is type(looped) and packed.field is looped.field
        assert packed == looped
        # the same entries in the same order: each path fills a row the same way
        assert stored_order(packed) == stored_order(looped)

    @pytest.mark.parametrize(
        "top, length, n",
        [
            (1, 1, 1), (1, 5, 3), (4, 2, 2), (4, 8, 1), (11, 1, 1), (3, 4, 5), (7, 2, 3), (127, 3, 5),
            (181, 10, 8), (255, 13, 9), (2**31 - 1, 10, 8), (2**64 + 3, 13, 9),
        ],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficients_at_the_width_bound(self, top, length, n, sign):
        # every coefficient of every entry is +-top, so the middle coefficient
        # of each result entry is exactly the bound top^2 * length * n the
        # slot width is computed from: a byte less (or no sign bit) overflows
        entry = RationalFunction.from_coefficients((top,) * length)
        a = SquareMatrix([[entry] * n for _ in range(n)])
        b = SquareMatrix([[entry * sign] * n for _ in range(n)])
        expected = entry * entry * (sign * n)
        assert max(map(abs, expected.numerator)) == top * top * length * n
        with forced("packed"), routes_taken() as taken:
            product = matmul(a, b)
        assert taken == ["packed"]
        assert all(v == expected for row in product.rows for v in row)
        with forced("loop"):
            assert matmul(a, b) == product

    def test_large_polynomial_products_pack_by_default(self):
        seq = q_symbolic()
        with routes_taken() as taken:
            assert check_product_identity(seq, 16, "eq4").passed
            assert check_product_identity(seq, 16, "eq5").passed
        assert taken == ["packed", "packed"]

    def test_constant_denominators_take_the_loop(self):
        # P[3/5] over q: every entry is a polynomial over a power of 5
        with forced("packed"), routes_taken() as taken:
            report = check_semigroup(q_symbolic(), 12, Fraction(3, 5), Fraction(-7, 11))
        assert report.passed and taken == ["loop"]

    def test_mixed_and_rational_operands_take_the_loop(self):
        rational = pascal_closed(classical(), 12, Fraction(1))
        symbolic = pascal_closed(q_symbolic(), 12, RationalFunction.generator())
        with forced("packed"), routes_taken() as taken:
            for a, b in ((rational, symbolic), (symbolic, rational), (rational, rational)):
                product = matmul(a, b)
                for point in POINTS[:2]:
                    assert at(product, point) == mat_mul(at(a, point), at(b, point))
        assert taken == ["loop"] * 3

    @pytest.mark.parametrize("n", [6, 16])
    def test_chains_of_the_generator_take_the_loop(self, n):
        # one stored entry per row: packing cannot repay itself
        seq = q_symbolic()
        with routes_taken() as taken:
            assert check_nilpotency(seq, n).passed
            assert check_exp_vs_closed(seq, n, RationalFunction.generator()).passed
        assert taken and set(taken) == {"loop"}
