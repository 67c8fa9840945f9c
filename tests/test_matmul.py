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
oracle on the evaluated operands at each of them is an exact check.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from psipascal import LowerTriMatrix, SquareMatrix, matmul
from psipascal.scalars import (
    RATIONAL_FIELD,
    RATIONAL_FUNCTION_FIELD,
    RationalFunction,
    field_of,
)

from oracles import mat_mul

POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))
PATTERNS = ("random", "strictly-lower", "identity", "zero")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.lists(rationals, min_size=1, max_size=3).map(RationalFunction.from_coefficients)
fields = st.sampled_from((RATIONAL_FIELD, RATIONAL_FUNCTION_FIELD))


@st.composite
def matrices(draw, lower, n, field=None):
    """A matrix of the given shape and size over a drawn field and zero pattern."""
    field = field or draw(fields)
    pattern = draw(st.sampled_from(PATTERNS))
    values = rationals if field is RATIONAL_FIELD else polys
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
    entry_type = Fraction if field is RATIONAL_FIELD else RationalFunction
    assert all(type(v) is entry_type for row in result.rows for v in row)
    assert result._rows == [{j: v for j, v in enumerate(row) if v} for row in result.rows]
    assert all(type(v) is entry_type and v for row in result._rows for v in row.values())


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
