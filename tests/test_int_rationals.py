"""Over Q an integral value is an ``int`` and any other a reduced ``Fraction``.

The field operations keep that form: ``zero``, ``one``, ``coerce``,
``divide`` and the parser return an ``int`` exactly when the value is
integral.  Every check of the quick profile is then run over Q sequences
of each built-in kind (and an integer ``custom`` one), and every memo
value, every eigenvalue and every entry of K, P[x] and exp_psi(xK) must be
an ``int`` or a ``Fraction``: never a ``float``, and never a ``bool``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psipascal import (
    RATIONAL_FIELD,
    FieldMismatchError,
    RationalFunction,
    classical,
    custom,
    fibonomial,
    k_matrix,
    list_identities,
    parse_rational,
    pascal_closed,
    psi_exp_nilpotent,
    q,
    q_numeric,
    qhat_power,
    qhat_ratio,
    run_identity,
    scalar_to_string,
)
from psipascal.scalars import divide

rationals = st.integers(min_value=-(2**70), max_value=2**70) | st.fractions(max_denominator=10**6)
nonzero_rationals = rationals.filter(bool)


def is_rational(value) -> bool:
    """An element of Q as the field holds it: exactly an int or a Fraction."""
    return type(value) in (int, Fraction)


def is_canonical(value) -> bool:
    """An int when integral, else a Fraction."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


class TestFieldOperations:
    def test_zero_and_one_are_ints(self):
        assert type(RATIONAL_FIELD.zero) is int and RATIONAL_FIELD.zero == 0
        assert type(RATIONAL_FIELD.one) is int and RATIONAL_FIELD.one == 1

    @given(rationals)
    @settings(deadline=None, max_examples=150)
    def test_coerce(self, value):
        out = RATIONAL_FIELD.coerce(value)
        assert is_canonical(out) and out == value

    def test_coerce_turns_integral_fractions_and_bools_into_ints(self):
        assert type(RATIONAL_FIELD.coerce(Fraction(6, 3))) is int
        assert type(RATIONAL_FIELD.coerce(True)) is int
        assert RATIONAL_FIELD.coerce(True) == 1

    @pytest.mark.parametrize("value", [1.0, 0.5, "1", q])
    def test_coerce_refuses_what_is_not_a_rational(self, value):
        with pytest.raises(FieldMismatchError):
            RATIONAL_FIELD.coerce(value)

    @given(rationals, nonzero_rationals)
    @settings(deadline=None, max_examples=300)
    def test_divide(self, a, b):
        out = divide(a, b)
        assert is_canonical(out)
        assert out == Fraction(a) / Fraction(b)

    @pytest.mark.parametrize(
        "a, b, expected",
        [(6, 3, 2), (-6, 3, -2), (6, -4, Fraction(-3, 2)), (0, 7, 0), (True, 2, Fraction(1, 2)),
         (Fraction(9, 2), Fraction(3, 2), 3), (Fraction(1, 3), 3, Fraction(1, 9)), (4, Fraction(2, 3), 6)],
    )
    def test_divide_cases(self, a, b, expected):
        out = divide(a, b)
        assert out == expected and type(out) is type(expected)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide(1, 0)
        with pytest.raises(ZeroDivisionError):
            divide(Fraction(1, 2), 0)

    def test_a_rational_function_operand_divides_over_q_of_q(self):
        assert divide(q, 2) == RationalFunction((0, Fraction(1, 2)))
        assert divide(6, q) * q == 6
        assert type(divide(q, q)) is RationalFunction

    @given(rationals)
    @settings(deadline=None, max_examples=150)
    def test_parse(self, value):
        text = scalar_to_string(value)
        for out in (parse_rational(text), RATIONAL_FIELD.parse(text)):
            assert is_canonical(out) and out == value

    @pytest.mark.parametrize("text, expected", [("6/3", 2), ("-4/2", -2), ("0/5", 0), ("7", 7), ("2/4", Fraction(1, 2))])
    def test_parse_cases(self, text, expected):
        out = parse_rational(text)
        assert out == expected and type(out) is type(expected)


SEQUENCES = {
    "classical": (classical, "classical"),
    "q=2": (lambda: q_numeric(2), "q-numeric"),
    "q=-1/3": (lambda: q_numeric(Fraction(-1, 3)), "q-numeric"),
    "fibonomial": (fibonomial, "fibonomial"),
    # odd integers: their binomials are not all integral
    "custom": (lambda: custom([2 * k - 1 for k in range(1, 41)]), "custom"),
}

POINTS = (2, 1, Fraction(-1, 2), Fraction(-3, 2), 0)


def assert_memos_rational(seq):
    assert all(is_canonical(v) for v in seq._ints.values())
    assert all(is_rational(v) for v in seq._facts.values())
    assert all(is_canonical(v) for v in seq._binoms.values())
    if seq.triangle is not None:
        assert all(is_rational(v) for row in seq.triangle._rows for v in row)
        assert all(is_rational(v) for v in seq.triangle._powers.values())


def assert_operator_rational(op):
    for base, triangle in op._triangles.items():
        assert is_canonical(base) and triangle.base is base
        assert all(is_rational(v) for row in triangle._rows for v in row)
        assert all(is_rational(v) for v in triangle._powers.values())


def assert_entries_rational(matrix):
    assert all(is_rational(v) for row in matrix.rows for v in row)


@pytest.mark.parametrize("name", list(SEQUENCES))
class TestQuickChecksStayRational:
    def test_every_quick_check(self, name):
        make, family = SEQUENCES[name]
        seq = make()
        checked = 0
        for spec in list_identities():
            if family not in spec.families:
                continue
            key = spec.param_keys[0]
            if key == "sequence":
                run_identity(spec.id, {"sequence": seq, **spec.quick})
            else:
                op = qhat_ratio(seq)
                run_identity(spec.id, {"operator": op, **spec.quick})
                assert_operator_rational(op)
            assert_memos_rational(seq)
            checked += 1
        assert checked >= 10

    def test_k_pascal_and_exponential(self, name):
        seq = SEQUENCES[name][0]()
        n = 8
        k = k_matrix(seq, n)
        assert all(is_canonical(v) for row in k.rows for v in row)
        for x in POINTS:
            closed = pascal_closed(seq, n, x)
            series = psi_exp_nilpotent(seq, k, x)
            assert_entries_rational(closed)
            assert_entries_rational(series)
            assert series == closed
        assert_memos_rational(seq)


@pytest.mark.parametrize("base", [2, Fraction(-1, 3)])
def test_power_operators(base):
    op = qhat_power(base)
    assert run_identity("eq8", {"operator": op, "i": 4, "j": 4, "m": 6}).passed
    assert_operator_rational(op)
