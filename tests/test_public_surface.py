"""The public surface: every exported name and the version, pinned.

A name cut from or added to ``psipascal.__all__`` shows here as a diff of
the literal list below, and a name removed in 0.2.0 that comes back fails
``test_removed_in_0_2_0``.
"""

import types

import pytest

import psipascal
from psipascal import Polynomial, RationalFunction

EXPORTED = [
    "AdmissibilityError",
    "AdmissibleSequence",
    "Counterexample",
    "DiagOperator",
    "EXPECTED_FAIL",
    "FieldMismatchError",
    "INFORMATIVE",
    "IdentityReport",
    "IdentitySpec",
    "InvalidParamsError",
    "LowerTriMatrix",
    "MUST_PASS",
    "MatrixDocument",
    "NormalityResult",
    "PoleError",
    "Polynomial",
    "RATIONAL_FIELD",
    "RATIONAL_FUNCTION_FIELD",
    "Rational",
    "RationalFunction",
    "Scalar",
    "ScalarField",
    "ScalarParseError",
    "SquareMatrix",
    "SuiteEntry",
    "SuiteResult",
    "UnknownIdentityError",
    "binom_convolve",
    "check_cauchy_vandermonde",
    "check_exp_vs_closed",
    "check_nilpotency",
    "check_odd_cancellation",
    "check_operator_cauchy",
    "check_product_identity",
    "check_semigroup",
    "check_sheffer_basic",
    "check_transpose_fermat",
    "check_weighted_cauchy",
    "classical",
    "custom",
    "fermat",
    "fibonomial",
    "field_of",
    "from_selector",
    "k_matrix",
    "list_identities",
    "matmul",
    "matrix_document",
    "matrix_to_latex",
    "operator_from_selector",
    "parse_rational",
    "parse_rational_function",
    "parse_scalar",
    "pascal_closed",
    "psi_derivative",
    "psi_exp_nilpotent",
    "psi_plus_power",
    "psi_shift",
    "q",
    "q_numeric",
    "q_symbolic",
    "qhat_power",
    "qhat_ratio",
    "run_identity",
    "run_suite",
    "scalar_to_latex",
    "scalar_to_string",
]


def test_exported_names():
    names = [n for n in psipascal.__all__ if not isinstance(getattr(psipascal, n), types.ModuleType)]
    assert sorted(names) == EXPORTED


def test_version():
    assert psipascal.__version__ == "0.2.0"


@pytest.mark.parametrize("owner, name", [
    (psipascal, "GeneralizedPascal"),
    (Polynomial, "one"),
    (Polynomial, "__hash__"),
    (RationalFunction, "__pos__"),
])
def test_removed_in_0_2_0(owner, name):
    # a class with __eq__ and no __hash__ of its own has __hash__ = None
    assert getattr(owner, name, None) is None
