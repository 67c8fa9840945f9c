"""psipascal: exact Pascal-type matrices over admissible integer sequences.

The library builds the subdiagonal generator K, its nilpotent generalized
exponential P[x] and the symmetric binomial (Fermat) matrix over any
admissible sequence of nonzero generalized integers (classical, symbolic
or numeric q-analogs, Fibonacci, or custom), entirely in exact
arithmetic, and mechanically verifies or refutes the identity families
those matrices generate.
"""

__version__ = "0.2.0"

from .scalars import (
    RATIONAL_FIELD,
    RATIONAL_FUNCTION_FIELD,
    FieldMismatchError,
    PoleError,
    Rational,
    RationalFunction,
    Scalar,
    ScalarField,
    ScalarParseError,
    field_of,
    parse_rational,
    parse_rational_function,
    parse_scalar,
    q,
    scalar_to_latex,
    scalar_to_string,
)
from .sequences import (
    AdmissibilityError,
    AdmissibleSequence,
    NormalityResult,
    classical,
    custom,
    fibonomial,
    from_selector,
    q_numeric,
    q_symbolic,
)
from .polynomials import (
    Polynomial,
    check_odd_cancellation,
    check_sheffer_basic,
    psi_derivative,
    psi_plus_power,
    psi_shift,
)
from .operators import (
    DiagOperator,
    check_operator_cauchy,
    operator_from_selector,
    qhat_power,
    qhat_ratio,
)
from .matrices import (
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
    fermat,
    k_matrix,
    matmul,
    matrix_document,
    matrix_to_latex,
    pascal_closed,
    psi_exp_nilpotent,
)
from .report import Counterexample, IdentityReport
from .engine import (
    EXPECTED_FAIL,
    INFORMATIVE,
    MUST_PASS,
    IdentitySpec,
    InvalidParamsError,
    SuiteEntry,
    SuiteResult,
    UnknownIdentityError,
    list_identities,
    run_identity,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
