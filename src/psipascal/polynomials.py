"""Dense univariate polynomials and the generalized calculus acting on them.

The three operators here are defined degreewise from a sequence's integers:
the lowering derivative D x^n = n_psi x^(n-1), the shift exp_psi(y D) (a
finite sum, since D is nilpotent on polynomials), and the generalized
binomial power (x +psi y)^n, which is a scalar-valued expansion rather than
a binary operation on scalars.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .report import IdentityReport, first_difference
from .scalars import (
    RATIONAL_FIELD,
    Scalar,
    ScalarField,
    divide,
    infer_field,
    scalar_to_string,
)
from .sequences import AdmissibleSequence, powers

__all__ = [
    "Polynomial",
    "psi_derivative",
    "psi_shift",
    "psi_plus_power",
    "check_sheffer_basic",
    "check_odd_cancellation",
]


class Polynomial:
    """Immutable dense polynomial with exact scalar coefficients, ascending order."""

    __slots__ = ("_coeffs", "_field")

    def __init__(self, coefficients: Iterable = (), field: Optional[ScalarField] = None):
        raw = list(coefficients)
        fld = infer_field(raw, field)
        coerced = [fld.coerce(c) for c in raw]
        while coerced and not coerced[-1]:
            coerced.pop()
        self._coeffs = tuple(coerced)
        self._field = fld

    @classmethod
    def zero(cls, field: ScalarField = RATIONAL_FIELD) -> "Polynomial":
        return cls((), field)

    @classmethod
    def monomial(cls, degree: int, field: ScalarField = RATIONAL_FIELD, coefficient=1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((field.zero,) * degree + (coefficient,), field)

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def field(self) -> ScalarField:
        return self._field

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return self._field.zero

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        big, small = (self._coeffs, other._coeffs)
        if len(big) < len(small):
            big, small = small, big
        out = list(big)
        for i, c in enumerate(small):
            out[i] = out[i] + c
        return Polynomial(out, self._field.join(other._field))

    def scale(self, value) -> "Polynomial":
        return Polynomial(tuple(c * value for c in self._coeffs))

    def __call__(self, point) -> Scalar:
        acc = self._field.zero
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self._coeffs) != len(other._coeffs):
            return False
        return all(a == b for a, b in zip(self._coeffs, other._coeffs))

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            rendered = scalar_to_string(c)
            if k == 0:
                parts.append(rendered)
            elif k == 1:
                parts.append(f"{rendered}*x")
            else:
                parts.append(f"{rendered}*x^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


def psi_derivative(seq: AdmissibleSequence, p: Polynomial) -> Polynomial:
    """The lowering derivative: x^n maps to n_psi x^(n-1), constants to zero."""
    if p.degree < 1:
        return Polynomial((), p.field.join(seq.field))
    out = [p.coefficient(i) * seq.integer(i) for i in range(1, p.degree + 1)]
    return Polynomial(out, p.field.join(seq.field))


def psi_shift(seq: AdmissibleSequence, p: Polynomial, y) -> Polynomial:
    """Apply the generalized shift exp_psi(y D) to p.

    The sum terminates because the derivative is nilpotent on polynomials.
    On a monomial x^n the coefficient of x^k comes out as
    binomial(n, k) * y^(n-k).
    """
    result = p
    derivative = p
    y_powers = powers(y, p.degree + 1)
    for k in range(1, p.degree + 1):
        derivative = psi_derivative(seq, derivative)
        result = result + derivative.scale(divide(y_powers[k], seq.factorial(k)))
    return result


def psi_plus_power(seq: AdmissibleSequence, x, y, n: int):
    """The generalized binomial power: sum of binomial(n,k) x^k y^(n-k).

    This is the only meaning the symbol (x +psi y) carries; there is no
    underlying binary operation on scalars inducing it.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    return seq.binomial_sum(n, powers(x, n + 1), powers(y, n + 1))


def check_sheffer_basic(seq: AdmissibleSequence, n: int, x, y) -> IdentityReport:
    """Expand (x +psi y)^n three ways and require exact agreement.

    Route one is the generalized power itself, route two the explicit
    binomial sum with the roles of x and y exchanged, route three the shift
    operator applied to the monomial x^n and evaluated at x.  Agreement ties
    the binomials, the power expansion and the shift operator together.
    """
    params = {
        "sequence": seq.selector,
        "n": str(n),
        "x": scalar_to_string(x),
        "y": scalar_to_string(y),
    }
    direct = psi_plus_power(seq, x, y, n)
    # powers by ``**``, independent of route one's power list
    expanded = seq.binomial_sum(n, [y ** k for k in range(n + 1)], [x ** k for k in range(n + 1)])

    def routes():
        yield (n,), direct, expanded, None
        # the shift route runs only once route two agrees
        yield (n,), direct, psi_shift(seq, Polynomial.monomial(n, seq.field), y)(x), "shift route"

    return first_difference("eq11-basic", params, routes())


def check_odd_cancellation(seq: AdmissibleSequence, a, max_k: int) -> IdentityReport:
    """Verify (a +psi (-a))^(2k+1) = 0 for k = 0 .. max_k.

    Odd powers cancel for every admissible sequence; even powers need not.
    """
    params = {"sequence": seq.selector, "a": scalar_to_string(a), "max_k": str(max_k)}
    return first_difference("odd-cancel", params, (
        ((2 * k + 1,), psi_plus_power(seq, a, -a, 2 * k + 1), 0, None) for k in range(max_k + 1)
    ))
