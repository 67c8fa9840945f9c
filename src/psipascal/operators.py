"""Diagonal mutator operators on polynomials and their operator-valued binomials.

Every operator here is diagonal in the monomial basis: it multiplies x^m by
an eigenvalue L(m).  Operator-valued integers, factorials and binomials are
therefore diagonal as well, and any identity between them reduces to a
family of scalar identities, one per degree.  That reduction is what the
Cauchy check below exploits.  The identity at degree m depends on m only
through its eigenvalue L(m), so degrees with equal eigenvalues are one
identity; the eq8 sweep checks it once.  Each operator keeps one
``PascalTriangle`` of binomial eigenvalues per distinct eigenvalue, shared
by every degree with that eigenvalue, and the check is that triangle's
weighted Cauchy sum, the one eq9 and eq10 use.

Two eigenvalue conventions ship, because they genuinely differ:

* the ratio convention, built from a sequence:  L(n) = ((n+1)_psi - 1) / n_psi
  for n >= 1, with L(0) = 1 by convention (the defining ratio is 0/0 there);
* the power convention, built from a base scalar:  L(m) = base^m.

For the symbolic q sequence the ratio convention yields the constant q, so
its operator binomials coincide with the scalar q-binomials at every
positive degree; that coincidence is special to the q case.
"""

from __future__ import annotations

from typing import Callable

from .report import IdentityReport, first_difference
from .scalars import Scalar, ScalarField, ScalarParseError, divide, field_of, scalar_to_string
from .sequences import AdmissibleSequence, PascalTriangle, from_selector

__all__ = [
    "DiagOperator",
    "qhat_ratio",
    "qhat_power",
    "operator_from_selector",
    "check_operator_cauchy",
]


class DiagOperator:
    """An operator acting on x^m as multiplication by the eigenvalue L(m)."""

    def __init__(self, selector: str, field: ScalarField, eigen_fn: Callable[[int], Scalar]):
        self.selector = selector
        self.field = field
        self._eigen_fn = eigen_fn
        self._triangles: dict[Scalar, PascalTriangle] = {}  # one per distinct eigenvalue
        self._degrees: dict[int, PascalTriangle] = {}  # degree m -> the triangle at L(m)

    def triangle(self, m: int) -> PascalTriangle:
        """The Pascal triangle at base L(m), shared by every degree with that eigenvalue."""
        triangle = self._degrees.get(m)
        if triangle is None:
            if m < 0:
                raise ValueError("degrees are >= 0")
            base = self.field.coerce(self._eigen_fn(m))
            triangle = self._degrees[m] = self._triangles.setdefault(base, PascalTriangle(base, self.field))
        return triangle

    def eigenvalue(self, m: int) -> Scalar:
        """L(m), the base of the triangle at degree m."""
        return self.triangle(m).base

    def eigenvalue_power(self, m: int, e: int) -> Scalar:
        """L(m)^e, cached by the triangle at degree m."""
        return self.triangle(m).power(e)

    def integer_eigenvalue(self, n: int, m: int) -> Scalar:
        """Eigenvalue on x^m of the operator integer, the geometric sum over L(m).

        The sum form 1 + L + ... + L^(n-1) stays exact at L(m) = 1, where the
        quotient (1 - L^n)/(1 - L) would be singular.
        """
        if n < 0:
            raise ValueError("operator integers need n >= 0")
        total = self.field.zero
        for t in range(n):
            total = total + self.eigenvalue_power(m, t)
        return total

    def factorial_eigenvalue(self, n: int, m: int) -> Scalar:
        value = self.field.one
        for t in range(1, n + 1):
            value = value * self.integer_eigenvalue(t, m)
        return value

    def binomial_eigenvalue(self, n: int, k: int, m: int) -> Scalar:
        """Eigenvalue on x^m of the operator binomial: the Pascal rule at base L(m).

        This agrees with the factorial ratio whenever the factorial
        eigenvalues are nonzero and stays defined when they vanish (roots of
        unity).
        """
        return self.triangle(m).binomial(n, k)

    def apply(self, poly):
        """Diagonal action on a polynomial: coefficient at degree m scales by L(m)."""
        from .polynomials import Polynomial

        out = [poly.coefficient(m) * self.eigenvalue(m) for m in range(poly.degree + 1)]
        return Polynomial(out, poly.field.join(self.field))

    def __repr__(self):
        return f"<DiagOperator {self.selector!r}>"


def qhat_ratio(seq: AdmissibleSequence) -> DiagOperator:
    """The mutator defined by successive-integer ratios of a sequence.

    L(n) = ((n+1)_psi - 1) / n_psi for n >= 1; L(0) = 1 by convention, since
    the ratio degenerates to 0/0 at n = 0.
    """

    def eigen(m: int) -> Scalar:
        if m == 0:
            return seq.field.one
        return divide(seq.integer(m + 1) - 1, seq.integer(m))

    return DiagOperator(f"qhat-paper:{seq.selector}", seq.field, eigen)


def qhat_power(base) -> DiagOperator:
    """The mutator multiplying x^m by base^m."""
    field = field_of(base)
    selector = "qhat-power:q" if field.symbolic else f"qhat-power:q={scalar_to_string(base)}"
    return DiagOperator(selector, field, lambda m: base ** m)


def operator_from_selector(text: str) -> DiagOperator:
    """Selectors: "qhat-paper:<sequence selector>", "qhat-power:q", "qhat-power:q=<rational>"."""
    selector = text.strip()
    kind, colon, rest = selector.partition(":")
    if kind + colon not in ("qhat-paper:", "qhat-power:"):
        raise ValueError(
            f"unknown operator selector {text!r}; expected 'qhat-paper:<sequence>' or 'qhat-power:q[=r]'"
        )
    try:
        seq = from_selector(rest)
    except ScalarParseError as exc:
        # the offset counts from the selector's first character
        raise ScalarParseError(exc.message, len(selector) - len(rest.lstrip()) + exc.position) from None
    if kind == "qhat-paper":
        return qhat_ratio(seq)
    if seq.triangle is None:
        raise ValueError(f"operator selector {text!r} needs a q base, got {rest!r}")
    return qhat_power(seq.triangle.base)


def check_operator_cauchy(op: DiagOperator, i: int, j: int, m: int) -> IdentityReport:
    """Cauchy convolution for operator binomials, evaluated on the monomial x^m.

    With b = L(m) the check is
    sum_k b^((i-k)(j-k)) B(i, k) B(j, k) = B(i+j, j), all at base b: the
    weighted Cauchy sum of the triangle at b, at (r, s, j) = (i, j, j).
    """
    params = {"operator": op.selector, "i": str(i), "j": str(j), "m": str(m)}
    triangle = op.triangle(m)
    lhs = triangle.weighted_cauchy(triangle.binomial, i, j, j)
    return first_difference("eq8", params, [((i, j, m), lhs, op.binomial_eigenvalue(i + j, j, m), None)])
