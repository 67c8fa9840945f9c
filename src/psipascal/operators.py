"""Diagonal mutator operators on polynomials and their operator-valued binomials.

Every operator here is diagonal in the monomial basis: it multiplies x^m by
an eigenvalue L(m).  Operator-valued integers, factorials and binomials are
therefore diagonal as well, and any identity between them reduces to a
family of scalar identities, one per degree.  That reduction is what the
Cauchy check below exploits.  The identity at degree m depends on m only
through its eigenvalue L(m), so degrees with equal eigenvalues are one
identity; the eq8 sweep checks it once.  Each operator keeps one Pascal
triangle of binomial eigenvalues per degree and grows it one row at a time,
so a sweep that raises n step by step computes every row once.

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

from .report import IdentityReport, failing, passing
from .scalars import Scalar, ScalarField, field_of, scalar_to_string
from .sequences import AdmissibleSequence, from_selector

__all__ = [
    "DiagOperator",
    "qhat_ratio",
    "qhat_power",
    "operator_from_selector",
    "check_operator_cauchy",
]


class DiagOperator:
    """An operator acting on x^m as multiplication by the eigenvalue L(m)."""

    def __init__(self, name: str, selector: str, field: ScalarField, eigen_fn: Callable[[int], Scalar]):
        self.name = name
        self.selector = selector
        self.field = field
        self._eigen_fn = eigen_fn
        self._eigs: dict[int, Scalar] = {}
        self._powers: dict[tuple[int, int], Scalar] = {}
        self._rows: dict[int, list[list[Scalar]]] = {}  # degree m -> rows 0..n

    def eigenvalue(self, m: int) -> Scalar:
        if m < 0:
            raise ValueError("degrees are >= 0")
        value = self._eigs.get(m)
        if value is None:
            value = self.field.coerce(self._eigen_fn(m))
            self._eigs[m] = value
        return value

    def eigenvalue_power(self, m: int, e: int) -> Scalar:
        """L(m)^e, cached; exponents are never negative in the identities here."""
        if e < 0:
            raise ValueError("exponents are >= 0")
        value = self._powers.get((m, e))
        if value is None:
            value = self.eigenvalue(m) ** e
            self._powers[(m, e)] = value
        return value

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
        """Eigenvalue on x^m of the operator binomial.

        Computed with the division-free Pascal recurrence at base b = L(m):
        B(n, k) = B(n-1, k-1) + b^k B(n-1, k), B(n, 0) = 1.  This agrees with
        the factorial ratio whenever the factorial eigenvalues are nonzero
        and stays defined when they vanish (roots of unity).  The rows for
        degree m form one triangle, extended from its last row up to row n
        on demand.
        """
        if k < 0 or k > n:
            return self.field.zero
        rows = self._rows.get(m)
        if rows is None or len(rows) <= n:
            # grow a copy and publish it whole: a concurrent caller sees the
            # old rows or the new ones, never a row appended twice
            one = self.field.one
            rows = list(rows or [[one]])
            while len(rows) <= n:
                prev = rows[-1]
                row = [one]
                for c in range(1, len(prev)):
                    row.append(prev[c - 1] + self.eigenvalue_power(m, c) * prev[c])
                row.append(one)
                rows.append(row)
            self._rows[m] = rows
        return rows[n][k]

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
        return (seq.integer(m + 1) - 1) / seq.integer(m)

    return DiagOperator(
        f"ratio mutator of {seq.name}", f"qhat-paper:{seq.selector}", seq.field, eigen
    )


def qhat_power(base) -> DiagOperator:
    """The mutator multiplying x^m by base^m."""
    field = field_of(base)
    selector = "qhat-power:q" if field.symbolic else f"qhat-power:q={scalar_to_string(base)}"
    return DiagOperator(f"power mutator base {scalar_to_string(base)}", selector, field, lambda m: base ** m)


def operator_from_selector(text: str) -> DiagOperator:
    """Selectors: "qhat-paper:<sequence selector>", "qhat-power:q", "qhat-power:q=<rational>"."""
    selector = text.strip()
    if selector.startswith("qhat-paper:"):
        return qhat_ratio(from_selector(selector[len("qhat-paper:") :]))
    if selector.startswith("qhat-power:"):
        rest = selector[len("qhat-power:") :]
        seq = from_selector(rest)
        if seq.q_scalar is None:
            raise ValueError(f"operator selector {text!r} needs a q base, got {rest!r}")
        return qhat_power(seq.q_scalar)
    raise ValueError(
        f"unknown operator selector {text!r}; expected 'qhat-paper:<sequence>' or 'qhat-power:q[=r]'"
    )


def check_operator_cauchy(op: DiagOperator, i: int, j: int, m: int) -> IdentityReport:
    """Cauchy convolution for operator binomials, evaluated on the monomial x^m.

    With b = L(m) the check is
    sum_k b^((i-k)(j-k)) B(i, k) B(j, k) = B(i+j, j), all at base b.
    """
    params = {"operator": op.selector, "i": str(i), "j": str(j), "m": str(m)}
    lhs = op.field.zero
    for k in range(min(i, j) + 1):
        weight = op.eigenvalue_power(m, (i - k) * (j - k))
        lhs = lhs + weight * op.binomial_eigenvalue(i, k, m) * op.binomial_eigenvalue(j, k, m)
    rhs = op.binomial_eigenvalue(i + j, j, m)
    if lhs != rhs:
        return failing("eq8", params, (i, j, m), scalar_to_string(lhs), scalar_to_string(rhs))
    return passing("eq8", params)
