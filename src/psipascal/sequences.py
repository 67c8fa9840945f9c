"""Admissible sequences of generalized integers.

An admissible sequence assigns to every n >= 1 a nonzero scalar, its
generalized integer.  Factorials and binomials are derived from those
integers exactly as in the classical case, with the empty product equal
to one.  The binomials are not factorial quotients: each comes from its
neighbour on the diagonal by the ratio rule
binomial(n, k) = binomial(n-1, k-1) * n_psi / k_psi, one product and one
exact division by the small k_psi (``scalars.divide``, which keeps an
integral quotient an ``int``), so no factorial is ever divided and the
factorial memo is a route of its own.  One method, ``binomial_sum``,
forms the binomial convolution sum_k binomial(n, k) a_k b_(n-k) behind
the product law, and one helper, ``powers``, every list of powers.

The Gaussian binomials at a base b have a second, independent route: the
division-free q-Pascal rule B(n, k) = B(n-1, k-1) + b^k B(n-1, k) of a
``PascalTriangle``.  It stays defined where the ratio rule divides by zero
(roots of unity).  Each q sequence holds the triangle at its own q; the
q-hat operators hold one per distinct eigenvalue.  The triangle's
``weighted_cauchy`` is the one weighted Cauchy sum behind eq8, eq9 and
eq10; the right side B(r+s, j) of eq9/eq10 is read from the triangle, the
left side's terms from the ratio-rule memo.  At a base q^m of Q(q) every
weight is a unit monomial, so the sum is accumulated in one coefficient
list (``scalars._paccumulate``) instead of building a shifted term, a
product and a partial sum per k; any other base, or a weight that is not a
unit monomial, takes the term-by-term loop.

Built-in sequences:

* ``classical``   n            (ordinary integers, over the rationals)
* ``q``           1+q+...+q^(n-1)   (symbolic q-analog integers)
* ``q=<r>``       the same with q specialized to a rational r
* ``fibonomial``  F_n with F_1 = F_2 = 1

Instances memoize integers, factorials and binomials.  The caches are pure:
concurrent readers always observe the same values.  Admissibility (every
integer nonzero) is checked lazily on first access and fails loudly.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .scalars import (
    RATIONAL_FIELD,
    RATIONAL_FUNCTION_FIELD,
    RationalFunction,
    Scalar,
    ScalarField,
    ScalarParseError,
    _unit_weighted_sum,
    divide,
    infer_field,
    parse_rational,
    parse_scalar,
    scalar_to_string,
)

__all__ = [
    "AdmissibilityError",
    "AdmissibleSequence",
    "NormalityResult",
    "PascalTriangle",
    "classical",
    "q_symbolic",
    "q_numeric",
    "fibonomial",
    "custom",
    "from_selector",
    "BUILTIN_SELECTORS",
]


class AdmissibilityError(ValueError):
    """A generalized integer that must be nonzero turned out to be zero."""


class NormalityResult(NamedTuple):
    is_normal: bool
    first_failure: Optional[int]
    value: Optional[Scalar]


def powers(x, n: int) -> list:
    """x^0, x^1, ..., x^(n-1), each from the one before; x^0 alone when n < 1."""
    out = [x ** 0]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


class PascalTriangle:
    """Gaussian binomials B(n, k) at one base b, by the q-Pascal rule.

    Row n comes from row n-1 as B(n, k) = B(n-1, k-1) + b^k B(n-1, k), with
    B(n, 0) = B(n, n) = 1: sums and products only, so every b is a valid
    base.  The powers b^e are cached, and the rows are extended from the
    last one on demand, so a sweep that raises n step by step computes every
    row once.
    """

    def __init__(self, base: Scalar, field: ScalarField):
        self.base = base
        self.field = field
        self._powers: dict[int, Scalar] = {}
        self._rows: list[list[Scalar]] = [[field.one]]

    def power(self, e: int) -> Scalar:
        """b^e, cached; exponents are never negative in the identities here."""
        value = self._powers.get(e)
        if value is None:
            value = self._powers[e] = self.base ** e
        return value

    def binomial(self, n: int, k: int) -> Scalar:
        """B(n, k); zero outside 0 <= k <= n."""
        if k < 0 or k > n:
            return self.field.zero
        rows = self._rows
        if len(rows) <= n:
            # grow a copy and publish it whole: a concurrent caller sees the
            # old rows or the new ones, never a row appended twice
            one, rows = self.field.one, list(rows)
            while len(rows) <= n:
                prev = rows[-1]
                row = [one]
                for c in range(1, len(prev)):
                    row.append(prev[c - 1] + self.power(c) * prev[c])
                row.append(one)
                rows.append(row)
            self._rows = rows
        return rows[n][k]

    def weighted_cauchy(self, binomial: Callable, r: int, s: int, j: int) -> Scalar:
        """sum_k b^((r-k)(j-k)) binomial(r, k) binomial(s, s-j+k), k = max(0, j-s) .. min(r, j).

        The second factor is binomial(s, j-k) by symmetry, read from the other
        end: at s = j it is binomial(j, k), so the sum at r = 1 is not the
        Pascal rule itself.

        Over Q(q), when every weight read from the ``power`` memo is a unit
        monomial q^d and every factor has denominator 1, the terms are added
        into one coefficient list (``scalars._unit_weighted_sum``, which
        calls ``scalars._paccumulate``).  Otherwise (a base in Q, a
        rational-function eigenvalue, a corrupted weight) the terms are added
        in ascending k, starting from zero.  Both routes give the same
        canonical value; the weight is read from the memo, not derived from
        the base, so a corrupted power is seen either way.
        """
        terms = [
            (self.power((r - k) * (j - k)), binomial(r, k), binomial(s, s - j + k))
            for k in range(max(0, j - s), min(r, j) + 1)
        ]
        total = _unit_weighted_sum(terms) if self.field.symbolic else None
        if total is None:
            total = sum((weight * a * c for weight, a, c in terms), self.field.zero)
        return total


class AdmissibleSequence:
    """Generalized integers n_psi plus the factorials and binomials they induce."""

    def __init__(
        self,
        name: str,
        field: ScalarField,
        int_fn: Callable[[int], Scalar],
        *,
        selector: str,
        q_scalar: Optional[Scalar] = None,
    ):
        self.name = name
        self.field = field
        self.selector = selector
        # the q-Pascal rule at the sequence's own q, a route apart from the
        # memo; None for sequences without a q
        self.triangle = None if q_scalar is None else PascalTriangle(q_scalar, field)
        self._int_fn = int_fn
        self._ints: dict[int, Scalar] = {}
        self._facts: dict[int, Scalar] = {0: field.one}
        self._binoms: dict[tuple[int, int], Scalar] = {}
        # the integers 1 .. _checked are known to be nonzero
        self._checked = 0

    def integer(self, n: int) -> Scalar:
        """The generalized integer n_psi, defined and nonzero for n >= 1."""
        if n < 1:
            raise ValueError(f"generalized integers are defined for n >= 1, got {n}")
        value = self._ints.get(n)
        if value is None:
            value = self.field.coerce(self._int_fn(n))
            if not value:
                raise AdmissibilityError(
                    f"sequence {self.name!r} is not admissible: integer at n = {n} is zero"
                )
            self._ints[n] = value
        return value

    def check_integers(self, n: int):
        """Check the integers 1 .. n in ascending order, each once per sequence.

        A vanishing integer is reported at the smallest n, as the factorials
        report it.
        """
        for m in range(self._checked + 1, n + 1):
            self.integer(m)
            self._checked = m

    def factorial(self, n: int) -> Scalar:
        """Product of the generalized integers n, n-1, ..., 1; one for n = 0."""
        if n < 0:
            raise ValueError(f"factorial needs n >= 0, got {n}")
        cached = self._facts.get(n)
        if cached is not None:
            return cached
        top = max(self._facts)
        value = self._facts[top]
        for m in range(top + 1, n + 1):
            value = value * self.integer(m)
            self._facts[m] = value
        return value

    def binomial(self, n: int, k: int) -> Scalar:
        """Generalized binomial; zero outside 0 <= k <= n, symmetric in k and n-k.

        Built by the ratio rule binomial(r+s, s) = binomial(r+s-1, s-1) *
        (r+s)_psi / s_psi, divided by the one exact ``scalars.divide``: the
        walk goes down the diagonal of fixed r to the nearest cached entry
        (or to binomial(r, 0) = 1), then back up, caching each step.  The
        integers 1 .. n are first checked by ``check_integers``.
        """
        if k < 0 or k > n:
            return self.field.zero
        s = min(k, n - k)
        value = self._binoms.get((n, s))
        if value is not None:
            return value
        # every cached entry has its integers checked: the walk caches
        # entries of rows up to n only
        self.check_integers(n)
        r, binoms, ints, t = n - s, self._binoms, self._ints, s
        while t and (r + t, t) not in binoms:
            t -= 1
        value = binoms[(r + t, t)] if t else self.field.one
        for t in range(t + 1, s + 1):
            value = divide(value * ints[r + t], ints[t])
            binoms[(r + t, t)] = value
        return value

    def binomial_row(self, n: int) -> tuple[Scalar, ...]:
        return tuple(self.binomial(n, k) for k in range(n + 1))

    def binomial_sum(self, n: int, a: Sequence, b: Sequence) -> Scalar:
        """The binomial convolution sum of binomial(n, k) a[k] b[n-k], k = 0 .. n.

        Terms are added in ascending k, starting from zero.
        """
        total = self.field.zero
        for k in range(n + 1):
            total = total + self.binomial(n, k) * a[k] * b[n - k]
        return total

    def is_normal_up_to(self, upper: int) -> NormalityResult:
        """Check that alternating binomial sums vanish for every 1 <= n <= upper.

        On failure reports the smallest failing n together with the nonzero sum.
        """
        signs, ones = powers(-1, upper + 1), [1] * (upper + 1)
        for n in range(1, upper + 1):
            total = self.binomial_sum(n, signs, ones)
            if total != 0:
                return NormalityResult(False, n, total)
        return NormalityResult(True, None, None)

    def __repr__(self):
        return f"<AdmissibleSequence {self.selector!r} over {self.field.name}>"


# ---------------------------------------------------------------------------
# built-in sequences
# ---------------------------------------------------------------------------


def classical() -> AdmissibleSequence:
    """The ordinary integers: the sequence every generalization specializes from."""
    return AdmissibleSequence(
        "classical",
        RATIONAL_FIELD,
        lambda n: n,
        selector="classical",
    )


def q_symbolic() -> AdmissibleSequence:
    """Symbolic q-analog integers 1 + q + ... + q^(n-1) in the field Q(q)."""
    return AdmissibleSequence(
        "q-symbolic",
        RATIONAL_FUNCTION_FIELD,
        lambda n: RationalFunction.from_coefficients((1,) * n),
        selector="q",
        q_scalar=RationalFunction.generator(),
    )


def q_numeric(q0) -> AdmissibleSequence:
    """q-analog integers with q specialized to a rational number.

    The integer is computed as the geometric sum, so q0 = 1 simply gives the
    classical values; an integral q0 is held as an ``int``, so its integers
    are ints too.  Anything else the rational field refuses, such as a
    float or a string, raises ``FieldMismatchError``.  Roots of unity make
    some integer vanish; that is reported as an admissibility error on
    first use.
    """
    q0 = RATIONAL_FIELD.coerce(q0)
    return AdmissibleSequence(
        f"q={q0}",
        RATIONAL_FIELD,
        lambda n: sum(powers(q0, n)),
        selector=f"q={q0}",
        q_scalar=q0,
    )


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonomial() -> AdmissibleSequence:
    """Fibonacci integers F_n (F_1 = F_2 = 1); their binomials are the Fibonomials."""
    return AdmissibleSequence(
        "fibonomial",
        RATIONAL_FIELD,
        _fibonacci,
        selector="fibonomial",
    )


def custom(entries: Sequence) -> AdmissibleSequence:
    """A finite user-supplied list of integers for n = 1 .. len(entries).

    Every entry must be nonzero; a zero entry is rejected immediately with
    its position.  Queries past the end of the list are errors.
    """
    if not entries:
        raise AdmissibilityError("custom sequence needs at least one entry")
    field = infer_field(entries)
    values = []
    for index, entry in enumerate(entries):
        value = field.coerce(entry)
        if not value:
            raise AdmissibilityError(f"custom sequence entry {index + 1} is zero")
        values.append(value)

    def int_fn(n: int) -> Scalar:
        if n > len(values):
            raise AdmissibilityError(
                f"custom sequence defines integers only up to n = {len(values)}"
            )
        return values[n - 1]

    selector = "custom:" + ",".join(scalar_to_string(v) for v in values)
    return AdmissibleSequence("custom", field, int_fn, selector=selector)


BUILTIN_SELECTORS = ("classical", "q", "q=<rational>", "fibonomial", "custom:<scalars>")


def from_selector(text: str) -> AdmissibleSequence:
    """Build a sequence from its selector string.

    Selectors: "classical", "q", "q=<rational>", "fibonomial",
    "custom:<comma-separated scalars>".
    """
    selector = text.strip()
    if selector == "classical":
        return classical()
    if selector == "q":
        return q_symbolic()
    if selector.startswith("q="):
        try:
            return q_numeric(parse_rational(selector[2:]))
        except ScalarParseError as exc:
            # the offset counts from the selector's first character
            raise ScalarParseError(exc.message, 2 + exc.position) from None
    if selector == "fibonomial":
        return fibonomial()
    if selector.startswith("custom:"):
        entries, start = [], len("custom:")
        for index, part in enumerate(selector[start:].split(",")):
            text = part.strip()
            try:
                entries.append(parse_scalar(text, RATIONAL_FIELD))
            except ScalarParseError as exc:
                # the offset counts from the selector's first character
                offset = start + part.index(text) + exc.position
                message = f"custom sequence entry {index + 1}: {exc.message}"
                raise ScalarParseError(message, offset) from None
            start += len(part) + 1
        return custom(entries)
    raise ValueError(
        f"unknown sequence selector {text!r}; expected one of {', '.join(BUILTIN_SELECTORS)}"
    )
