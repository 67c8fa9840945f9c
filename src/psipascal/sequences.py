"""Admissible sequences of generalized integers.

An admissible sequence assigns to every n >= 1 a nonzero scalar, its
generalized integer.  Factorials, binomials and falling factorials are
derived from those integers exactly as in the classical case, with the
empty product equal to one.  One method, ``binomial_sum``, forms the
binomial convolution sum_k binomial(n, k) a_k b_(n-k) behind the product
law, and one helper, ``powers``, every list of powers.  Built-in sequences:

* ``classical``   n            (ordinary integers, over the rationals)
* ``q``           1+q+...+q^(n-1)   (symbolic q-analog integers)
* ``q=<r>``       the same with q specialized to a rational r
* ``fibonomial``  F_n with F_1 = F_2 = 1

Instances memoize integers, factorials and binomials.  The caches are pure:
concurrent readers always observe the same values.  Admissibility (every
integer nonzero) is checked lazily on first access and fails loudly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .scalars import (
    RATIONAL_FIELD,
    RATIONAL_FUNCTION_FIELD,
    RationalFunction,
    Scalar,
    ScalarField,
    ScalarParseError,
    infer_field,
    parse_rational,
    parse_scalar,
    scalar_to_string,
)

__all__ = [
    "AdmissibilityError",
    "AdmissibleSequence",
    "NormalityResult",
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
        self.q_scalar = q_scalar
        self._int_fn = int_fn
        self._ints: dict[int, Scalar] = {}
        self._facts: dict[int, Scalar] = {0: field.one}
        self._binoms: dict[tuple[int, int], Scalar] = {}

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
        """Generalized binomial; zero outside 0 <= k <= n, symmetric in k and n-k."""
        if k < 0 or k > n:
            return self.field.zero
        key = (n, min(k, n - k))
        value = self._binoms.get(key)
        if value is None:
            value = self.factorial(n) / (self.factorial(key[1]) * self.factorial(n - key[1]))
            self._binoms[key] = value
        return value

    def binomial_row(self, n: int) -> tuple[Scalar, ...]:
        return tuple(self.binomial(n, k) for k in range(n + 1))

    def falling_factorial(self, n: int, k: int) -> Scalar:
        """Product n_psi (n-1)_psi ... (n-k+1)_psi; requires k <= n (or k = 0)."""
        if k < 0:
            raise ValueError(f"falling factorial needs k >= 0, got {k}")
        if k == 0:
            return self.field.one
        if k > n:
            raise ValueError(
                f"falling factorial ({n}, {k}) would reach a non-positive index"
            )
        value = self.field.one
        for m in range(n, n - k, -1):
            value = value * self.integer(m)
        return value

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
        lambda n: Fraction(n),
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
    classical values.  Roots of unity make some integer vanish; that is
    reported as an admissibility error on first use.
    """
    q0 = Fraction(q0)
    return AdmissibleSequence(
        f"q={q0}",
        RATIONAL_FIELD,
        lambda n: sum(powers(q0, n), Fraction(0)),
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
        lambda n: Fraction(_fibonacci(n)),
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
        return q_numeric(parse_rational(selector[2:]))
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
