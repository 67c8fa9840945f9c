"""Registry of named identities and a deterministic runner.

Every identity has a stable id, a parameter schema and, for each built-in
sequence family, an expected outcome: must-pass, expected-fail, or merely
informative.  Expected failures are first-class findings, not skipped
checks; the suite is healthy only when every must-pass passed AND every
expected-fail actually failed.

Integer parameters (n, i, j, m) are inclusive sweep bounds: a single run of
an identity covers every instance up to those bounds and reports the
lexicographically smallest counterexample.  Reports are byte-stable across
runs: parameters are echoed canonically and wall time never enters the
serialized form.

Each identity is one `IdentitySpec` row of data.  One resolver reads the
parameters of every row, and one loop, `_sweep`, runs every row's instances.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from . import matrices, operators, polynomials
from .report import Counterexample, IdentityReport, passing
from .scalars import MAX_Q_EXPONENT, RATIONAL_FIELD, RATIONAL_FUNCTION_FIELD, RationalFunction, scalar_to_string
from .sequences import AdmissibleSequence, from_selector

__all__ = [
    "MUST_PASS",
    "EXPECTED_FAIL",
    "INFORMATIVE",
    "IdentitySpec",
    "SuiteEntry",
    "SuiteResult",
    "UnknownIdentityError",
    "InvalidParamsError",
    "list_identities",
    "run_identity",
    "run_suite",
    "SUITE_FAMILIES",
]

MUST_PASS = "must-pass"
EXPECTED_FAIL = "expected-fail"
INFORMATIVE = "informative"

# (family, selector) pairs the suite iterates over, in fixed order
SUITE_FAMILIES = (
    ("classical", "classical"),
    ("q-symbolic", "q"),
    ("q-numeric", "q=2"),
    ("fibonomial", "fibonomial"),
)

_ALL_FAMILIES = ("classical", "q-symbolic", "q-numeric", "fibonomial", "custom")
_Q_FAMILIES = ("q-symbolic", "q-numeric")


class UnknownIdentityError(ValueError):
    """The identity id is not registered."""


class InvalidParamsError(ValueError):
    """Parameters do not fit the identity's schema."""


@dataclass(frozen=True)
class IdentitySpec:
    """One registered identity as data: schema, expectations, bounds, instances.

    ``quick`` holds the quick-profile bounds, which are also the defaults of
    the integer parameters, and ``full`` the full-profile bounds;
    ``caps`` holds the largest accepted value of each integer parameter as
    a pair, over Q and over Q(q) (the field of the sequence or operator):
    the largest size measured to end within a minute for the slowest
    built-in family of that field, all capped parameters at once;
    ``full_caps`` lowers the full bounds for single families and
    ``extra_runs`` adds (family, selector) suite entries.  ``instances``
    takes the resolved parameters in schema order and yields the instance
    reports in lexicographic order of their locations.  A ``single``
    identity is one check, so its counterexample needs no instance detail.
    ``n_min`` is the least accepted n.  ``points`` is (echo name, default
    list) when x is a list of points rather than one scalar.
    ``point_power`` maps n to the largest power the identity takes of a
    point x or y; see ``check_point_degree``.
    """

    id: str
    title: str
    param_keys: tuple[str, ...]
    families: tuple[str, ...]
    expected: Mapping[str, str]
    quick: Mapping[str, int]
    full: Mapping[str, int]
    caps: Mapping[str, tuple[int, int]]
    instances: Callable[..., Iterable[IdentityReport]]
    single: bool = False
    n_min: int = 1
    points: tuple = ()
    point_power: Optional[Callable[[int], int]] = None
    full_caps: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    extra_runs: tuple[tuple[str, str], ...] = ()

    def expectation(self, family: str) -> str:
        return self.expected.get(family, INFORMATIVE)


# ---------------------------------------------------------------------------
# parameter handling
# ---------------------------------------------------------------------------

# selector parameters: accepted object type, string parser, hint when the
# parameter is missing, and the prefix the suite puts before a selector
_SELECTORS = {
    "sequence": (AdmissibleSequence, from_selector, "", ""),
    "operator": (
        operators.DiagOperator,
        operators.operator_from_selector,
        " (a qhat-... selector)",
        "qhat-paper:",
    ),
}

# default generic scalar arguments for checks that need points
# (integral values as int, as the rational field holds them)
_DEFAULT_SCALARS = {"x": 2, "y": Fraction(-1, 2)}
_DEFAULT_POINTS = (1, 2, Fraction(-3, 2))


def _selector_param(params: dict, key: str):
    kind, parse, hint, _ = _SELECTORS[key]
    value = params.get(key)
    if value is None:
        raise InvalidParamsError(f"missing parameter {key!r}{hint}")
    if isinstance(value, kind):
        return value
    if isinstance(value, str):
        try:
            return parse(value)
        except ValueError as exc:
            raise InvalidParamsError(str(exc)) from exc
    raise InvalidParamsError(f"{key!r} must be a selector string, got {value!r}")


def _int_param(params: dict, key: str, default: int, minimum: int) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParamsError(f"parameter {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParamsError(f"parameter {key!r} must be >= {minimum}, got {value}")
    return value


def _check_cap(key: str, value: int, caps: tuple, field):
    cap = caps[field.symbolic]
    if value > cap:
        raise InvalidParamsError(f"parameter {key!r} must be <= {cap} over {field.name}, got {value}")


# Budget for a Q(q) point at size n: its degree times the largest power
# the identity takes of it must be at most MAX_Q_EXPONENT // n.  The size
# caps bound n, not the degree of a point, and the work grows with both:
# P[x] at size n holds about n^2/2 entries up to x^(n-1), and each product
# of entries is a polynomial product.  At n = 1 the largest power may be as
# long as the longest monomial q^k the parser accepts.
def check_point_degree(name: str, value, n: int, power: int) -> None:
    """Refuse a point whose largest power at size n is over the degree budget."""
    if not isinstance(value, RationalFunction):
        return
    degree = max(len(value.numerator), len(value.denominator)) - 1
    budget = MAX_Q_EXPONENT // max(n, 1)
    if degree * power > budget:
        raise InvalidParamsError(
            f"parameter {name!r}: degree {degree} in q, raised to the power {power}, "
            f"is above degree {budget} at n = {n}"
        )


def _scalar_param(params: dict, key: str, seq: AdmissibleSequence):
    value = params.get(key)
    if value is None or isinstance(value, RationalFunction):
        return value
    # a bool is an int to Python but no scalar here, as in _int_param
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return RATIONAL_FIELD.coerce(value)
    if isinstance(value, str):
        try:
            return seq.field.parse(value)
        except ValueError as exc:
            raise InvalidParamsError(f"parameter {key!r}: {exc}") from exc
    raise InvalidParamsError(f"parameter {key!r} must be a scalar, got {value!r}")


def _resolve(spec: IdentitySpec, params: dict) -> tuple[list, dict]:
    """Parse the parameters in schema order into values and their canonical echo."""
    values, echo = [], {}
    for key in spec.param_keys:
        if key in _SELECTORS:
            value = _selector_param(params, key)
            text = value.selector
            # identities stated only for the q families need the sequence's q
            if spec.families == _Q_FAMILIES and value.triangle is None:
                raise InvalidParamsError(f"{spec.id} needs a q-analog sequence, got {text!r}")
        elif key in _DEFAULT_SCALARS:
            value = _scalar_param(params, key, values[0])
            # n comes second in every schema with points; a Q(q) point makes
            # the run's arithmetic Q(q), so n takes the Q(q) cap
            if isinstance(value, RationalFunction):
                _check_cap("n", values[1], spec.caps["n"], RATIONAL_FUNCTION_FIELD)
            check_point_degree(key, value, values[1], spec.point_power(values[1]))
            if spec.points:
                # a list of points, echoed under the row's own name
                key, default = spec.points
                value = default if value is None else (value,)
                text = "; ".join(scalar_to_string(v) for v in value)
            else:
                value = _DEFAULT_SCALARS[key] if value is None else value
                text = scalar_to_string(value)
        else:
            minimum = spec.n_min if key == "n" else 0
            value = _int_param(params, key, spec.quick[key], minimum)
            _check_cap(key, value, spec.caps[key], values[0].field)
            text = str(value)
        values.append(value)
        echo[key] = text
    return values, echo


def _sweep(spec: IdentitySpec, instances) -> tuple[bool, Optional[Counterexample]]:
    """Run the instance reports in order; return the first failure, else a pass.

    Instances must be generated in lexicographic order of their location
    tuples so the reported counterexample is the smallest one.  The failing
    instance's own parameters are folded into the counterexample detail so
    the failure can be replayed exactly; a single check's parameters are the
    identity's own, so its counterexample is kept as it is.
    """
    for report in instances:
        if not report.passed:
            ce = report.counterexample
            if ce is not None and ce.detail is None and not spec.single:
                instance = " ".join(f"{k}={v}" for k, v in report.params.items())
                ce = Counterexample(ce.location, ce.lhs, ce.rhs, f"instance {instance}")
            return False, ce
    return True, None


def _check_normality(seq: AdmissibleSequence, n: int) -> IdentityReport:
    """The alternating binomial sums vanish for every size up to n."""
    result = seq.is_normal_up_to(n)
    ce = None
    if not result.is_normal:
        ce = Counterexample((result.first_failure,), scalar_to_string(result.value), "0")
    return IdentityReport("normality", {"sequence": seq.selector, "n": str(n)}, ce is None, ce)


def _operator_cauchy_sweep(op: operators.DiagOperator, i_max: int, j_max: int, m_max: int):
    """eq8 over (i, j, m) in order, checking each (i, j, L(m)) once.

    The instance at degree m depends on m only through its base b = L(m),
    so a degree whose eigenvalue equals that of an earlier degree which
    passed at this (i, j) is the same scalar identity and passes too.
    Eigenvalues are canonical exact scalars, so equal bases hash alike.
    Only passes are reused: a failure ends the sweep.
    """
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            passed_bases = set()
            for m in range(m_max + 1):
                base = op.eigenvalue(m)
                if base in passed_bases:
                    params = {"operator": op.selector, "i": str(i), "j": str(j), "m": str(m)}
                    yield passing("eq8", params)
                    continue
                report = operators.check_operator_cauchy(op, i, j, m)
                if report.passed:
                    passed_bases.add(base)
                yield report


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _mostly(status: str, **overrides) -> dict:
    expected = {family: status for family in _ALL_FAMILIES}
    expected["custom"] = INFORMATIVE
    expected.update(overrides)
    return expected


# checkers are looked up on their module at call time, so a wrapped or
# replaced module attribute is the one that runs
_REGISTRY: tuple[IdentitySpec, ...] = (
    IdentitySpec(
        "eq4",
        "product of unit-argument Pascal matrices equals the generalized-sum form",
        ("sequence", "n"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 6},
        full={"n": 16},
        caps={"n": (192, 64)},
        instances=lambda seq, n: (matrices.check_product_identity(seq, n, "eq4"),),
        single=True,
    ),
    IdentitySpec(
        "eq5",
        "product with negated argument equals the alternating generalized-sum form",
        ("sequence", "n"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 6},
        full={"n": 16},
        caps={"n": (192, 64)},
        instances=lambda seq, n: (matrices.check_product_identity(seq, n, "eq5"),),
        single=True,
    ),
    IdentitySpec(
        "eq6",
        "Pascal times its transpose against the symmetric binomial matrix",
        ("sequence", "n"),
        _ALL_FAMILIES,
        _mostly(EXPECTED_FAIL, classical=MUST_PASS),
        quick={"n": 5},
        full={"n": 10},
        caps={"n": (128, 56)},
        instances=lambda seq, n: (matrices.check_transpose_fermat(seq, n),),
        single=True,
    ),
    IdentitySpec(
        "eq8",
        "operator Cauchy convolution for diagonal mutator binomials, per degree",
        ("operator", "i", "j", "m"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"i": 4, "j": 4, "m": 4},
        full={"i": 8, "j": 8, "m": 10},
        caps={"i": (24, 20), "j": (24, 20), "m": (24, 20)},
        instances=_operator_cauchy_sweep,
        # the power-convention mutator with symbolic base is its own instance
        extra_runs=(("q-symbolic", "qhat-power:q"),),
    ),
    IdentitySpec(
        "eq9",
        "weighted Vandermonde convolution for q-binomials",
        ("sequence", "n"),
        _Q_FAMILIES,
        {family: MUST_PASS for family in _Q_FAMILIES},
        quick={"n": 6},
        full={"n": 12},
        caps={"n": (64, 40)},
        instances=lambda seq, bound: (
            matrices.check_cauchy_vandermonde(seq, r, s, j)
            for r in range(bound + 1)
            for s in range(bound + 1 - r)
            for j in range(r + s + 1)
        ),
        n_min=0,
    ),
    IdentitySpec(
        "eq10",
        "weighted symmetric Cauchy identity for q-binomials",
        ("sequence", "i", "j"),
        _Q_FAMILIES,
        {family: MUST_PASS for family in _Q_FAMILIES},
        quick={"i": 4, "j": 4},
        full={"i": 6, "j": 6},
        caps={"i": (64, 32), "j": (64, 32)},
        instances=lambda seq, i_max, j_max: (
            matrices.check_weighted_cauchy(seq, i, j)
            for i in range(i_max + 1)
            for j in range(j_max + 1)
        ),
    ),
    IdentitySpec(
        "eq11-basic",
        "binomial expansion of the basic monomial sequence, three routes",
        ("sequence", "n", "x", "y"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 6},
        full={"n": 16},
        caps={"n": (256, 56)},
        instances=lambda seq, n_max, x, y: (
            polynomials.check_sheffer_basic(seq, n, x, y) for n in range(n_max + 1)
        ),
        n_min=0,
        point_power=lambda n: n,
    ),
    IdentitySpec(
        "semigroup",
        "two-argument product law for Pascal-type matrices",
        ("sequence", "n", "x", "y"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 6},
        full={"n": 12},
        caps={"n": (192, 56)},
        instances=lambda seq, n, x, y: (matrices.check_semigroup(seq, n, x, y),),
        single=True,
        point_power=lambda n: n - 1,
    ),
    IdentitySpec(
        "exp-vs-closed",
        "nilpotent generalized exponential equals the closed binomial form",
        ("sequence", "n", "x"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 8},
        full={"n": 16},
        caps={"n": (128, 32)},
        instances=lambda seq, n, points: (
            matrices.check_exp_vs_closed(seq, size, x)
            for size in range(1, n + 1)
            for x in points
        ),
        # the generator of Q(q) is a fully generic point for every sequence
        points=("x", (RationalFunction.generator(),) + _DEFAULT_POINTS),
        point_power=lambda n: n - 1,
        # the symbolic exponential sweep is the one check whose full size is capped lower
        full_caps={"q-symbolic": {"n": 10}},
    ),
    IdentitySpec(
        "nilpotent",
        "the subdiagonal generator is nilpotent of exact index n",
        ("sequence", "n"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 8},
        full={"n": 16},
        caps={"n": (256, 64)},
        instances=lambda seq, n: (
            matrices.check_nilpotency(seq, size) for size in range(1, n + 1)
        ),
    ),
    IdentitySpec(
        "odd-cancel",
        "odd generalized powers of (a, -a) vanish",
        ("sequence", "n", "x"),
        _ALL_FAMILIES,
        _mostly(MUST_PASS),
        quick={"n": 4},
        full={"n": 8},
        caps={"n": (192, 56)},
        instances=lambda seq, k_max, points: (
            polynomials.check_odd_cancellation(seq, a, k_max) for a in points
        ),
        n_min=0,
        points=("a", _DEFAULT_POINTS),
        point_power=lambda n: 2 * n + 1,
    ),
    IdentitySpec(
        "normality",
        "alternating binomial sums vanish (normal-sequence classification)",
        ("sequence", "n"),
        _ALL_FAMILIES,
        _mostly(EXPECTED_FAIL, classical=MUST_PASS),
        quick={"n": 12},
        full={"n": 24},
        caps={"n": (1536, 1536)},
        instances=lambda seq, n: (_check_normality(seq, n),),
        single=True,
    ),
)

_BY_ID = {spec.id: spec for spec in _REGISTRY}


def list_identities() -> tuple[IdentitySpec, ...]:
    """All registered identities, in their stable documented order."""
    return _REGISTRY


def run_identity(identity_id: str, params: Optional[dict] = None) -> IdentityReport:
    """Run one identity over the given parameters; deterministic for fixed input.

    Integer parameters are inclusive upper bounds for the sweep.  Omitted
    parameters fall back to the quick-profile defaults.
    """
    spec = _BY_ID.get(identity_id)
    if spec is None:
        known = ", ".join(s.id for s in _REGISTRY)
        raise UnknownIdentityError(f"unknown identity {identity_id!r}; known ids: {known}")
    params = params or {}
    extras = sorted(k for k in params if k not in spec.param_keys)
    if extras:
        raise InvalidParamsError(
            f"identity {identity_id!r} does not take parameter(s) {', '.join(extras)}; "
            f"allowed: {', '.join(spec.param_keys)}"
        )
    start = time.perf_counter()
    values, echo = _resolve(spec, params)
    passed, ce = _sweep(spec, spec.instances(*values))
    return IdentityReport(identity_id, echo, passed, ce, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    report: IdentityReport
    family: str
    expected: str

    @property
    def as_expected(self) -> bool:
        if self.expected == MUST_PASS:
            return self.report.passed
        if self.expected == EXPECTED_FAIL:
            return not self.report.passed
        return True

    def to_json_obj(self) -> dict:
        obj = self.report.to_json_obj()
        obj["family"] = self.family
        obj["expected"] = self.expected
        obj["as_expected"] = self.as_expected
        return obj

    def one_line(self) -> str:
        marker = "ok        " if self.as_expected else "UNEXPECTED"
        return f"[{marker}] expected={self.expected:<13} {self.report.one_line()}"


@dataclass(frozen=True)
class SuiteResult:
    profile: str
    entries: tuple[SuiteEntry, ...]

    @property
    def healthy(self) -> bool:
        return all(entry.as_expected for entry in self.entries)

    def summary(self) -> dict:
        passed = sum(1 for e in self.entries if e.report.passed)
        confirmed_failures = sum(
            1 for e in self.entries if e.expected == EXPECTED_FAIL and not e.report.passed
        )
        unexpected = [
            f"{e.report.identity}:{e.family}" for e in self.entries if not e.as_expected
        ]
        return {
            "profile": self.profile,
            "total": len(self.entries),
            "passed": passed,
            "failed": len(self.entries) - passed,
            "expected_failures_confirmed": confirmed_failures,
            "unexpected": unexpected,
            "healthy": self.healthy,
        }

    def to_json_lines(self) -> str:
        lines = [json.dumps(e.to_json_obj(), separators=(",", ":")) for e in self.entries]
        lines.append(json.dumps({"summary": self.summary()}, separators=(",", ":")))
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = [entry.one_line() for entry in self.entries]
        s = self.summary()
        lines.append(
            f"suite profile={s['profile']} total={s['total']} passed={s['passed']} "
            f"failed={s['failed']} expected-failures-confirmed={s['expected_failures_confirmed']} "
            f"healthy={'yes' if s['healthy'] else 'NO'}"
        )
        return "\n".join(lines)


def run_suite(profile: str = "quick") -> SuiteResult:
    """Run every identity over every applicable built-in sequence.

    The quick profile keeps every check sub-second; full pushes the bounds
    to the documented verification sizes.
    """
    if profile not in ("quick", "full"):
        raise InvalidParamsError(f"profile must be 'quick' or 'full', got {profile!r}")
    entries = []
    for spec in _REGISTRY:
        key = spec.param_keys[0]
        *_, prefix = _SELECTORS[key]
        runs = [(family, prefix + sel) for family, sel in SUITE_FAMILIES if family in spec.families]
        for family, selector in runs + list(spec.extra_runs):
            params = {key: selector, **(spec.full if profile == "full" else spec.quick)}
            if profile == "full":
                params.update(spec.full_caps.get(family, {}))
            report = run_identity(spec.id, params)
            entries.append(SuiteEntry(report, family, spec.expectation(family)))
    return SuiteResult(profile, tuple(entries))
