"""The identity registry, the runner, and the suite."""

import json
from fractions import Fraction

import pytest

from psipascal import engine
from psipascal.report import first_difference
from psipascal.scalars import MAX_Q_EXPONENT, RationalFunction
from psipascal import (
    EXPECTED_FAIL,
    MUST_PASS,
    InvalidParamsError,
    UnknownIdentityError,
    custom,
    fibonomial,
    list_identities,
    run_identity,
    run_suite,
)

EXPECTED_IDS = [
    "eq4",
    "eq5",
    "eq6",
    "eq8",
    "eq9",
    "eq10",
    "eq11-basic",
    "semigroup",
    "exp-vs-closed",
    "nilpotent",
    "odd-cancel",
    "normality",
]


class TestRegistry:
    def test_all_ids_present_in_order(self):
        assert [spec.id for spec in list_identities()] == EXPECTED_IDS

    def test_count(self):
        assert len(list_identities()) >= 11

    def test_contains_eq8(self):
        assert any(spec.id == "eq8" for spec in list_identities())

    def test_ordering_is_stable(self):
        assert [s.id for s in list_identities()] == [s.id for s in list_identities()]

    def test_every_integer_parameter_is_capped_above_its_bounds(self):
        for spec in list_identities():
            keys = [k for k in spec.param_keys if k in spec.quick]
            assert set(spec.caps) == set(keys) == set(spec.full)
            for key in keys:
                over_q, over_q_of_q = spec.caps[key]
                assert spec.quick[key] <= spec.full[key] <= min(over_q, over_q_of_q)

    @pytest.mark.parametrize("field", [0, 1], ids=["over Q", "over Q(q)"])
    def test_a_cap_is_accepted_and_one_more_refused(self, field):
        # resolving a check's parameters runs nothing, so the cap itself is cheap here
        selectors = {"eq8": ("qhat-paper:classical", "qhat-power:q"), "eq9": ("q=2", "q"), "eq10": ("q=2", "q")}
        for spec in list_identities():
            selector = selectors.get(spec.id, ("classical", "q"))[field]
            for name, caps in spec.caps.items():
                params = {spec.param_keys[0]: selector, name: caps[field]}
                _, echo = engine._resolve(spec, params)
                assert echo[name] == str(caps[field])
                params[name] += 1
                with pytest.raises(InvalidParamsError, match=f"must be <= {caps[field]} over"):
                    engine._resolve(spec, params)

    def test_expectations(self):
        by_id = {spec.id: spec for spec in list_identities()}
        assert by_id["eq6"].expectation("classical") == MUST_PASS
        assert by_id["eq6"].expectation("fibonomial") == EXPECTED_FAIL
        assert by_id["normality"].expectation("q-symbolic") == EXPECTED_FAIL
        assert by_id["eq4"].expectation("fibonomial") == MUST_PASS


class TestRunIdentity:
    def test_eq4_classical(self):
        report = run_identity("eq4", {"sequence": "classical", "n": 8})
        assert report.passed
        assert report.params == {"sequence": "classical", "n": "8"}

    def test_eq6_q_counterexample_strings(self):
        report = run_identity("eq6", {"sequence": "q", "n": 2})
        assert not report.passed
        assert report.counterexample.location == (1, 1)
        assert report.counterexample.lhs == "2"
        assert report.counterexample.rhs == "(1 + q)/(1)"

    def test_eq8_power(self):
        report = run_identity("eq8", {"operator": "qhat-power:q", "i": 3, "j": 3, "m": 2})
        assert report.passed

    def test_defaults_fill_in(self):
        report = run_identity("nilpotent", {"sequence": "fibonomial"})
        assert report.passed
        assert report.params["n"] == "8"

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError) as err:
            run_identity("no-such-id")
        assert "eq4" in str(err.value)

    def test_unknown_parameter(self):
        with pytest.raises(InvalidParamsError) as err:
            run_identity("eq4", {"sequence": "classical", "bogus": 1})
        assert "bogus" in str(err.value)

    def test_bad_selector(self):
        with pytest.raises(InvalidParamsError):
            run_identity("eq4", {"sequence": "no-such-sequence"})

    def test_bad_bound(self):
        with pytest.raises(InvalidParamsError):
            run_identity("eq4", {"sequence": "classical", "n": -3})
        with pytest.raises(InvalidParamsError):
            run_identity("eq4", {"sequence": "classical", "n": "six"})

    def test_q_only_identities_reject_other_sequences(self):
        with pytest.raises(InvalidParamsError):
            run_identity("eq9", {"sequence": "classical"})
        with pytest.raises(InvalidParamsError):
            run_identity("eq10", {"sequence": "fibonomial"})

    def test_eq8_needs_an_operator(self):
        with pytest.raises(InvalidParamsError):
            run_identity("eq8", {})

    def test_scalar_parameters_parse_in_the_sequence_domain(self):
        report = run_identity("eq11-basic", {"sequence": "q", "n": 5, "x": "q", "y": "1"})
        assert report.passed
        assert report.params["x"] == "(q)/(1)"

    @pytest.mark.parametrize(
        "identity, echo",
        [
            ("semigroup", "x=(q)/(1) y=-1/2"),
            ("eq11-basic", "x=(q)/(1) y=-1/2"),
            ("exp-vs-closed", "x=(q)/(1)"),
            ("odd-cancel", "a=(q)/(1)"),
        ],
    )
    def test_rational_function_point_over_a_rational_sequence(self, identity, echo):
        report = run_identity(identity, {"sequence": "classical", "n": 3, "x": "q"})
        assert report.passed
        assert " ".join(f"{k}={v}" for k, v in report.params.items()).endswith(echo)

    @pytest.mark.parametrize("key", ["x", "y"])
    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_point_is_refused(self, key, value):
        params = {"sequence": "classical", "n": 4, "x": 2, "y": 3, key: value}
        with pytest.raises(InvalidParamsError, match=f"parameter '{key}' must be a scalar, got {value}"):
            run_identity("semigroup", params)

    def test_integral_points_are_held_as_ints(self):
        report = run_identity("semigroup", {"sequence": "classical", "n": 4, "x": Fraction(4, 2), "y": 3})
        assert report.passed
        assert (report.params["x"], report.params["y"]) == ("2", "3")
        resolved, _ = engine._resolve(engine._BY_ID["semigroup"], {"sequence": "classical", "x": Fraction(4, 2)})
        assert [type(v) for v in resolved[2:]] == [int, Fraction]

    def test_reports_are_reproducible(self):
        first = run_identity("eq6", {"sequence": "fibonomial", "n": 4})
        second = run_identity("eq6", {"sequence": "fibonomial", "n": 4})
        assert first.to_json_obj() == second.to_json_obj()


@pytest.fixture(scope="module")
def quick():
    return run_suite("quick")


class TestSuite:
    def test_healthy(self, quick):
        assert quick.healthy
        summary = quick.summary()
        assert summary["unexpected"] == []
        assert summary["total"] == len(quick.entries)

    def test_every_must_pass_passed(self, quick):
        for entry in quick.entries:
            if entry.expected == MUST_PASS:
                assert entry.report.passed, entry.report.one_line()

    def test_every_expected_fail_failed(self, quick):
        failures = [e for e in quick.entries if e.expected == EXPECTED_FAIL]
        assert failures, "the suite must contain expected failures"
        for entry in failures:
            assert not entry.report.passed, entry.report.one_line()

    def test_eq6_fibonomial_is_a_confirmed_finding(self, quick):
        entries = [
            e
            for e in quick.entries
            if e.report.identity == "eq6" and e.family == "fibonomial"
        ]
        assert len(entries) == 1
        entry = entries[0]
        assert entry.expected == EXPECTED_FAIL
        assert not entry.report.passed
        assert entry.as_expected

    def test_normality_records_the_failure_values(self, quick):
        values = {
            e.family: e.report.counterexample
            for e in quick.entries
            if e.report.identity == "normality" and e.report.counterexample
        }
        assert values["q-symbolic"].lhs == "(1 - q)/(1)"
        assert values["q-numeric"].lhs == "-1"
        assert values["fibonomial"].lhs == "1"
        assert all(ce.location == (2,) for ce in values.values())

    def test_eq8_includes_the_power_convention(self, quick):
        operators = [
            e.report.params["operator"] for e in quick.entries if e.report.identity == "eq8"
        ]
        assert "qhat-power:q" in operators
        assert "qhat-paper:fibonomial" in operators

    def test_json_lines_are_deterministic(self, quick):
        again = run_suite("quick")
        assert quick.to_json_lines() == again.to_json_lines()

    def test_json_lines_shape(self, quick):
        lines = quick.to_json_lines().splitlines()
        for line in lines[:-1]:
            obj = json.loads(line)
            assert set(obj) == {
                "identity",
                "params",
                "status",
                "counterexample",
                "family",
                "expected",
                "as_expected",
            }
        summary = json.loads(lines[-1])
        assert set(summary) == {"summary"}
        assert summary["summary"]["healthy"] is True

    def test_unknown_profile(self):
        with pytest.raises(InvalidParamsError):
            run_suite("exhaustive")


class TestFullSuiteCompleteness:
    def test_full_profile_covers_every_identity_and_family(self):
        result = run_suite("full")
        assert result.healthy
        seen = {}
        for entry in result.entries:
            seen.setdefault(entry.report.identity, set()).add(entry.family)
        assert set(seen) == set(EXPECTED_IDS)
        q_only = {"eq9", "eq10"}
        everywhere = {"classical", "q-symbolic", "q-numeric", "fibonomial"}
        for identity, families in seen.items():
            if identity in q_only:
                assert families == {"q-symbolic", "q-numeric"}
            else:
                assert families == everywhere
        # eq8 runs the ratio convention on all four plus the symbolic power base
        eq8_ops = [
            e.report.params["operator"] for e in result.entries if e.report.identity == "eq8"
        ]
        assert len(eq8_ops) == 5
        assert "qhat-power:q" in eq8_ops


class TestMutation:
    def test_corrupted_factorial_trips_a_must_pass(self):
        seq = custom([1, 1, 2, 3, 5, 8, 13, 21])
        seq.factorial(8)  # fill the cache, then corrupt one entry
        seq._facts[3] = seq.field.coerce(99)
        seq._binoms.clear()
        report = run_identity("exp-vs-closed", {"sequence": seq, "n": 6, "x": "1"})
        assert not report.passed

    def test_intact_custom_sequence_passes(self):
        seq = custom([1, 1, 2, 3, 5, 8, 13, 21])
        report = run_identity("exp-vs-closed", {"sequence": seq, "n": 6, "x": "1"})
        assert report.passed


class TestShiftRouteMemoFault:
    """A corrupted factorial memo that only eq11-basic's shift route reads.

    The shift exp_psi(y D) divides by k_psi!, read from the factorial memo;
    the binomials come from the ratio rule and never read it.
    """

    def test_doubled_factorial_fails_the_shift_route(self):
        seq = fibonomial()
        seq.factorial(10)  # warm the memo, then corrupt one entry
        seq._facts[3] = seq._facts[3] * 2
        report = run_identity("eq11-basic", {"sequence": seq, "n": 8})
        assert not report.passed
        assert str(report.counterexample) == "at (3): lhs=39/8 rhs=79/16 [shift route]"


class TestPointDegreeBudget:
    """A Q(q) point is refused when its largest power is above degree MAX_Q_EXPONENT // n."""

    # (identity, n, the largest power the identity takes of a point at n)
    POWERS = [
        ("eq11-basic", 4, 4),
        ("semigroup", 5, 4),
        ("exp-vs-closed", 3, 2),
        ("odd-cancel", 2, 5),
    ]

    def test_every_identity_with_points_has_a_power(self):
        for spec in list_identities():
            takes_points = "x" in spec.param_keys
            assert (spec.point_power is not None) == takes_points, spec.id

    @pytest.mark.parametrize("identity, n, power", POWERS)
    def test_the_budget_boundary(self, identity, n, power):
        spec = engine._BY_ID[identity]
        assert spec.point_power(n) == power
        top = MAX_Q_EXPONENT // max(n, 1) // power
        for key in ("x", "y") if "y" in spec.param_keys else ("x",):
            accepted = {"sequence": "q", "n": n, key: f"(1 + q)/(2 + q^{top})"}
            engine._resolve(spec, accepted)
            refused = {"sequence": "q", "n": n, key: f"(1 + q)/(2 + q^{top + 1})"}
            with pytest.raises(InvalidParamsError, match=f"parameter '{key}': degree {top + 1} in q"):
                run_identity(identity, refused)

    def test_at_n_0_every_parsed_point_passes(self):
        # the budget is MAX_Q_EXPONENT and the largest power is the point itself
        spec = engine._BY_ID["odd-cancel"]
        assert spec.point_power(0) == 1
        engine._resolve(spec, {"sequence": "q", "n": 0, "x": f"(1 + q)/(2 + q^{MAX_Q_EXPONENT})"})

    def test_rational_points_and_constants_have_no_degree(self):
        report = run_identity("semigroup", {"sequence": "q", "n": 4, "x": "1111/7", "y": "-3"})
        assert report.passed
        spec = engine._BY_ID["odd-cancel"]
        engine._resolve(spec, {"sequence": "classical", "n": 192, "x": "5/3"})


class TestQPointCaps:
    """A Q(q) point over a rational sequence makes the run Q(q), so n takes the Q(q) cap."""

    # identity, the point's parameter, a Q(q) point, the Q(q) cap of n
    ROWS = [
        ("eq11-basic", "y", "q", 56),
        ("semigroup", "x", "1+q", 56),
        ("exp-vs-closed", "x", "q", 32),
        ("odd-cancel", "x", "1+q", 56),
    ]

    @pytest.mark.parametrize("identity, key, point, cap", ROWS)
    def test_accepted_at_the_cap_and_refused_one_past(self, identity, key, point, cap):
        spec = engine._BY_ID[identity]
        assert spec.caps["n"][1] == cap
        _, echo = engine._resolve(spec, {"sequence": "classical", "n": cap, key: point})
        assert echo["n"] == str(cap)
        with pytest.raises(
            InvalidParamsError, match=f"^parameter 'n' must be <= {cap} over rational-function, got {cap + 1}$"
        ):
            engine._resolve(spec, {"sequence": "classical", "n": cap + 1, key: point})

    @pytest.mark.parametrize("identity, key, point, cap", ROWS)
    def test_rational_and_default_points_keep_the_q_cap(self, identity, key, point, cap):
        spec = engine._BY_ID[identity]
        q_cap = spec.caps["n"][0]
        engine._resolve(spec, {"sequence": "classical", "n": q_cap, key: "5/3"})
        engine._resolve(spec, {"sequence": "classical", "n": q_cap})


class TestFirstDifference:
    """The one comparison: ordered pairs, read lazily, the first difference reported."""

    def test_stops_at_the_first_differing_pair(self):
        def pairs():
            yield (0,), 1, 1, None
            yield (1,), Fraction(1, 2), RationalFunction.generator(), "second"
            raise AssertionError("read past the first differing pair")

        report = first_difference("demo", {"n": "2"}, pairs())
        assert not report.passed
        assert report.params == {"n": "2"}
        ce = report.counterexample
        assert (ce.location, ce.lhs, ce.rhs, ce.detail) == ((1,), "1/2", "(q)/(1)", "second")

    def test_passes_when_every_pair_agrees(self):
        pairs = [((k,), Fraction(k, 2), Fraction(2 * k, 4), None) for k in range(4)]
        report = first_difference("demo", {}, iter(pairs))
        assert report.passed
        assert report.counterexample is None

    def test_passes_on_no_pairs(self):
        assert first_difference("demo", {}, iter(())).passed
