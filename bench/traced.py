"""Outside-in tracing of psipascal's layers, run in-process.

The tracer replaces public callables of each layer, as class attributes and
module attributes, with wrappers that record one span per call: name,
start, end and parent.  Every module that imported a wrapped function by
name gets the wrapper too, so ``matrices.psi_plus_power`` and each
module's ``scalar_to_string`` are traced like the originals.  Spans stay in
memory and are written out when the run ends.

A call made directly inside a span of the same name extends that span
instead of opening a new one, so ``__sub__`` calling ``__add__`` counts as
one addition.  Stdlib ``Fraction`` arithmetic and the private polynomial
kernel are not wrapped: their time is self time of the layer that calls
them.  The time of the counting hooks (term products, degrees, bit sizes,
memo keys, matrix entries) is timed and taken out of every span's self
time.  The rest of the wrappers' cost, a few clock reads and list
operations per call, lands in the self time of the calling span;
``trace.overhead_s`` reports the total.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
import weakref
from collections import Counter
from fractions import Fraction
from typing import Callable

# span name -> per-layer metric group; the layer is the part before the dot
_SCALAR_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow",
    "__init__": "canon",
}
_OPERATOR_METHODS = (
    "eigenvalue", "eigenvalue_power", "integer_eigenvalue",
    "factorial_eigenvalue", "binomial_eigenvalue", "apply",
)
_CHECK_FUNCTIONS = {
    "matrices": (
        "check_exp_vs_closed", "check_nilpotency", "check_semigroup",
        "check_product_identity", "check_transpose_fermat",
        "check_weighted_cauchy", "check_cauchy_vandermonde",
    ),
    "operators": ("check_operator_cauchy",),
    "polynomials": ("check_sheffer_basic", "check_odd_cancellation"),
}

# per-layer metrics, in report order, with their units
LAYER_METRICS = (
    ("scalars.mul.calls", "count"), ("scalars.mul.self_s", "s"),
    ("scalars.mul.term_products", "count"),
    ("scalars.add.calls", "count"), ("scalars.add.self_s", "s"),
    ("scalars.canon.calls", "count"), ("scalars.canon.self_s", "s"),
    ("scalars.div.calls", "count"), ("scalars.pow.calls", "count"),
    ("scalars.self_s", "s"), ("scalars.max_degree", "degree"),
    ("scalars.max_coeff_bits", "bits"),
    ("sequences.objects", "count"), ("sequences.binomial.calls", "count"),
    ("sequences.binomial.misses", "count"), ("sequences.binomial.hit_ratio", "ratio"),
    ("sequences.self_s", "s"),
    ("polynomials.psi_plus_power.calls", "count"), ("polynomials.psi_shift.calls", "count"),
    ("polynomials.self_s", "s"),
    ("operators.binomial_eigenvalue.calls", "count"),
    ("operators.eigenvalue_power.calls", "count"), ("operators.self_s", "s"),
    ("matrices.matmul.calls", "count"), ("matrices.matmul.self_s", "s"),
    ("matrices.psi_exp_nilpotent.self_s", "s"), ("matrices.entries_built", "count"),
    ("matrices.self_s", "s"),
    ("engine.run_identity.calls", "count"), ("engine.instances", "count"),
    ("engine.self_s", "s"),
    ("cli.render_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)
# metrics that are exact counts; they must repeat across traced passes
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "degree", "bits", "bytes"))


def _coeff_bits(coeffs: tuple) -> int:
    """Largest bit length among the numerators and denominators of coeffs."""
    if not coeffs:
        return 0
    if Fraction not in set(map(type, coeffs)):
        return max(max(coeffs), -min(coeffs)).bit_length()
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs
    )


def _nonzero_terms(value, rf_type) -> tuple[int, int]:
    """Nonzero numerator and denominator terms, as __mul__ sees its operand."""
    if isinstance(value, rf_type):
        num, den = value.numerator, value.denominator
        return len(num) - num.count(0), len(den) - den.count(0)
    return (1 if value else 0), 1


class Tracer:
    """Span recorder plus the counters read at the same layer boundaries."""

    def __init__(self, psipascal_modules: dict):
        self._mods = psipascal_modules
        self.spans: list = []  # (name, start_ns, end_ns, parent index) in start order
        self._open: list = []  # (index, name, layer) of spans not yet closed
        self.counts: Counter = Counter()
        # span index (-1: none open) -> time spent in the benchmark's own
        # before/after hooks while that span was the innermost open one
        self.hook_ns: Counter = Counter()
        self._patches: list = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, open_, hook_ns, clock = self.spans, self._open, self.hook_ns, time.perf_counter_ns
        layer = name.partition(".")[0]

        def traced(*args, **kwargs):
            if open_ and open_[-1][1] == name:
                return fn(*args, **kwargs)
            outer = not open_ or open_[-1][2] != layer
            parent = open_[-1][0] if open_ else -1
            if before is not None:
                hook_start = clock()
                before(args)
                hook_ns[parent] += clock() - hook_start
            index = len(spans)
            spans.append(None)
            open_.append((index, name, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                hook_start = clock()
                after(args, result, outer)
                hook_ns[parent] += clock() - hook_start
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap owner.attr; a module function is also replaced wherever imported."""
        original = owner.__dict__[attr]
        wrapper = self._wrap(name, original, before, after)
        owners = [owner]
        if not isinstance(owner, type):
            owners = [m for m in self._mods.values() if getattr(m, attr, None) is original]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        m = self._mods
        rf = m["scalars"].RationalFunction
        counts = self.counts

        def scalar_value(args, result, outer):
            value = args[0] if result is None else result
            if outer and isinstance(value, rf):
                num, den = value.numerator, value.denominator
                counts["scalars.max_degree"] = max(
                    counts["scalars.max_degree"], max(len(num), len(den)) - 1
                )
                counts["scalars.max_coeff_bits"] = max(
                    counts["scalars.max_coeff_bits"], _coeff_bits(num), _coeff_bits(den)
                )

        def mul_terms(args):
            if not isinstance(args[1], (rf, int, Fraction)):
                return  # __mul__ returns NotImplemented; nothing is multiplied
            a_num, a_den = _nonzero_terms(args[0], rf)
            b_num, b_den = _nonzero_terms(args[1], rf)
            both_polynomial = args[0].denominator == (1,) and (
                not isinstance(args[1], rf) or args[1].denominator == (1,)
            )
            products = a_num * b_num + (0 if both_polynomial else a_den * b_den)
            counts["scalars.mul.term_products"] += products

        for attr, group in _SCALAR_OPS.items():
            self._patch(rf, attr, f"scalars.{group}",
                        before=mul_terms if group == "mul" else None, after=scalar_value)

        seq_cls = m["sequences"].AdmissibleSequence
        seen = weakref.WeakKeyDictionary()  # sequence object -> binomial keys requested

        def binomial_request(args):
            seq, n, k = args[0], args[1], args[2]
            if 0 <= k <= n:
                keys = seen.setdefault(seq, set())
                key = (n, min(k, n - k))
                if key not in keys:
                    keys.add(key)
                    counts["sequences.binomial.misses"] += 1

        self._patch(seq_cls, "__init__", "sequences.objects")
        self._patch(seq_cls, "integer", "sequences.integer")
        self._patch(seq_cls, "factorial", "sequences.factorial")
        self._patch(seq_cls, "binomial", "sequences.binomial", before=binomial_request)

        for attr in ("psi_plus_power", "psi_shift"):
            self._patch(m["polynomials"], attr, f"polynomials.{attr}")

        for attr in _OPERATOR_METHODS:
            self._patch(m["operators"].DiagOperator, attr, f"operators.{attr}")

        def entries_built(args, result, outer):
            counts["matrices.entries_built"] += sum(map(len, args[0].rows))

        for attr in ("matmul", "psi_exp_nilpotent", "pascal_closed", "k_matrix", "fermat"):
            self._patch(m["matrices"], attr, f"matrices.{attr}")
        for cls in (m["matrices"].LowerTriMatrix, m["matrices"].SquareMatrix):
            self._patch(cls, "__init__", "matrices.construct", after=entries_built)

        self._patch(m["engine"], "run_identity", "engine.run_identity")
        self._patch(m["engine"], "run_suite", "engine.run_suite")
        for module, names in _CHECK_FUNCTIONS.items():
            for attr in names:
                self._patch(m[module], attr, "engine.check")

        self._patch(m["engine"].SuiteResult, "to_json_lines", "cli.to_json_lines")
        self._patch(m["report"].IdentityReport, "to_json_obj", "cli.to_json_obj")
        self._patch(m["scalars"], "scalar_to_string", "cli.scalar_to_string")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Counts and self times of this tracer's spans, by per-layer metric name."""
        spans = self.spans
        # time covered by wrapped children and by the counting hooks, which
        # are the benchmark's work, not the program's
        child_ns = [0] * len(spans)
        for index, ns in self.hook_ns.items():
            if index >= 0:
                child_ns[index] += ns
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (name, start, end, _), covered in zip(spans, child_ns):
            calls[name] += 1
            own = end - start - covered
            self_ns[name] += own
            self_ns[name.partition(".")[0]] += own
        c = self.counts

        def self_s(name):
            return self_ns[name] / 1e9

        binomial_calls = calls["sequences.binomial"]
        return {
            "scalars.mul.calls": calls["scalars.mul"],
            "scalars.mul.self_s": self_s("scalars.mul"),
            "scalars.mul.term_products": c["scalars.mul.term_products"],
            "scalars.add.calls": calls["scalars.add"],
            "scalars.add.self_s": self_s("scalars.add"),
            "scalars.canon.calls": calls["scalars.canon"],
            "scalars.canon.self_s": self_s("scalars.canon"),
            "scalars.div.calls": calls["scalars.div"],
            "scalars.pow.calls": calls["scalars.pow"],
            "scalars.self_s": self_s("scalars"),
            "scalars.max_degree": c["scalars.max_degree"],
            "scalars.max_coeff_bits": c["scalars.max_coeff_bits"],
            "sequences.objects": calls["sequences.objects"],
            "sequences.binomial.calls": binomial_calls,
            "sequences.binomial.misses": c["sequences.binomial.misses"],
            # 0 when the workload never asks a sequence for a binomial
            "sequences.binomial.hit_ratio": (
                1 - c["sequences.binomial.misses"] / binomial_calls if binomial_calls else 0.0
            ),
            "sequences.self_s": self_s("sequences"),
            "polynomials.psi_plus_power.calls": calls["polynomials.psi_plus_power"],
            "polynomials.psi_shift.calls": calls["polynomials.psi_shift"],
            "polynomials.self_s": self_s("polynomials"),
            "operators.binomial_eigenvalue.calls": calls["operators.binomial_eigenvalue"],
            "operators.eigenvalue_power.calls": calls["operators.eigenvalue_power"],
            "operators.self_s": self_s("operators"),
            "matrices.matmul.calls": calls["matrices.matmul"],
            "matrices.matmul.self_s": self_s("matrices.matmul"),
            "matrices.psi_exp_nilpotent.self_s": self_s("matrices.psi_exp_nilpotent"),
            "matrices.entries_built": c["matrices.entries_built"],
            "matrices.self_s": self_s("matrices"),
            "engine.run_identity.calls": calls["engine.run_identity"],
            "engine.instances": calls["engine.check"],
            "engine.self_s": self_s("engine"),
            "cli.render_s": self_s("cli"),
            "cli.output_bytes": output_bytes,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")


def run_in_process(cli_main: Callable, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Run one psipascal command line in this process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what ends `python -m psipascal` with a traceback and exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


@contextlib.contextmanager
def capture_suites(cli_module):
    """Collects the SuiteResult objects that the CLI's run_suite returns."""
    original, results = cli_module.run_suite, []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    cli_module.run_suite = capture
    try:
        yield results
    finally:
        cli_module.run_suite = original
