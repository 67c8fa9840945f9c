"""psipascal benchmark: timed or traced run of one workload.

    python3 bench/run.py --workload suite-full --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload's commands as ``python -m psipascal``
subprocesses, one at a time, in a closed loop, and reports the end-to-end
metrics.  ``--trace 1`` runs the same commands in this process with every
layer wrapped and reports the per-layer metrics.  Both check every output.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Full results,
diagnostics and spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import ProbeError, SpeedProbe
from traced import COUNT_METRICS, LAYER_METRICS, Tracer, capture_suites, run_in_process
from workloads import DEFAULT_SEED, WORKLOADS, OutputCheck, command_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# a run always has this many passes, even when --seconds is shorter
MIN_TIMED_PASSES = 3
SETUP_PROBES_PER_PASS = 5
MIN_TRACED_PASSES = 2
LADDER_SIZES = (8, 16, 24)
LADDER_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
LAYER_UNITS = dict(LAYER_METRICS)

SETUP_CODE = (
    "import sys, psipascal\n"
    "[psipascal.from_selector(s) for s in sys.argv[1].split()]\n"
    "[psipascal.operator_from_selector(s) for s in sys.argv[2].split()]\n"
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class TimeLimitExceeded(BaseException):
    """Raised from SIGALRM; not an Exception, so no handler of program errors eats it."""


def _time_limit(signum, frame):
    raise TimeLimitExceeded("the run took too long; psipascal may hang")


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    # children cache bytecode like an installed package does, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str]) -> dict:
    """Run the interpreter with args to completion; output bytes and rusage."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=_child_env(),
    ) as proc:
        try:
            chunks = {proc.stdout: [], proc.stderr: []}
            with selectors.DefaultSelector() as sel:
                for pipe in chunks:
                    sel.register(pipe, selectors.EVENT_READ)
                while sel.get_map():
                    for key, _ in sel.select():
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            sel.unregister(key.fileobj)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # the run's time limit, or an interrupt
            if proc.returncode is None:
                proc.kill()
            raise
    wall = time.perf_counter() - start
    return {
        "start": start,
        "exit": proc.returncode,
        "stdout": b"".join(chunks[proc.stdout]),
        "stderr": b"".join(chunks[proc.stderr]),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


def setup_probe(workload, run=spawn) -> dict:
    """A fresh interpreter that imports psipascal and builds the objects."""
    result = run(["-c", SETUP_CODE, " ".join(workload.sequences), " ".join(workload.operators)])
    if result["exit"] != 0:
        raise BenchmarkError(f"setup probe failed: {result['stderr'].decode(errors='replace')}")
    return result


def run_timed(workload, seed: int, seconds: float, check: OutputCheck) -> dict:
    commands = workload.commands(seed)
    # the speed probe must share the CPU that the children run on, because
    # the CPUs of a shared virtual machine slow down independently
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup, passes = [], []
    with SpeedProbe() as probe:

        def measured(args: list[str]) -> dict:
            r = spawn(args)
            r["speed"] = probe.speed_factor(r["start"], r["start"] + r["wall"])
            return r

        setup_probe(workload)  # warms the bytecode and file caches; not measured
        start = time.perf_counter()
        while True:
            # the setup probes are spread over the run, so that they sample
            # the same machine states as the passes
            for _ in range(SETUP_PROBES_PER_PASS):
                setup.append(setup_probe(workload, measured))
            results = []
            for argv in commands:
                r = measured(["-m", "psipascal", *argv])
                check.record(argv, r["exit"], r["stdout"], r["stderr"])
                results.append(r)
            passes.append(results)
            if _done(start, len(passes), MIN_TIMED_PASSES, seconds):
                break
    walls = [sum(r["wall"] * r["speed"] for r in p) for p in passes]
    cpus = [sum(r["cpu"] * r["speed"] for r in p) for p in passes]
    raw_walls = [sum(r["wall"] for r in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(max(r["maxrss_mib"] for r in p) for p in passes),
        "setup_s": statistics.median(r["wall"] * r["speed"] for r in setup),
    }
    return {
        "metrics": metrics,
        "raw": {
            "wall_s": statistics.median(raw_walls),
            "cpu_s": statistics.median(sum(r["cpu"] for r in p) for p in passes),
            "setup_s": statistics.median(r["wall"] for r in setup),
        },
        "samples": {"passes": len(passes), "setup_probes": len(setup)},
        "spread": {
            "wall_s": distribution(walls),
            "cpu_s": distribution(cpus),
            "raw_wall_s": distribution(raw_walls),
            **{f"wall_s[{command_key(a)}]": distribution([r["wall"] * r["speed"] for r in column])
               for a, column in zip(commands, zip(*passes))},
            "setup_s": distribution([r["wall"] * r["speed"] for r in setup]),
        },
        "passes": [[{k: r[k] for k in ("exit", "wall", "cpu", "maxrss_mib", "speed")} for r in p]
                   for p in passes],
    }


def _done(start: float, done: int, minimum: int, seconds: float) -> bool:
    """Stop once another pass of average length would overrun the budget."""
    elapsed = time.perf_counter() - start
    return done >= minimum and elapsed * (done + 1) / done > seconds


def distribution(values: list[float]) -> dict:
    """Sample count, min, median and the highest of p99/p95/p90/p75 that has
    at least ten samples beyond it (None when the run has too few)."""
    tail = None
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            tail = {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"samples": len(values), "min": min(values), "median": statistics.median(values),
            "tail": tail}


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _import_psipascal() -> dict:
    sys.path.insert(0, str(SRC))
    import psipascal
    from psipascal import cli, engine, matrices, operators, polynomials, report, scalars, sequences

    return {
        "psipascal": psipascal, "cli": cli, "engine": engine, "matrices": matrices,
        "operators": operators, "polynomials": polynomials, "report": report,
        "scalars": scalars, "sequences": sequences,
    }


def _entry_key(entry, taken: set) -> str:
    key = f"{entry.report.identity}:{entry.family}"
    if key in taken:  # eq8 runs twice over q-symbolic, once per operator convention
        key += f":{entry.report.params.get('operator')}"
    return key


def run_traced(workload, seed: int, seconds: float, check: OutputCheck, spans_path: Path) -> dict:
    mods = _import_psipascal()
    cli_main = mods["cli"].main
    commands = workload.commands(seed)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as in run_timed

    def one_pass(probe: SpeedProbe) -> tuple[float, float, int]:
        """Raw wall time, speed factor and output bytes of one pass."""
        gc.collect()
        start = time.perf_counter()
        outputs = [run_in_process(cli_main, argv) for argv in commands]
        wall = time.perf_counter() - start
        for argv, (code, out, err) in zip(commands, outputs):
            check.record(argv, code, out, err)
        return wall, probe.speed_factor(start, start + wall), sum(len(out) for _, out, _ in outputs)

    untraced, traced, layer_passes = [], [], []
    entry_elapsed: dict[str, list[float]] = {}
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            with capture_suites(mods["cli"]) as suites:
                wall, speed, _ = one_pass(probe)
                untraced.append(wall * speed)
            for suite in suites:
                taken: set = set()
                for entry in suite.entries:
                    key = _entry_key(entry, taken)
                    taken.add(key)
                    entry_elapsed.setdefault(key, []).append(entry.report.elapsed)

            tracer = Tracer(mods)
            tracer.install()
            try:
                wall, speed, output_bytes = one_pass(probe)
            finally:
                tracer.uninstall()
            traced.append(wall * speed)
            layer_passes.append({
                name: value * speed if LAYER_UNITS[name] == "s" else value
                for name, value in tracer.layer_metrics(output_bytes).items()
            })
            if len(traced) == 1:
                tracer.write_spans(spans_path)
            del tracer
            if _done(start, len(traced), MIN_TRACED_PASSES, seconds):
                break

    first = layer_passes[0]
    unstable = [n for n in COUNT_METRICS if any(p[n] != first[n] for p in layer_passes)]
    if unstable:
        raise BenchmarkError(f"count self-check: counts differ between traced passes: {unstable}")
    if workload.rationals_only:
        nonzero = [n for n in COUNT_METRICS if n.startswith("scalars.") and first[n]]
        if nonzero:
            raise BenchmarkError(f"count self-check: rational-only workload touched Q(q): {nonzero}")

    # times come from one traced pass, the median one, so that they add up
    # within a pass
    median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics = dict(layer_passes[median_pass])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    diagnostics = {}
    if entry_elapsed:
        diagnostics["suite_entry_elapsed_s"] = {
            key: min(values) for key, values in entry_elapsed.items()
        }
    if workload.name == "q-dense":
        run_identity = mods["engine"].run_identity
        diagnostics["eq4_q_ladder_s"] = {
            f"n={n}": min(
                run_identity("eq4", {"sequence": "q", "n": n}).elapsed
                for _ in range(LADDER_REPEATS)
            )
            for n in LADDER_SIZES
        }
    return {
        "metrics": metrics,
        "samples": {"untraced_passes": len(untraced), "traced_passes": len(traced)},
        "spread": {"untraced_wall_s": distribution(untraced), "traced_wall_s": distribution(traced)},
        "diagnostics": diagnostics,
    }


# ---------------------------------------------------------------------------
# environment and the command line
# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "loadavg_1min_start": os.getloadavg()[0],
    }


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "psipascal" / "__main__.py").is_file():
        print(f"bench: no psipascal sources under {SRC}", file=sys.stderr)
        return 2
    # a hung command must not hang the benchmark: stop well inside 3 minutes
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(int(args.seconds) + 120)
    workload = WORKLOADS[args.workload]
    env = environment()
    check = OutputCheck.load()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-{'traced' if args.trace else 'timed'}"
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, check,
                                OUT_DIR / f"{workload.name}-spans.tsv")
            units = LAYER_UNITS
        else:
            result = run_timed(workload, args.seed, args.seconds, check)
            units = END_TO_END_UNITS
    except (BenchmarkError, ProbeError, TimeLimitExceeded) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    signal.alarm(0)
    env["loadavg_1min_end"] = os.getloadavg()[0]

    for name, value in result["metrics"].items():
        print(f"{workload.name:14s} {name:38s} {value:>16.6f} {units[name]}")
    print(f"{workload.name:14s} {'mismatch_rate':38s} {check.mismatch_rate:>16.6f} ratio")
    for name, value in result.get("raw", {}).items():
        print(f"{workload.name:14s} {'raw.' + name:38s} {value:>16.6f} {units[name]} (uncalibrated)")
    print(f"samples {json.dumps(result['samples'])}")
    for name, dist in result["spread"].items():
        print(f"spread {name} {json.dumps(dist)}")
    for name, table in result.get("diagnostics", {}).items():
        for key, value in table.items():
            print(f"diagnostic {name} {key} {value:.6f}")
    print(f"env {json.dumps(env)}")
    for problem in check.problems:
        print(f"bench: mismatch: {problem}", file=sys.stderr)

    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  environment=env, attempted=check.attempted, failed=check.failed,
                  mismatch_rate=check.mismatch_rate, problems=check.problems,
                  commands=[command_key(a) for a in workload.commands(args.seed)])
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    correct = check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
