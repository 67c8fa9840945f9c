"""The benchmark's per-layer tracer still finds what it wraps.

``bench/traced.py`` wraps psipascal callables by name, among them each
matrix class's own ``__init__``.  A rename in the package would otherwise
show only when the benchmark runs; here the tracer is installed as
``bench/run.py`` installs it, one small command runs in-process, and the
originals must be back after ``uninstall``.
"""

import importlib.util
from pathlib import Path

import psipascal
from psipascal import cli, engine, matrices, operators, polynomials, report, scalars, sequences

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_matrix_layer_and_restores_it():
    traced = load_traced()
    mods = {
        "psipascal": psipascal, "cli": cli, "engine": engine, "matrices": matrices,
        "operators": operators, "polynomials": polynomials, "report": report,
        "scalars": scalars, "sequences": sequences,
    }
    original_init = matrices.LowerTriMatrix.__dict__["__init__"]
    tracer = traced.Tracer(mods)
    tracer.install()
    try:
        assert matrices.LowerTriMatrix.__dict__["__init__"] is not original_init
        code, out, err = traced.run_in_process(
            cli.main, ["check", "nilpotent", "-s", "fibonomial", "-n", "4"]
        )
    finally:
        tracer.uninstall()
    assert code == 0, err.decode()
    assert out
    names = {span[0] for span in tracer.spans}
    assert {"matrices.construct", "matrices.matmul"} <= names
    assert matrices.LowerTriMatrix.__dict__["__init__"] is original_init
