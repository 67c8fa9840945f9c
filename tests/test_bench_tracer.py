"""The benchmark's per-layer tracer still finds what it wraps.

``bench/traced.py`` wraps psipascal callables by name, among them each
matrix class's own ``__init__`` and the operator checker that eq8 calls
through its module.  A rename in the package would otherwise
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


MODULES = {
    "psipascal": psipascal, "cli": cli, "engine": engine, "matrices": matrices,
    "operators": operators, "polynomials": polynomials, "report": report,
    "scalars": scalars, "sequences": sequences,
}


def traced_run(argv, wrapped):
    """Run one command in-process under the installed tracer; return the tracer.

    ``wrapped`` lists (owner, attribute) pairs the tracer must replace while
    installed and restore after ``uninstall``.
    """
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in wrapped]
    traced = load_traced()
    tracer = traced.Tracer(MODULES)
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
        code, out, err = traced.run_in_process(cli.main, argv)
    finally:
        tracer.uninstall()
    assert code == 0, err.decode()
    assert out
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    return tracer


def span_names(tracer):
    return {span[0] for span in tracer.spans}


def test_tracer_wraps_the_matrix_layer_and_restores_it():
    tracer = traced_run(
        ["check", "nilpotent", "-s", "fibonomial", "-n", "4"],
        [(matrices.LowerTriMatrix, "__init__")],
    )
    assert {"matrices.construct", "matrices.matmul"} <= span_names(tracer)


def test_tracer_wraps_the_operator_layer_and_restores_it():
    # eq8 calls its checker through the operators module, where the tracer wraps it
    tracer = traced_run(
        ["check", "eq8", "-s", "qhat-paper:classical", "--i", "3", "--j", "3", "-m", "3"],
        [(operators, "check_operator_cauchy"), (operators.DiagOperator, "binomial_eigenvalue")],
    )
    assert {"engine.check", "operators.binomial_eigenvalue"} <= span_names(tracer)
