"""Command-line behavior: formats, exit codes, byte determinism."""

import json
import subprocess
import sys

import pytest

from psipascal import MatrixDocument
from psipascal.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "psipascal", *argv], capture_output=True, text=True
    )


class TestGen:
    def test_pascal_csv_bytes(self, capsys):
        code, out, _ = run_main(capsys, "gen", "pascal", "-s", "classical", "-n", "3", "--x", "1", "-f", "csv")
        assert code == 0
        assert out == "1\n1,1\n1,2,1\n"

    def test_k_json_subdiagonal(self, capsys):
        code, out, _ = run_main(capsys, "gen", "K", "-s", "fibonomial", "-n", "4", "-f", "json")
        assert code == 0
        obj = json.loads(out)
        assert [obj["entries"][i][i - 1] for i in range(1, 4)] == ["1", "1", "2"]
        assert obj["x"] is None

    def test_size_one(self, capsys):
        code, out, _ = run_main(capsys, "gen", "pascal", "-s", "q", "-n", "1", "-f", "csv")
        assert code == 0
        assert out == "1\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_main(capsys, "gen", "pascal", "-s", "q", "-n", "4", "--x", "q", "-f", "json")
        assert code == 0
        assert MatrixDocument.from_json(out).to_json() + "\n" == out

    def test_latex(self, capsys):
        code, out, _ = run_main(capsys, "gen", "fermat", "-s", "classical", "-n", "3", "-f", "latex")
        assert code == 0
        assert out.startswith("\\left[\\begin{array}{ccc}")

    def test_symbolic_x_over_a_rational_sequence(self, capsys):
        code, out, _ = run_main(capsys, "gen", "pascal", "-s", "classical", "-n", "3", "--x", "q", "-f", "csv")
        assert code == 0
        assert "(q^2)/(1)" in out

    def test_x_rejected_for_other_kinds(self, capsys):
        code, _, err = run_main(capsys, "gen", "K", "-s", "classical", "-n", "3", "--x", "1")
        assert code == 2
        assert "--x" in err

    def test_bad_selector(self, capsys):
        code, _, err = run_main(capsys, "gen", "K", "-s", "nope", "-n", "3")
        assert code == 2
        assert "selector" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "matrix.csv"
        code, out, _ = run_main(
            capsys, "gen", "pascal", "-s", "classical", "-n", "3", "--x", "1", "-f", "csv", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "1\n1,1\n1,2,1\n"


class TestSeq:
    def test_fibonomial_table(self, capsys):
        code, out, _ = run_main(capsys, "seq", "-s", "fibonomial", "-n", "6")
        assert code == 0
        assert "integers: 1 1 2 3 5 8" in out
        assert "binomials: 1 8 40 60 40 8 1" in out

    def test_classical_binomial_row(self, capsys):
        code, out, _ = run_main(capsys, "seq", "-s", "classical", "-n", "4")
        assert code == 0
        assert "binomials: 1 4 6 4 1" in out

    def test_q_zero_is_allowed(self, capsys):
        code, out, _ = run_main(capsys, "seq", "-s", "q=0", "-n", "5")
        assert code == 0
        assert "integers: 1 1 1 1 1" in out

    def test_json_and_csv(self, capsys):
        code, out, _ = run_main(capsys, "seq", "-s", "q", "-n", "3", "-f", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["integers"][2] == "(1 + q + q^2)/(1)"
        code, out, _ = run_main(capsys, "seq", "-s", "classical", "-n", "2", "-f", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,integer,factorial,binomial"

    def test_values_longer_than_the_int_text_limit_print_exactly(self):
        # F_1 * ... * F_220 has more digits than CPython's default limit
        # on int-to-text conversion; a fresh interpreter starts with it set
        proc = run_subprocess("seq", "-s", "fibonomial", "-n", "220")
        assert proc.returncode == 0, proc.stderr
        a, b, product = 0, 1, 1
        for _ in range(220):
            a, b = b, a + b
            product *= a
        [line] = [ln for ln in proc.stdout.splitlines() if ln.startswith("factorials: ")]
        last = line.split()[-1]
        assert len(last) > 4300
        assert int(last) == product

    def test_root_of_unity_reports_usage_error(self, capsys):
        code, _, err = run_main(capsys, "seq", "-s", "q=-1", "-n", "4")
        assert code == 2
        assert "admissible" in err


class TestCheck:
    def test_eq10_passes(self, capsys):
        code, out, _ = run_main(capsys, "check", "eq10", "-s", "q", "--i", "2", "--j", "2")
        assert code == 0
        assert "status: PASS" in out

    def test_eq6_fibonomial_fails_with_counterexample(self, capsys):
        code, out, _ = run_main(capsys, "check", "eq6", "-s", "fibonomial", "-n", "3")
        assert code == 1
        assert "counterexample: at (1, 1)" in out

    def test_unknown_identity(self, capsys):
        code, _, err = run_main(capsys, "check", "no-such-id")
        assert code == 2
        assert "unknown identity" in err

    def test_json_format(self, capsys):
        code, out, _ = run_main(capsys, "check", "eq4", "-s", "classical", "-n", "6", "-f", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "pass"

    def test_operator_selector_via_dash_s(self, capsys):
        code, out, _ = run_main(
            capsys, "check", "eq8", "-s", "qhat-power:q", "--i", "3", "--j", "3", "-m", "2"
        )
        assert code == 0
        assert "qhat-power:q" in out

    def test_missing_required_parameter(self, capsys):
        code, _, err = run_main(capsys, "check", "eq4")
        assert code == 2
        assert "sequence" in err


class TestNegativeScalars:
    """A value of --x/--y that starts with '-' is a scalar, not an option."""

    @pytest.mark.parametrize("value", ["-1/2", "-q", "-1/2 + q", "-3*q^2 - 1"])
    def test_gen_x_separate_matches_equals_form(self, capsys, value):
        argv = ["gen", "pascal", "-s", "classical", "-n", "4", "-f", "csv"]
        code, out, err = run_main(capsys, *argv, "--x", value)
        assert code == 0, err
        assert run_main(capsys, *argv, f"--x={value}")[:2] == (code, out)

    def test_gen_negative_rational(self, capsys):
        code, out, _ = run_main(capsys, "gen", "pascal", "-s", "classical", "-n", "3", "--x", "-1/2", "-f", "csv")
        assert code == 0
        assert out == "1\n-1/2,1\n1/4,-1,1\n"

    def test_gen_negative_rational_function(self, capsys):
        code, out, _ = run_main(capsys, "gen", "pascal", "-s", "classical", "-n", "2", "--x", "-q", "-f", "csv")
        assert code == 0
        assert out == "1\n(-q)/(1),1\n"

    @pytest.mark.parametrize(
        "x, y, echo",
        [
            ("2/3", "-5/7", "x=2/3 y=-5/7"),
            ("-5/7", "2/3", "x=-5/7 y=2/3"),
            ("-q", "-1/3", "x=(-q)/(1) y=-1/3"),
        ],
    )
    def test_check_x_and_y(self, capsys, x, y, echo):
        argv = ["check", "eq11-basic", "-s", "q", "-n", "3"]
        code, out, err = run_main(capsys, *argv, "--x", x, "--y", y)
        assert code == 0, err
        assert f"params: sequence=q n=3 {echo}\n" in out
        assert run_main(capsys, *argv, f"--x={x}", f"--y={y}")[:2] == (code, out)

    def test_missing_value_is_still_a_usage_error(self):
        result = run_subprocess("check", "eq11-basic", "-s", "q", "--y", "-n", "3")
        assert result.returncode == 2
        assert "expected one argument" in result.stderr

    def test_subprocess_negative_y(self):
        result = run_subprocess("check", "eq11-basic", "-s", "q", "-n", "2", "--y", "-5/7")
        assert result.returncode == 0, result.stderr
        assert "y=-5/7" in result.stdout


class TestRationalFunctionPoints:
    """check --x/--y read a point the way gen --x does: a rational sequence
    takes a point of Q(q), and a text that is neither is still rejected."""

    def test_q_point_over_a_rational_sequence(self, capsys):
        code, out, err = run_main(capsys, "check", "semigroup", "-s", "classical", "-n", "4", "--x", "q")
        assert code == 0, err
        assert "params: sequence=classical n=4 x=(q)/(1) y=-1/2\n" in out

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1/0", "zero denominator (offset 2)"),
            ("1/(1-q)", "expected digits after '/' (offset 2)"),
        ],
    )
    def test_bad_points_are_usage_errors(self, capsys, value, message):
        code, out, err = run_main(capsys, "check", "semigroup", "-s", "classical", "-n", "4", "--x", value)
        assert code == 2
        assert out == ""
        assert err == f"psipascal: error: parameter 'x': {message}\n"
        gen = run_main(capsys, "gen", "pascal", "-s", "classical", "-n", "2", "--x", value)
        assert gen == (2, "", f"psipascal: error: {message}\n")

    def test_gen_pascal_takes_the_point_degree_budget(self, capsys):
        # P[x] of size 64 holds x^63: degree 63 * 24 is within MAX_Q_EXPONENT // 64 = 1562
        argv = ["gen", "pascal", "-s", "classical", "-n", "64", "-f", "csv"]
        code, out, err = run_main(capsys, *argv, "--x", "q^24")
        assert code == 0, err
        assert out.splitlines()[-1].startswith("(q^1512)/(1),")
        code, out, err = run_main(capsys, *argv, "--x", "q^25")
        assert (code, out) == (2, "")
        assert err.startswith("psipascal: error: parameter 'x': degree 25 in q")


class TestSuiteCommand:
    def test_quick_suite_is_healthy(self, capsys):
        code, out, _ = run_main(capsys, "suite", "--profile", "quick", "-f", "json")
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["healthy"] is True
        assert summary["profile"] == "quick"

    def test_text_output_mentions_expected_failures(self, capsys):
        code, out, _ = run_main(capsys, "suite")
        assert code == 0
        assert "expected=expected-fail" in out
        assert "healthy=yes" in out


class TestUnwritableOutput:
    """An -o path that cannot be opened is a usage error (exit 2), not a crash."""

    # eq6 over q fails (exit 1 when its report is written); an unwritable
    # report still exits 2
    COMMANDS = {
        "seq": ("seq", "-s", "q", "-n", "3"),
        "gen": ("gen", "K", "-s", "q", "-n", "3"),
        "check": ("check", "eq6", "-s", "q", "-n", "3"),
        "suite": ("suite",),
    }

    @pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exit_2_with_one_line_naming_the_path(self, tmp_path, command, target):
        path = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
        result = run_subprocess(*self.COMMANDS[command], "-o", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(f"psipascal: error: cannot write {path}: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""
        # nothing was created: no partial file and no directory
        assert list(tmp_path.iterdir()) == []


class TestDeterminismEndToEnd:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "pascal", "-s", "fibonomial", "-n", "6", "--x", "1", "-f", "json"),
            ("gen", "fermat", "-s", "q", "-n", "4", "-f", "csv"),
            ("seq", "-s", "q", "-n", "5", "-f", "json"),
            ("check", "eq6", "-s", "q", "-n", "3", "-f", "json"),
        ],
    )
    def test_byte_identical_across_processes(self, argv):
        first = run_subprocess(*argv)
        second = run_subprocess(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_usage_error_exit_code_from_argparse(self):
        result = run_subprocess("gen", "pascal")
        assert result.returncode == 2
