"""Command-line front door.

Subcommands: seq (tabulate integers, factorials, binomials), gen (emit K,
Pascal or symmetric binomial matrices), check (run one identity), suite
(run them all).  Exit codes: 0 healthy, 1 an identity check failed, 2 usage
or parameter error, or an output file that cannot be written.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import __version__
from .engine import InvalidParamsError, UnknownIdentityError, run_identity, run_suite
from .matrices import (
    fermat,
    k_matrix,
    matrix_document,
    matrix_to_latex,
    pascal_closed,
)
from .scalars import ScalarParseError, scalar_to_string
from .sequences import AdmissibilityError, from_selector

_USAGE_ERROR = 2
_CHECK_FAILED = 1

# argparse reads a value such as "-5/7" or "-q" as an option, so a negative
# scalar given after --x/--y is attached to its option before parsing
_SCALAR_OPTIONS = ("--x", "--y")
_NEGATIVE_SCALAR = re.compile(r"-[0-9q]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psipascal",
        description="Exact Pascal-type matrices over admissible sequences, "
        "and a mechanical checker for the identities they generate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="tabulate integers, factorials and a binomial row")
    seq.add_argument("-s", "--sequence", required=True, help="sequence selector")
    seq.add_argument("-n", "--size", type=int, required=True, help="row index n")
    seq.add_argument("-f", "--format", choices=["text", "json", "csv"], default="text")
    seq.add_argument("-o", "--out", help="write output to this path instead of stdout")

    gen = sub.add_parser("gen", help="emit a matrix")
    gen.add_argument("kind", choices=["K", "pascal", "fermat"])
    gen.add_argument("-s", "--sequence", required=True, help="sequence selector")
    gen.add_argument("-n", "--size", type=int, required=True)
    gen.add_argument("--x", help="scalar argument for the pascal kind (default 1)")
    gen.add_argument("-f", "--format", choices=["text", "json", "csv", "latex"], default="text")
    gen.add_argument("-o", "--out")

    check = sub.add_parser("check", help="run one identity")
    check.add_argument("identity", help="identity id, e.g. eq4 or nilpotent")
    check.add_argument("-s", "--sequence", help="sequence selector, or qhat-... operator selector for eq8")
    check.add_argument("-n", "--size", type=int, help="size / sweep bound n")
    check.add_argument("--x", help="scalar parameter x")
    check.add_argument("--y", help="scalar parameter y")
    check.add_argument("-m", "--degree", type=int, help="monomial degree bound m")
    check.add_argument("--i", type=int, help="bound for the index i")
    check.add_argument("--j", type=int, help="bound for the index j")
    check.add_argument("-f", "--format", choices=["text", "json"], default="text")
    check.add_argument("-o", "--out")

    suite = sub.add_parser("suite", help="run every identity over the built-in sequences")
    suite.add_argument("--profile", choices=["quick", "full"], default="quick")
    suite.add_argument("-f", "--format", choices=["text", "json"], default="text")
    suite.add_argument("-o", "--out")

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    # buffered once; a trailing newline terminates every output
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_seq(args) -> int:
    seq = from_selector(args.sequence)
    n = args.size
    if n < 0:
        raise InvalidParamsError("-n must be >= 0")
    integers = [seq.integer(k) for k in range(1, n + 1)]
    factorials = [seq.factorial(k) for k in range(n + 1)]
    binomials = seq.binomial_row(n)
    if args.format == "json":
        obj = {
            "sequence": seq.selector,
            "field": seq.field.name,
            "n": n,
            "integers": [scalar_to_string(v) for v in integers],
            "factorials": [scalar_to_string(v) for v in factorials],
            "binomials": [scalar_to_string(v) for v in binomials],
        }
        _emit(json.dumps(obj, indent=2), args.out)
    elif args.format == "csv":
        lines = ["k,integer,factorial,binomial"]
        for k in range(n + 1):
            integer = scalar_to_string(integers[k - 1]) if k >= 1 else "-"
            lines.append(
                f"{k},{integer},{scalar_to_string(factorials[k])},{scalar_to_string(binomials[k])}"
            )
        _emit("\n".join(lines), args.out)
    else:
        def row(label, values):
            joined = " ".join(scalar_to_string(v) for v in values)
            return f"{label}: {joined}" if joined else f"{label}:"

        lines = [
            f"sequence: {seq.selector}",
            f"field: {seq.field.name}",
            f"n: {n}",
            row("integers", integers),
            row("factorials", factorials),
            row("binomials", binomials),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_gen(args) -> int:
    seq = from_selector(args.sequence)
    n = args.size
    if args.kind == "pascal":
        x = seq.field.parse(args.x if args.x is not None else "1")
        matrix = pascal_closed(seq, n, x)
        document = matrix_document("pascal", seq, matrix, x)
    else:
        if args.x is not None:
            raise InvalidParamsError(f"--x does not apply to kind {args.kind!r}")
        matrix = k_matrix(seq, n) if args.kind == "K" else fermat(seq, n)
        document = matrix_document(args.kind, seq, matrix)
    if args.format == "json":
        _emit(document.to_json(), args.out)
    elif args.format == "csv":
        _emit(document.to_csv(), args.out)
    elif args.format == "latex":
        _emit(matrix_to_latex(matrix), args.out)
    else:
        _emit(document.to_text(), args.out)
    return 0


def _cmd_check(args) -> int:
    selector = "operator" if (args.sequence or "").startswith("qhat-") else "sequence"
    given = (
        (selector, args.sequence),
        ("n", args.size),
        ("x", args.x),
        ("y", args.y),
        ("m", args.degree),
        ("i", args.i),
        ("j", args.j),
    )
    params = {key: value for key, value in given if value is not None}
    report = run_identity(args.identity, params)
    if args.format == "json":
        _emit(json.dumps(report.to_json_obj(), separators=(",", ":")), args.out)
    else:
        lines = [
            f"identity: {report.identity}",
            "params: " + " ".join(f"{k}={v}" for k, v in report.params.items()),
            f"status: {report.status.upper()}",
        ]
        if report.counterexample is not None:
            lines.append(f"counterexample: {report.counterexample}")
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else _CHECK_FAILED


def _cmd_suite(args) -> int:
    result = run_suite(args.profile)
    if args.format == "json":
        _emit(result.to_json_lines(), args.out)
    else:
        _emit(result.to_text(), args.out)
    return 0 if result.healthy else _CHECK_FAILED


def _attach_negative_scalars(argv: list[str]) -> list[str]:
    """Rewrite "--x -5/7" as "--x=-5/7"; every other argument is kept as is."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SCALAR_OPTIONS and _NEGATIVE_SCALAR.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_scalars(sys.argv[1:] if argv is None else argv))
    handlers = {"seq": _cmd_seq, "gen": _cmd_gen, "check": _cmd_check, "suite": _cmd_suite}
    # exact values print at any length: the interpreter's cap on int-to-text
    # conversion (3.10.7 and later) is lifted, as scalar text is capped by
    # the parser itself (scalars.MAX_DIGITS)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return handlers[args.command](args)
    except (
        UnknownIdentityError,
        InvalidParamsError,
        AdmissibilityError,
        ScalarParseError,
        ValueError,
    ) as exc:
        print(f"psipascal: error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except OSError as exc:
        # the -o file (or stdout) could not be opened or written
        target = args.out or "standard output"
        print(f"psipascal: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
