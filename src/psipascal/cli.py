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
from .engine import InvalidParamsError, check_point_degree, run_identity, run_suite
from .matrices import fermat, k_matrix, matrix_document, matrix_to_latex, pascal_closed
from .scalars import field_of, scalar_to_string
from .sequences import from_selector

_USAGE_ERROR = 2
_CHECK_FAILED = 1

# Largest -n of seq and of gen, over Q and over Q(q) (the sequence's field,
# or a pascal point's): the largest sizes measured to end within a minute
# for the slowest built-in sequence of the field (q=2 over Q, q over Q(q)),
# gen for its fermat kind
_SIZE_CAPS = {"seq": (700, 120), "gen": (256, 64)}

# argparse reads a value such as "-5/7" or "-q" as an option, so a negative
# scalar given after --x/--y is attached to its option before parsing
_SCALAR_OPTIONS = ("--x", "--y")
_NEGATIVE_SCALAR = re.compile(r"-[0-9q]")

# check's parameter options: flags, the schema key they fill, type and help
_CHECK_PARAMS = (
    (("-n", "--size"), "n", int, "size / sweep bound n"),
    (("--x",), "x", str, "scalar parameter x"),
    (("--y",), "y", str, "scalar parameter y"),
    (("-m", "--degree"), "m", int, "monomial degree bound m"),
    (("--i",), "i", int, "bound for the index i"),
    (("--j",), "j", int, "bound for the index j"),
)

# the output formats of each subcommand, the first the default
_FORMATS = {
    "seq": ("text", "json", "csv"),
    "gen": ("text", "json", "csv", "latex"),
    "check": ("text", "json"),
    "suite": ("text", "json"),
}


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

    gen = sub.add_parser("gen", help="emit a matrix")
    gen.add_argument("kind", choices=["K", "pascal", "fermat"])
    gen.add_argument("-s", "--sequence", required=True, help="sequence selector")
    gen.add_argument("-n", "--size", type=int, required=True)
    gen.add_argument("--x", help="scalar argument for the pascal kind (default 1)")

    check = sub.add_parser("check", help="run one identity")
    check.add_argument("identity", help="identity id, e.g. eq4 or nilpotent")
    check.add_argument("-s", "--sequence", help="sequence selector, or qhat-... operator selector for eq8")
    for flags, dest, kind, text in _CHECK_PARAMS:
        # the metavar argparse would derive from the long flag
        check.add_argument(*flags, dest=dest, metavar=flags[-1][2:].upper(), type=kind, help=text)

    suite = sub.add_parser("suite", help="run every identity over the built-in sequences")
    suite.add_argument("--profile", choices=["quick", "full"], default="quick")

    for command, formats in _FORMATS.items():
        command_parser = sub.choices[command]
        command_parser.add_argument("-f", "--format", choices=formats, default=formats[0])
        command_parser.add_argument("-o", "--out", help="write output to this path instead of stdout")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    # buffered once; a trailing newline terminates every output
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _capped_size(args, field) -> int:
    cap = _SIZE_CAPS[args.command][field.symbolic]
    if args.size > cap:
        raise InvalidParamsError(f"-n must be <= {cap} over {field.name}, got {args.size}")
    return args.size


def _cmd_seq(args) -> tuple:
    seq = from_selector(args.sequence)
    if args.size < 0:
        raise InvalidParamsError("-n must be >= 0")
    n = _capped_size(args, seq.field)
    columns = {
        "integers": [scalar_to_string(seq.integer(k)) for k in range(1, n + 1)],
        "factorials": [scalar_to_string(seq.factorial(k)) for k in range(n + 1)],
        "binomials": [scalar_to_string(v) for v in seq.binomial_row(n)],
    }
    if args.format == "json":
        obj = {"sequence": seq.selector, "field": seq.field.name, "n": n, **columns}
        return json.dumps(obj, indent=2), True
    if args.format == "csv":
        rows = zip(["-", *columns["integers"]], columns["factorials"], columns["binomials"])
        lines = ["k,integer,factorial,binomial"] + [",".join((str(k), *row)) for k, row in enumerate(rows)]
    else:
        lines = [f"sequence: {seq.selector}", f"field: {seq.field.name}", f"n: {n}"]
        lines += [" ".join([f"{label}:", *values]) for label, values in columns.items()]
    return "\n".join(lines), True


def _cmd_gen(args) -> tuple:
    seq = from_selector(args.sequence)
    n = _capped_size(args, seq.field)
    if args.kind == "pascal":
        x = seq.field.parse(args.x if args.x is not None else "1")
        # a Q(q) point makes the matrix Q(q): -n takes the cap of its field
        _capped_size(args, field_of(x))
        # P[x] of size n holds the powers of x up to x^(n-1)
        check_point_degree("x", x, n, n - 1)
        matrix = pascal_closed(seq, n, x)
    elif args.x is not None:
        raise InvalidParamsError(f"--x does not apply to kind {args.kind!r}")
    else:
        x = None
        matrix = k_matrix(seq, n) if args.kind == "K" else fermat(seq, n)
    if args.format == "latex":
        return matrix_to_latex(matrix), True
    # the document renders every entry, so only the formats that print it build it
    return getattr(matrix_document(args.kind, seq, matrix, x), f"to_{args.format}")(), True


def _cmd_check(args) -> tuple:
    selector = "operator" if (args.sequence or "").startswith("qhat-") else "sequence"
    given = [(selector, args.sequence)] + [(dest, getattr(args, dest)) for _, dest, *_ in _CHECK_PARAMS]
    report = run_identity(args.identity, {key: value for key, value in given if value is not None})
    if args.format == "json":
        return json.dumps(report.to_json_obj(), separators=(",", ":")), report.passed
    lines = [
        f"identity: {report.identity}",
        "params: " + " ".join(f"{k}={v}" for k, v in report.params.items()),
        f"status: {report.status.upper()}",
    ]
    if report.counterexample is not None:
        lines.append(f"counterexample: {report.counterexample}")
    return "\n".join(lines), report.passed


def _cmd_suite(args) -> tuple:
    result = run_suite(args.profile)
    return result.to_json_lines() if args.format == "json" else result.to_text(), result.healthy


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
    # each handler returns its whole output and whether the run was healthy
    handlers = {"seq": _cmd_seq, "gen": _cmd_gen, "check": _cmd_check, "suite": _cmd_suite}
    # exact values print at any length: the interpreter's cap on int-to-text
    # conversion (3.10.7 and later) is lifted, as scalar text is capped by
    # the parser itself (scalars.MAX_DIGITS)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        text, healthy = handlers[args.command](args)
        _emit(text, args.out)
    except ValueError as exc:
        # every parameter error: UnknownIdentityError, InvalidParamsError,
        # AdmissibilityError and ScalarParseError all subclass ValueError
        print(f"psipascal: error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except OSError as exc:
        # the -o file (or stdout) could not be opened or written
        target = args.out or "standard output"
        print(f"psipascal: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return _USAGE_ERROR
    return 0 if healthy else _CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
