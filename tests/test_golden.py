"""Pinned stdout digests, exit codes and error messages of small commands.

The digests were recorded once from the reference implementations of the
polynomial kernel, of the matrix layer and of the identity engine and are
never re-recorded: a rewrite of any of them must reproduce every byte, so
any drift in the canonical form of a rational function, in its rendering,
in a matrix product, in a parameter echo, in the location of a
counterexample or in a parameter error fails here.
"""

import hashlib
import subprocess
import sys

import pytest

GOLDEN = [
    (
        ["check", "eq4", "-s", "q", "-n", "12"],
        0,
        51,
        "7f015f5c6e7f0dff6e2c22f19e1141a5272ae2196356c8cd3a275c746cda73ae",
    ),
    (
        ["check", "eq11-basic", "-s", "q", "-n", "10", "--x=523/607", "--y=-541/613"],
        0,
        79,
        "b524c376ca61308de28c930362fd67f4cc577a9ba117d8695bf2ad69cbce687b",
    ),
    (
        ["check", "eq8", "-s", "qhat-power:q", "--i", "4", "--j", "4", "-m", "6"],
        0,
        69,
        "51129920fa14d5ca72e1a82090677babbc8aca2e0c378fc345978a77c2ed1a5c",
    ),
    (
        ["gen", "pascal", "-s", "q", "-n", "8", "--x=2/3"],
        0,
        1657,
        "884c601404cd8022d8419223b89550268dadb7c90e1c26035d1eb522fd31b171",
    ),
    (
        ["gen", "pascal", "-s", "q", "-n", "6", "--x=(2 + q)/(3 - 5*q^2)", "-f", "json"],
        0,
        1720,
        "c7f047498b5305d742802b208b3afef3f8439bc0766237d2e7ef46ebec5ce09a",
    ),
    (
        ["gen", "pascal", "-s", "classical", "-n", "6", "--x=(1 - 2*q)/(4 + 6*q)", "-f", "latex"],
        0,
        1773,
        "aa1283f823d1dbeb6b893bbb72fb3c54caea909cf7b58015a8cc785eca8164e9",
    ),
    (
        ["seq", "-s", "q", "-n", "9"],
        0,
        2618,
        "765ccaea5f318eb996cddfccd907288995e8e0411fa0a214e538ad50f9939e56",
    ),
    # matrix layer: products with the generator, default points include q itself
    (
        ["check", "exp-vs-closed", "-s", "q", "-n", "6"],
        0,
        82,
        "c64e8606febe1f3f089114b81572b73cee232c500a33facdaee62ae3f75ceb93",
    ),
    (
        ["check", "nilpotent", "-s", "fibonomial", "-n", "12"],
        0,
        66,
        "b1624f4921b871a05b7da39b71c7703850b394c6a9be00987fff70687632eb93",
    ),
    # an expected failure through the lower x square product: pins the
    # counterexample location and the exit code
    (
        ["check", "eq6", "-s", "q", "-n", "6"],
        1,
        99,
        "e859f78d1f408756e1b357a49c50244f3d39bef20cfc2a271b35d430c9e06c1a",
    ),
    (
        ["check", "semigroup", "-s", "q=2", "-n", "8", "--x=3/5", "--y=-7/11"],
        0,
        72,
        "3f4c96f1aecf5c49d0afdd3bce338d077bb10d20198a46e33ac49b854331b082",
    ),
    (
        ["gen", "fermat", "-s", "q", "-n", "5", "-f", "json"],
        0,
        1207,
        "bc66e1c609809629f80115cf283a6738ff7748ef9c1e187bb4591a14be90bf97",
    ),
    # engine: one entry per sweep shape, recorded before the identity
    # catalog became a table of rows
    (
        ["check", "eq5", "-s", "fibonomial", "-n", "8"],
        0,
        59,
        "d771243e2f8d27f50789f3da6596deb3a467ba91920452c9d111e99dd8346ad6",
    ),
    (
        ["check", "eq9", "-s", "q", "-n", "5"],
        0,
        50,
        "14d4dc90625e2581da15631bebe8f65c8e2cf40a9650940051b1ce039a609385",
    ),
    (
        ["check", "eq10", "-s", "q=1/3", "--i", "4", "--j", "3"],
        0,
        59,
        "47a47cf9559c9c3092603244b1741f50b206092e7dd7433565686bc93d817b45",
    ),
    (
        ["check", "odd-cancel", "-s", "q", "-n", "3"],
        0,
        70,
        "ff817e4595c9305ecbcde84c5558e2826ce39a37ded07ca03592b57df4ee2a11",
    ),
    (
        ["check", "normality", "-s", "q", "-n", "6"],
        1,
        102,
        "9830a3cf44fb35889d26c0b11b257d3293de5d5977fc41f137fa6a97bca08411",
    ),
    (
        ["check", "exp-vs-closed", "-s", "classical", "-n", "5"],
        0,
        90,
        "e7774c40f683a62ef48a8966b653bf2d7a826a3f6c585b74ad2238389ecac01b",
    ),
    # operator binomials, recorded before the Pascal rows became one
    # triangle per degree: ratio and power conventions, a rational base and
    # an asymmetric sweep
    (
        ["check", "eq8", "-s", "qhat-paper:q", "--i", "6", "--j", "6", "-m", "5"],
        0,
        69,
        "ec189f2460e7dbf40a99b3029c143666ee9bf2293161e4d54fe75c0f7b51efd0",
    ),
    (
        ["check", "eq8", "-s", "qhat-paper:fibonomial", "--i", "6", "--j", "6", "-m", "6"],
        0,
        78,
        "7bfe95b4b76e8b43086a7ac0a1e3dacd0e2f4daa135521952daa7527b2577104",
    ),
    (
        ["check", "eq8", "-s", "qhat-power:q=-1/2", "--i", "5", "--j", "5", "-m", "7"],
        0,
        74,
        "a6f1dc9cd9455bc7b928158cf691dfa1417cf015221f0e5132a842565daa7c03",
    ),
    (
        ["check", "eq8", "-s", "qhat-power:q", "--i", "8", "--j", "3", "-m", "9"],
        0,
        69,
        "ffa8c6b79f734ffb6d187dc7b1e135ffb6e9e4cab2ef30d895af91357a16747c",
    ),
    # the whole suite; the full json output is also what bench/reference.json holds
    (
        ["suite", "--profile", "quick", "-f", "json"],
        0,
        8252,
        "58283ffda689c871c4e365bd36284284859f2f8f9ee4ee09dfb9bb42a2484274",
    ),
    (
        ["suite", "--profile", "quick"],
        0,
        3690,
        "4e45f4e42cfa928f33be7eb86d7465fb08903fd69b2429a05b6005efd88cc7bb",
    ),
    (
        ["suite", "--profile", "full", "-f", "json"],
        0,
        8286,
        "e96294835592807962d4cbb2e635f4a220da2973f18e93c8abff903af23c20f4",
    ),
    (
        ["suite", "--profile", "full"],
        0,
        3724,
        "68c837c1dcee9db1520c490544888bc85712d2b46245621118c3b3f6cacfb7ff",
    ),
]

# parameter errors: exit code 2, nothing on stdout and this exact message
ERRORS = [
    (
        ["check", "eq12", "-s", "q"],
        "unknown identity 'eq12'; known ids: eq4, eq5, eq6, eq8, eq9, eq10, eq11-basic, "
        "semigroup, exp-vs-closed, nilpotent, odd-cancel, normality",
    ),
    (
        ["check", "eq4", "-s", "q", "-n", "4", "--x", "2"],
        "identity 'eq4' does not take parameter(s) x; allowed: sequence, n",
    ),
    (["check", "eq9", "-s", "classical"], "eq9 needs a q-analog sequence, got 'classical'"),
    (["check", "eq4", "-n", "4"], "missing parameter 'sequence'"),
    # a custom sequence shorter than the sweep
    (
        ["check", "eq4", "-s", "custom:1,2", "-n", "10"],
        "custom sequence defines integers only up to n = 2",
    ),
    # q^k above scalars.MAX_Q_EXPONENT is refused before any coefficient list is built
    (
        ["check", "semigroup", "-s", "q", "-n", "2", "--x", "q^1000000000"],
        "parameter 'x': exponent of q above 100000 (offset 2)",
    ),
    # the offset of a custom: entry counts from the selector's first character
    (
        ["seq", "-s", "custom:1,(1)/(2 + q^100001)", "-n", "2"],
        "custom sequence entry 2: exponent of q above 100000 (offset 20)",
    ),
    # a digit run above scalars.MAX_DIGITS is refused before int() sees it
    (
        ["check", "semigroup", "-s", "classical", "-n", "2", "--x", "1" * 5000],
        "parameter 'x': more than 4300 digits in one number (offset 0)",
    ),
    (
        ["check", "semigroup", "-s", "q", "-n", "2", "--x", "q^" + "1" * 5000],
        "parameter 'x': more than 4300 digits in one number (offset 2)",
    ),
]


def _test_id(argv):
    return " ".join(arg if len(arg) <= 40 else f"<{len(arg)} characters>" for arg in argv)


@pytest.mark.parametrize(
    "argv, exit_code, size, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_stdout_matches_pinned_digest(argv, exit_code, size, digest):
    proc = subprocess.run([sys.executable, "-m", "psipascal", *argv], capture_output=True)
    assert proc.returncode == exit_code, proc.stderr.decode()
    assert len(proc.stdout) == size
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv, message", ERRORS, ids=[_test_id(e[0]) for e in ERRORS])
def test_parameter_error_matches_pinned_message(argv, message):
    proc = subprocess.run([sys.executable, "-m", "psipascal", *argv], capture_output=True)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"psipascal: error: {message}\n"
