"""Pinned stdout digests of small symbolic commands.

The digests were recorded once from the reference implementation of the
polynomial kernel and are never re-recorded: a kernel rewrite must
reproduce every byte, so any drift in the canonical form of a rational
function or in its rendering fails here.
"""

import hashlib
import subprocess
import sys

import pytest

GOLDEN = [
    (
        ["check", "eq4", "-s", "q", "-n", "12"],
        51,
        "7f015f5c6e7f0dff6e2c22f19e1141a5272ae2196356c8cd3a275c746cda73ae",
    ),
    (
        ["check", "eq11-basic", "-s", "q", "-n", "10", "--x=523/607", "--y=-541/613"],
        79,
        "b524c376ca61308de28c930362fd67f4cc577a9ba117d8695bf2ad69cbce687b",
    ),
    (
        ["check", "eq8", "-s", "qhat-power:q", "--i", "4", "--j", "4", "-m", "6"],
        69,
        "51129920fa14d5ca72e1a82090677babbc8aca2e0c378fc345978a77c2ed1a5c",
    ),
    (
        ["gen", "pascal", "-s", "q", "-n", "8", "--x=2/3"],
        1657,
        "884c601404cd8022d8419223b89550268dadb7c90e1c26035d1eb522fd31b171",
    ),
    (
        ["gen", "pascal", "-s", "q", "-n", "6", "--x=(2 + q)/(3 - 5*q^2)", "-f", "json"],
        1720,
        "c7f047498b5305d742802b208b3afef3f8439bc0766237d2e7ef46ebec5ce09a",
    ),
    (
        ["gen", "pascal", "-s", "classical", "-n", "6", "--x=(1 - 2*q)/(4 + 6*q)", "-f", "latex"],
        1773,
        "aa1283f823d1dbeb6b893bbb72fb3c54caea909cf7b58015a8cc785eca8164e9",
    ),
    (
        ["seq", "-s", "q", "-n", "9"],
        2618,
        "765ccaea5f318eb996cddfccd907288995e8e0411fa0a214e538ad50f9939e56",
    ),
]


@pytest.mark.parametrize("argv, size, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_matches_pinned_digest(argv, size, digest):
    proc = subprocess.run([sys.executable, "-m", "psipascal", *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout) == size
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
