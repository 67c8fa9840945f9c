"""The four benchmark workloads, their seeded inputs and the output check.

Each workload is a fixed list of ``python -m psipascal`` command lines.  The
seed only chooses the rational points passed as ``--x=<v>``/``--y=<v>``;
commands without scalar inputs ignore it.  Numerators and denominators are
primes of one fixed bit length, so the work per command stays comparable
from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# numerator and denominator of every seeded point are distinct primes in
# [2^9, 2^10): no seed gets cheaper through a shared factor that cancels
_PRIMES = tuple(p for p in range(512, 1024) if all(p % d for d in range(2, 32)))


@dataclass(frozen=True)
class Workload:
    name: str
    # sequence and operator selectors the commands build; setup_s builds these
    sequences: tuple[str, ...]
    operators: tuple[str, ...]
    # True when no command may ever construct a RationalFunction
    rationals_only: bool

    def commands(self, seed: int) -> list[list[str]]:
        """The psipascal argument lists of one pass, in run order."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.name == "suite-full":
            return [["suite", "--profile", "full", "-f", "json"]]
        if self.name == "q-dense":
            x, y = _distinct_points(rng, 2)
            return [
                ["check", "eq4", "-s", "q", "-n", "24"],
                ["check", "eq11-basic", "-s", "q", "-n", "20", f"--x={x}", f"--y={y}"],
            ]
        if self.name == "q-sparse":
            return [["check", "eq8", "-s", "qhat-power:q", "--i", "10", "--j", "10", "-m", "14"]]
        if self.name == "rational-deep":
            (c,) = _distinct_points(rng, 1)
            return [
                ["check", "exp-vs-closed", "-s", "fibonomial", "-n", "32", f"--x={c}"],
                ["check", "nilpotent", "-s", "fibonomial", "-n", "40"],
            ]
        raise KeyError(self.name)


_SUITE_SEQUENCES = ("classical", "q", "q=2", "fibonomial")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-full",
            _SUITE_SEQUENCES,
            tuple(f"qhat-paper:{s}" for s in _SUITE_SEQUENCES) + ("qhat-power:q",),
            rationals_only=False,
        ),
        Workload("q-dense", ("q",), (), rationals_only=False),
        Workload("q-sparse", (), ("qhat-power:q",), rationals_only=False),
        Workload("rational-deep", ("fibonomial",), (), rationals_only=True),
    )
}


def _distinct_points(rng: random.Random, count: int) -> list[str]:
    """Canonical rational strings num/den with random signs, where all the
    numerators and denominators are different primes, so x + y and x - y
    are nonzero and share no factor that cancels."""
    primes = rng.sample(_PRIMES, 2 * count)
    return [
        f"{rng.choice(('', '-'))}{primes[2 * i]}/{primes[2 * i + 1]}" for i in range(count)
    ]


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


class OutputCheck:
    """Compares each command's exit code and stdout bytes with what it must be.

    A command recorded in ``reference.json`` must reproduce the recorded
    bytes and exit code.  Every command must exit 0 (all catalog entries
    here are must-pass), and every later run of a command in this process
    must repeat the bytes of its first run, traced or not.
    """

    def __init__(self, reference: dict[str, dict]):
        self._reference = reference
        self._first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @classmethod
    def load(cls) -> "OutputCheck":
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            return cls(json.load(handle)["commands"])

    def record(self, argv: list[str], exit_code: int, stdout: bytes, stderr: bytes = b"") -> None:
        key = command_key(argv)
        self.attempted += 1
        problem = None
        ref = self._reference.get(key)
        if exit_code != 0:
            problem = f"exit {exit_code}: {stderr.decode(errors='replace').strip()[-300:]}"
        elif ref is not None and (ref["exit"], ref["stdout"].encode()) != (exit_code, stdout):
            problem = "stdout differs from reference.json"
        elif self._first.setdefault(key, stdout) != stdout:
            problem = "stdout differs from an earlier run of the same command"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")

    @property
    def mismatch_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
