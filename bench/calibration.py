"""How fast the benchmark's CPU is while each measured child runs.

On a shared virtual machine the speed of a CPU changes by up to 1.7x within
seconds, as other tenants come and go, and each virtual CPU changes on its
own.  Samples taken only between two children miss what happens during a
child that runs for seconds.  So the timed run pins itself, its children
and one ``SpeedProbe`` to the same CPU.  The probe runs at the lowest
priority (nice 19), takes about 1.5% of the CPU while a child runs, and
times a fixed piece of work in CPU seconds over and over, in small units
interleaved with the child's time slices.  A child's time multiplied by
``speed_factor`` over the child's interval is its time at the reference
speed: the spread of that product from run to run is a fraction of the
spread of the raw time.

The work mixes what psipascal spends its time on (small-int bytecode,
``Fraction`` arithmetic, big-int products, tuple-keyed dicts) and uses only
the standard library, so no change to psipascal changes it.
"""

from __future__ import annotations

import os
import subprocess
import sys

# CPU seconds per probe unit at the reference speed: between the fast
# (0.42 ms) and the slow (0.78 ms) state of a 2-CPU Xeon virtual machine
# under CPython 3.11
REFERENCE_UNIT_S = 6.0e-4
# units that ended this long before the interval asked about are dropped
KEEP_S = 10.0
# an interval with fewer units than this borrows the units nearest to it
MIN_UNITS = 24

PROBE_CODE = r"""
import os, sys, time
from fractions import Fraction

os.nice(19)
fractions = tuple(Fraction(3 ** (i % 50) + i, 2 ** (i % 40) + 7) for i in range(8))
poly = tuple((3 ** (i % 60)) * (-1) ** i for i in range(24))

def unit():
    total = 0
    for i in range(1500):
        total += i * i % 7
    acc = Fraction(0)
    for x in fractions:
        for y in fractions:
            acc += x * y
    product = [0] * (2 * len(poly))
    for i, x in enumerate(poly):
        for j, y in enumerate(poly):
            product[i + j] += x * y
    table = {}
    for i in range(300):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i

out, cpu, wall = sys.stdout, time.thread_time, time.perf_counter
try:
    while True:
        start = cpu()
        unit()
        used = cpu() - start
        out.write(f"{wall():.6f} {used:.9f}\n")
        out.flush()
except BrokenPipeError:  # the benchmark has ended, however it ended
    os._exit(0)
"""


class ProbeError(RuntimeError):
    """The speed probe stopped or reported nothing to measure with."""


class SpeedProbe:
    """A low-priority process on this CPU that reports (end time, CPU seconds)
    for each unit of fixed work it completes."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        os.set_blocking(self._proc.stdout.fileno(), False)
        self._pending = b""
        self.units: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)

    def _drain(self) -> None:
        while True:
            try:
                data = os.read(self._proc.stdout.fileno(), 1 << 16)
            except BlockingIOError:
                break
            if not data:
                raise ProbeError("the speed probe stopped")
            self._pending += data
        *lines, self._pending = self._pending.split(b"\n")
        self.units.extend(tuple(map(float, line.split())) for line in lines)

    def speed_factor(self, start: float, end: float) -> float:
        """Factor from raw seconds in [start, end] to seconds at the reference speed."""
        self._drain()
        inside = [cpu for t, cpu in self.units if start <= t <= end]
        if len(inside) < MIN_UNITS:
            middle = (start + end) / 2
            nearest = sorted(self.units, key=lambda u: abs(u[0] - middle))[:MIN_UNITS]
            inside = [cpu for _, cpu in nearest]
        if not inside:
            raise ProbeError("the speed probe reported no work")
        self.units = [u for u in self.units if u[0] >= start - KEEP_S]
        return REFERENCE_UNIT_S / (sum(inside) / len(inside))

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
