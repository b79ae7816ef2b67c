"""Machine-speed calibration for timings taken on a shared, noisy host.

On small shared machines the speed available to one process drifts by tens
of percent over phases lasting tens of seconds, far longer than a run, and
wall time equals CPU time, so neither clock sees it. A fixed probe is timed
every few operations during a run, and each operation's time is scaled by
the probe's reference time over the probe time around it: the result is the
time the operation would take on a machine where the probe takes its
reference time. Probes belong to the benchmark and are independent of the
program, so a change to the program cannot move them.

Three probes, because no single one tracks every kind of work here. Each
operation names the probe that matches its work:

``kernel``   a pure-Python loop of float arithmetic and a math call, the
             instruction mix of the program's scalar solvers. It tracks
             in-process scalar work and misses process start-up entirely.
``numpy``    vector-matrix products on a small dense matrix: many short numpy
             calls, the mix of the truncated-matrix oracle and the MH grid
             searches, whose speed drifts differently from pure Python.
``process``  a fresh interpreter importing numpy: process start, file reads
             and extension loading, which is what a CLI process and a
             benchmark set-up spend their time on.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

_N = 10_000


def kernel() -> float:
    f = math.log1p
    s = 0.0
    x = 1.0
    for _ in range(_N):
        x = x * 1.0000001 + 1e-9
        s += f(x) / (x * x)
    return s


def _fastest_of_two(probe) -> float:
    """Probe time now: the faster of two runs, so an interrupt does not count."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - t0)
    return best


def measure() -> float:
    return _fastest_of_two(kernel)


_MATRIX = None


def matvec() -> float:
    global _MATRIX
    import numpy as np

    if _MATRIX is None:
        m = np.arange(1.0, 250.0 * 250.0 + 1.0).reshape(250, 250) % 7.0 + 1.0
        _MATRIX = m / m.sum(axis=1, keepdims=True)
    e = np.full(250, 1.0 / 250.0)
    s = 0.0
    for _ in range(100):
        e = e @ _MATRIX
        s += float(np.abs(e) @ _MATRIX[0])
    return s


def measure_numpy() -> float:
    return _fastest_of_two(matvec)


def import_numpy() -> None:
    """A fresh interpreter that imports numpy."""
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                   check=True, timeout=60)


def measure_process() -> float:
    return _fastest_of_two(import_numpy)


# probe name -> (probe, reference time in s, seconds between samples)
PROBES = {
    "kernel": (measure, 1e-3, 0.1),
    "numpy": (measure_numpy, 1e-3, 0.1),
    "process": (measure_process, 0.1, 1.0),
}


class Calibration:
    """A series of (time, probe time) samples taken during a run."""

    def __init__(self, probe: str = "kernel") -> None:
        self.measure, self.reference_s, self.interval = PROBES[probe]
        self.times: list[float] = []
        self.probe_s: list[float] = []

    def sample(self) -> None:
        p = self.measure()
        self.times.append(time.perf_counter())
        self.probe_s.append(p)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.interval

    def factor(self, t: float, half_window: int = 4) -> float:
        """Reference time over the median probe time of the samples nearest t."""
        i = bisect.bisect_left(self.times, t)
        lo, hi = max(0, i - half_window), min(len(self.times), i + half_window)
        return self.reference_s / statistics.median(self.probe_s[lo:hi])
