"""Host-speed reference: a fixed piece of work timed throughout a run.

The CPU speed of a shared host drifts by a quarter or more, over seconds
and over minutes, and every timing of a run drifts with it.  A run
therefore also times this reference kernel, a fixed mix of interpreter work
and small NumPy operations like the program's, at most every
``INTERVAL_S`` seconds between its timed slices.  The run's *host factor*
is the median kernel time over ``NOMINAL_S``, the kernel's median on the
2-core host the benchmark was tuned on, raised to ``ELASTICITY``.  Every
time the benchmark reports is divided by the host factor: it reads as
seconds on that host.  The raw figures and the factor are in the run
record.

The kernel is the benchmark's own code: no change to the program changes
it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median seconds of one :func:`kernel` call on the reference host
#: (2 cores, numpy 2.4.6, OpenBLAS 0.3.31).
NOMINAL_S = 0.00081

#: How far the program's times move with the kernel's: the slope of log
#: time on log kernel time over 20 runs on the tuning host was 0.72-0.86
#: for the end-to-end times, 0.8 over all of them.
ELASTICITY = 0.8

#: Least seconds between two kernel samples.
INTERVAL_S = 0.05

_A = np.linspace(0.0, 1.0, 256).reshape(16, 16)


def kernel() -> float:
    """Interpreter arithmetic, a dict and small array operations."""
    total = 0.0
    table = {}
    for i in range(1500):
        total += i * 0.5
        table[i & 31] = total
    a = _A
    for _ in range(100):
        a = np.tanh(a @ _A + 0.1)
    return total + float(a.sum()) + len(table)


class HostSpeed:
    """Samples :func:`kernel` while a run measures."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the kernel if ``INTERVAL_S`` has passed since the last time."""
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def factor(self) -> float:
        """``(median kernel seconds / NOMINAL_S) ** ELASTICITY``; 1.0 with
        no samples."""
        if not self.samples:
            return 1.0
        return (statistics.median(self.samples) / NOMINAL_S) ** ELASTICITY
