"""Fixed reference kernels that track how fast the machine runs right now.

On a shared host the speed of one core drifts by 10-20 % over minutes, in
phases longer than a benchmark run, so two runs of the same code at
different times disagree by more than any useful regression bound.  The
benchmark therefore runs a kernel in short bursts between ops (outside op
timing) and rescales each op's time by how long the kernel took around it,
relative to the kernel's nominal time.

The drift does not hit all work alike: interpreted code slowed about twice
as much as numpy code in the same phase.  So there are two kernels, one per
kind of work catsim does, and each workload names the one like its ops
(``REFERENCE`` in ``workloads.py``).  Neither touches catsim, so a change to
catsim cannot change them, and neither makes a BLAS call, so the BLAS thread
setting cannot change them either.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["KERNELS", "NOMINAL_S", "SpeedProbe"]


@dataclass(frozen=True)
class _Point:
    x: float
    k: int


def python_kernel() -> float:
    """Interpreted float arithmetic on small frozen dataclasses, and string
    formatting, like ``analytic`` and ``experiments`` (about 17 ms)."""
    acc = 0.0
    rows = []
    for i in range(8000):
        pt = _Point(i * 1e-5, i % 17)
        y = math.sqrt(1.0 + pt.x) * math.exp(-pt.x) + (1.0 - pt.x / 2.0) ** pt.k
        rows.append(format(y, ".12g"))
        acc += y
    return acc + len(",".join(rows))


_rng = np.random.default_rng(20121207)
_A = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))


def numpy_kernel() -> float:
    """Elementwise passes and a conjugate transpose over a 256x256 complex
    array, like ``noise`` and ``core`` (about 18 ms)."""
    acc = 0.0
    a = _A
    for _ in range(24):
        a = 0.5 * (a + a.conj().T) * 0.999
        acc += float(np.abs(a).sum())
    return acc


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}

# Median time of one call of each kernel on the 2-vCPU Intel Xeon machine the
# benchmark was built on (Python 3.11, numpy 2.4).  They only set the scale
# of the rescaled figures: with them those read as seconds on that machine.
NOMINAL_S = {"python": 0.017, "numpy": 0.018}


class SpeedProbe:
    """Runs one kernel in bursts and keeps each burst's median call time."""

    def __init__(self, kernel, clock=time.perf_counter):
        self.kernel = kernel
        self.clock = clock
        self.bursts = []

    def burst(self, seconds: float, min_calls: int = 3) -> float:
        """Call the kernel until ``seconds`` have passed and at least
        ``min_calls`` calls are made; record and return the median call time."""
        times = []
        start = self.clock()
        while len(times) < min_calls or self.clock() - start < seconds:
            t = self.clock()
            self.kernel()
            times.append(self.clock() - t)
        median = statistics.median(times)
        self.bursts.append(median)
        return median

    def around(self, i: int) -> float:
        """Kernel time around the i-th op: the mean of the bursts just before
        and just after it (burst i runs before op i, burst i + 1 after it)."""
        return 0.5 * (self.bursts[i] + self.bursts[i + 1])
