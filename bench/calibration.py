"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts with the load of its
neighbours.  On a 2-core x86 machine (Python 3.11, numpy 2.4) a fixed
loop ran between 0.6x and 1.0x of its best speed, in stretches of
seconds to minutes, so whole 35 s runs of unchanged code differed in
throughput by up to 35%.  A fixed kernel, written here and independent of
optlim, is timed every INTERVAL_S between requests.  Each request's
latency is divided by the slowdown measured around it, which expresses
every timing at the reference speed REFERENCE_S.  The program and the
kernel both spend their time in the interpreter and in small numpy calls,
so they slow down together.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005       # kernel time at the reference speed
INTERVAL_S = 0.25         # at most one kernel timing per this much wall time
WINDOW = 5                # kernel timings in the centred rolling median


def kernel() -> complex:
    """Fixed work: interpreted complex arithmetic and small numpy calls."""
    z, zp, total = 0.3 + 0.4j, 1.0 + 0.0j, 0.0j
    for k in range(1, 3000):
        zp *= z
        total += zp / (k * k)
    a = np.log((np.arange(1, 10) * 0.1).astype(complex))
    e = np.ones((70, 9))
    jac = np.eye(9, dtype=complex) + 0.1j
    rhs = np.ones(9, dtype=complex)
    starts = np.arange(0, 70, 8)
    for _ in range(150):
        total += np.add.reduceat(np.exp(e @ a), starts)[0]
        total += np.linalg.solve(jac, rhs)[0]
    return total


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Kernel timings taken between requests over one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0            # wall time spent in the kernel
        self._last = -np.inf

    def tick(self) -> int:
        """Time the kernel if INTERVAL_S has passed; index of the latest timing."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            took = _time_kernel()
            self.samples.append(took)
            self.spent_s += took
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def slowdown(self) -> np.ndarray:
        """Slowdown against the reference speed at each timing."""
        s = np.array(self.samples)
        half = WINDOW // 2
        return np.array([np.median(s[max(0, i - half):i + half + 1])
                         for i in range(len(s))]) / REFERENCE_S
