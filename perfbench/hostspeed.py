"""Reference kernel that tracks the host's speed during a run.

The host's speed drifts by tens of percent, up to twofold, over seconds to
minutes, because other tenants share its cores.  Raw times of identical work
then spread far more than any change worth measuring.  The runner times this
fixed kernel every REFERENCE_INTERVAL_S between ops, and reports times at
reference speed: raw time * REFERENCE_S / median kernel time of the samples
taken during the timed work and within REFERENCE_WINDOW_S of it.

The kernel mixes the kinds of work swmpc spends its time on (interpreted
float loops, a recursive tree search, one small scipy LP) and calls no swmpc
code, so a change to swmpc moves the reported times and leaves the kernel as
it is.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

# median kernel time on the host of the first recorded figures (see
# provenance.json); it only sets the scale of the reported times
REFERENCE_S = 2.5e-3
REFERENCE_INTERVAL_S = 0.1
REFERENCE_BURST = 5
REFERENCE_WINDOW_S = 0.25

_LP_C = np.array([0.0, 0.0, -1.0])
_LP_A = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0],
                  [0.6, 0.8, 1.0], [-0.8, 0.6, 1.0]])
_LP_B = np.array([1.0, 1.0, 1.0, 1.0, 1.2, 0.9])


def _search(depth: int, x0: float, x1: float, acc: float, best: float) -> float:
    if depth == 0:
        return acc if acc < best else best
    for a, b, c, d in ((0.9, 0.3, -0.2, 1.05), (1.1, -0.4, 0.3, 0.8)):
        y0, y1 = a * x0 + b * x1, c * x0 + d * x1
        dist = (y0 * y0 + y1 * y1) ** 0.5
        if acc + dist < best:
            best = _search(depth - 1, y0, y1, acc + dist, best)
    return best


def kernel() -> float:
    a, b, c, d = 0.6, -0.8, 0.8, 0.6
    x0, x1, s = 1.0, 0.0, 0.0
    for _ in range(2000):
        x0, x1 = a * x0 + b * x1, c * x0 + d * x1
        s += x0 * x0 + x1 * x1
    s += _search(8, 0.7, -0.4, 0.0, float("inf"))
    res = linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=[(None, None)] * 3, method="highs")
    return s + res.fun


class HostSpeed:
    """Kernel samples of one run, and the factors that scale its times to reference speed."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> float:
        """Time the kernel once; returns the time taken."""
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)
        self._due = t1 + REFERENCE_INTERVAL_S
        return t1 - t0

    def sample_if_due(self) -> float:
        """Sample when the interval has passed, once per interval missed (a long op
        is followed by a burst), up to REFERENCE_BURST; returns the time taken."""
        late = perf_counter() - self._due
        if late < 0.0:
            return 0.0
        count = min(REFERENCE_BURST, 1 + int(late / REFERENCE_INTERVAL_S))
        return sum(self.sample() for _ in range(count))

    def factor(self, start: float, stop: float) -> float:
        """Scale from raw to reference-speed time for work done between `start`
        and `stop`, from the samples taken within REFERENCE_WINDOW_S of it."""
        lo = bisect.bisect_left(self.times, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.times, stop + REFERENCE_WINDOW_S)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
