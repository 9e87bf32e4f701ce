"""A fixed piece of work that tells how fast the machine runs right now.

On a shared host the same operation can take twice as long from one
minute to the next, and a slow spell can outlast a whole run, so raw
wall times of two runs are not comparable (run-to-run spreads of 30-40%
were measured on a 2 vCPU VM).  The benchmark therefore runs this
snippet between operations and reports every time scaled to a nominal
machine speed:

    scaled = wall time * NOMINAL_S / (snippet time measured around it)

The snippet does the kinds of work the package does -- Fraction
arithmetic and small complex SVDs -- and never changes with the package,
so a change to the package moves the scaled times exactly as it moves
the wall times at a fixed machine speed.  Raw wall times are printed
next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 1.5e-3  # the snippet's time on the measuring VM in its slow state
INTERVAL_S = 0.01  # sample at most this often between operations
NEIGHBOURS = 2  # samples on each side that a scale factor takes the median of

_MATRIX = np.random.default_rng(0).normal(size=(6, 12)) + 1j * np.random.default_rng(1).normal(size=(6, 12))


def snippet() -> float:
    """Seconds one run of the fixed work takes."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 7) * Fraction(3 * k + 1, 11)
    for _ in range(15):
        np.linalg.svd(_MATRIX, compute_uv=False)
    return time.perf_counter() - start


class SpeedTrack:
    """Snippet times sampled during a run, and the scale factors they give."""

    def __init__(self) -> None:
        for _ in range(20):  # warm-up
            snippet()
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Run the snippet unless one ran less than INTERVAL_S ago."""
        now = time.perf_counter()
        if force or not self.starts or now - self.starts[-1] - self.durations[-1] > INTERVAL_S:
            self.starts.append(now)
            self.durations.append(snippet())

    def factor(self, at: float) -> float:
        """NOMINAL_S over the median snippet time around time ``at``."""
        i = max(0, bisect.bisect_right(self.starts, at) - 1)
        nearby = self.durations[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        return NOMINAL_S / statistics.median(nearby)
