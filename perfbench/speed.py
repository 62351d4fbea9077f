"""The machine's reference speed, used to scale every reported time.

On a shared VM the speed of one vCPU drifts by a quarter or more over a few
minutes, and process CPU time drifts with it: contention for the physical
core, its caches and memory stretches the process's own time.  So a run
also times a fixed reference routine, which calls nothing in the library,
just before and just after the calls it measures.  A time is multiplied
by REFERENCE_NS over the median of those reference times, which cancels the
drift common to both, and is reported in seconds at the reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal time of reference_work(); scaled times are at this speed.  It is
# about the routine's time on the 2-vCPU VM the bounds were set on.
REFERENCE_NS = 6_000_000


def reference_work():
    """A fixed mix of the library's kinds of work: a Python loop of numpy
    scalar calls (as in the generators), dict and integer bookkeeping (as
    in the solvers), and small-array numpy kernels (as in the products)."""
    rng = np.random.default_rng(12345)
    hits = 0
    for _ in range(1500):
        if rng.random() < 0.3:
            hits += int(rng.integers(0, 4))
    seen = {}
    for i in range(6000):
        key = i % 509
        seen[key] = seen.get(key, 0) + i * 7 % 13
    a = (np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 31) % 97
    for _ in range(4):
        a = (a[:, :, None] + a[None, :, :]).min(axis=1) % 101
    return hits, len(seen), int(a.sum())


class Speed:
    """Times the reference routine and turns its times into scale factors;
    keeps every factor it gave, for the run's report."""

    def __init__(self, clock_ns):
        self.clock_ns = clock_ns
        self.factors = []

    def samples(self, count):
        """Reference times of `count` consecutive calls."""
        out = []
        for _ in range(count):
            t0 = self.clock_ns()
            reference_work()
            out.append(self.clock_ns() - t0)
        return out

    def factor(self, samples):
        """Scale factor for a time measured among these reference times."""
        factor = REFERENCE_NS / statistics.median(samples)
        self.factors.append(factor)
        return factor
