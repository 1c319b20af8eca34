"""Host-speed calibration: a fixed loop timed between the benchmark's timed calls.

The benchmark runs on shared hosts whose speed swings by up to 2x for
minutes at a time as other tenants load the same cores, so raw seconds of
one run disagree with those of the next far more than the program changes
them.  A call and a loop of similar work run just before and after it slow
down alike, so a call's seconds scaled by the loop's slowdown read the same
in a calm and in a loaded minute.  The loop mixes the two kinds of work the
program does: interpreter-bound dictionary updates and NumPy sorts.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

#: Seconds the loop takes on the reference host, an idle 2.1 GHz Xeon vCPU.
#: Scaled times are seconds at that speed.
REFERENCE_S = 0.05
#: Runs of the loop per reading; a reading is the fastest of them.
RUNS = 3


class HostSpeed:
    """Times the calibration loop; its inputs are fixed, not drawn from the workload seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.integers(0, 1 << 18, 300_000)
        self._refs = rng.integers(0, 3000, 30_000).tolist()

    def _loop(self) -> float:
        start = time.perf_counter()
        cache: OrderedDict[int, None] = OrderedDict()
        for item in self._refs:  # a 1000-block LRU cache
            if item in cache:
                cache.move_to_end(item)
                continue
            if len(cache) >= 1000:
                cache.popitem(last=False)
            cache[item] = None
        order = np.argsort(self._array, kind="stable")
        np.cumsum(self._array[order])
        np.unique(self._array, return_counts=True)
        return time.perf_counter() - start

    def reading(self) -> float:
        """Seconds of the loop now: the fastest of :data:`RUNS` runs."""
        return min(self._loop() for _ in range(RUNS))

    @staticmethod
    def factor(before: float, after: float) -> float:
        """What turns seconds measured between readings ``before`` and ``after`` into seconds at the reference speed."""
        return REFERENCE_S / ((before + after) / 2.0)
