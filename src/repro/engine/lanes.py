"""Lane simulators: many capacity schedules measured over one data plane.

A *lane* is one partitioned-LRU cache configuration measured while a trace
streams by — the online replay runs three at once (static, adaptive,
oracle-per-phase), and a fleet or policy experiment can run any number.
:class:`LaneSet` holds the lanes of one replay behind a single
advance/resize surface over the vectorised data plane: one stack-distance
pass per tenant (:class:`~repro.engine.columnar.PrecomputedTenantDistances`)
shared by *all* lanes, with per-segment occupancy kernels
(:class:`~repro.sim.partitioned.BatchPartitionedLRU`) instead of per-event
dictionary bookkeeping.  The test suite holds it bit-identical to a
per-event ``OrderedDict`` simulator.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .columnar import PrecomputedTenantDistances

__all__ = ["LaneSet"]


class LaneSet:
    """Named lane simulators sharing one distance pass per tenant.

    Distances are a property of the tenant stream alone, so one
    :class:`~repro.engine.columnar.PrecomputedTenantDistances` serves any
    number of capacity schedules; each lane is one
    :class:`~repro.sim.partitioned.BatchPartitionedLRU`.
    """

    def __init__(self, distance_arrays: Sequence[np.ndarray], allocations: dict[str, Sequence[int]]):
        from ..sim.partitioned import BatchPartitionedLRU

        # The per-tenant distance pass already ran (it produced the static
        # and oracle profiles); chunks slice the same arrays for free.
        self._distances = PrecomputedTenantDistances(distance_arrays)
        self._sims = {name: BatchPartitionedLRU(capacities) for name, capacities in allocations.items()}

    def advance(self, chunk_items: np.ndarray, chunk_ids: np.ndarray, counters: dict[str, list[int]]) -> None:
        """Feed one chunk to every lane, folding hit/miss deltas into ``counters``."""
        distances = self._distances.feed(chunk_items, chunk_ids)
        for key, sim in self._sims.items():
            hits, misses = sim.run_segment(distances)
            counters[key][0] += hits
            counters[key][1] += misses

    def resize(self, lane: str, capacities: Sequence[int]) -> None:
        """Apply a new split to one lane (shrink evictions included)."""
        self._sims[lane].resize(capacities)

    def capacities(self, lane: str) -> tuple[int, ...]:
        """Current per-tenant split of one lane."""
        return self._sims[lane].capacities

    def miss_ratio(self, lane: str) -> float:
        """Overall miss ratio of one lane so far."""
        return self._sims[lane].miss_ratio

    def state_dict(self) -> dict:
        """Picklable snapshot of every lane plus the distance-provider cursors.

        The distance *arrays* are not carried — they are a deterministic
        function of the trace, recomputed on resume — only the per-tenant
        cursors needed to seek the shared provider back to the checkpoint.
        """
        return {
            "lanes": {name: sim.state_dict() for name, sim in self._sims.items()},
            "distances": self._distances.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore lane and cursor state captured by :meth:`state_dict`."""
        lanes = state["lanes"]
        if set(lanes) != set(self._sims):
            raise ValueError(f"state holds lanes {sorted(lanes)}, this set has {sorted(self._sims)}")
        for name, sim in self._sims.items():
            sim.load_state_dict(lanes[name])
        self._distances.load_state_dict(state["distances"])
