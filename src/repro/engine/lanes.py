"""Lane simulators: many capacity schedules measured over one data plane.

A *lane* is one partitioned-LRU cache configuration measured while a trace
streams by — the online replay runs three at once (static, adaptive,
oracle-per-phase), and a fleet or policy experiment can run any number.
:class:`LaneSet` is the one partitioned-LRU state: per lane, each tenant's
split and occupancy plus the lane's hit/miss totals; per tenant, one cursor
into its precomputed stack distances.  An access hits iff its stack distance
is at most its partition's occupancy
(:func:`~repro.sim.partitioned.partitioned_lru_segment`), and distances do
not depend on any capacity schedule, so one distance pass per tenant serves
*all* lanes.  The test suite holds it bit-identical to a per-event
``OrderedDict`` simulator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..obs import get_registry
from ..sim.partitioned import partitioned_lru_segment
from .columnar import check_tenant_ids

__all__ = ["LaneSet"]


def _check_split(capacities: Sequence[int], num_tenants: int) -> list[int]:
    """One non-negative capacity per tenant, as plain ints."""
    capacities = [int(c) for c in capacities]
    if len(capacities) != num_tenants:
        raise ValueError(f"got {len(capacities)} capacities for {num_tenants} partitions")
    if any(c < 0 for c in capacities):
        raise ValueError("partition capacities must be >= 0")
    return capacities


class LaneSet:
    """Named partitioned-LRU lanes sharing one distance pass per tenant.

    ``distance_arrays[t]`` holds tenant ``t``'s stack distances over its whole
    sub-stream; ``allocations`` maps each lane's name to its initial split.
    A lane's state is its snapshot layout: ``capacities``, ``occupancies``
    (per tenant), ``hits`` and ``misses``.
    """

    def __init__(self, distance_arrays: Sequence[np.ndarray], allocations: Mapping[str, Sequence[int]]):
        # The per-tenant distance pass already ran (it produced the static
        # and oracle profiles); chunks slice the same arrays for free.
        self._distances = [np.asarray(d) for d in distance_arrays]
        if not self._distances:
            raise ValueError("need at least one tenant distance array")
        num_tenants = len(self._distances)
        self._cursors = [0] * num_tenants
        self._lanes = {
            name: dict(capacities=_check_split(split, num_tenants), occupancies=[0] * num_tenants, hits=0, misses=0)
            for name, split in allocations.items()
        }
        # Bound once: the fold is the replay hot path, so the per-chunk cost
        # of disabled metrics is one no-op method call.
        self._lane_refs = get_registry().counter("replay.lane_refs")

    def advance(self, chunk_items: np.ndarray, chunk_ids: np.ndarray, counters: dict[str, list[int]]) -> None:
        """Feed one chunk to every lane, folding hit/miss deltas into ``counters``.

        Tenant ``t``'s run is its next ``bincount(chunk_ids)[t]`` distances.
        """
        chunk_ids = np.asarray(chunk_ids)
        num_tenants = len(self._distances)
        check_tenant_ids(chunk_ids, num_tenants)
        counts = np.bincount(chunk_ids, minlength=num_tenants).tolist()
        ends = [cursor + count for cursor, count in zip(self._cursors, counts)]
        for tenant, (end, distances) in enumerate(zip(ends, self._distances)):
            if end > distances.size:
                raise ValueError(f"tenant {tenant} fed past the precomputed stream ({distances.size} references)")
        runs = [distances[cursor:end] for distances, cursor, end in zip(self._distances, self._cursors, ends)]
        self._cursors = ends
        self.fold(runs, counters)

    def fold(self, runs: Sequence[np.ndarray], counters: dict[str, list[int]]) -> None:
        """Advance every lane by one segment; ``runs[t]`` holds tenant ``t``'s distances in it.

        The per-segment step behind :meth:`advance`, also fed by streamed
        distances (:func:`~repro.sim.partitioned.replay_partitioned`).
        """
        if len(runs) != len(self._distances):
            raise ValueError(f"got {len(runs)} distance arrays for {len(self._distances)} partitions")
        events = sum(int(run.size) for run in runs)
        for name, lane in self._lanes.items():
            capacities, occupancies = lane["capacities"], lane["occupancies"]
            misses = 0
            for tenant, run in enumerate(runs):
                tenant_misses, occupancies[tenant] = partitioned_lru_segment(
                    run, capacities[tenant], occupancies[tenant]
                )
                misses += tenant_misses
            lane["hits"] += events - misses
            lane["misses"] += misses
            counters[name][0] += events - misses
            counters[name][1] += misses
        self._lane_refs.add(events * len(self._lanes))

    def resize(self, lane: str, capacities: Sequence[int]) -> None:
        """Apply a new split to one lane; a shrunk partition clamps its occupancy (its LRU-end evictions)."""
        state = self._lanes[lane]
        state["capacities"] = _check_split(capacities, len(self._distances))
        state["occupancies"] = [min(occ, cap) for occ, cap in zip(state["occupancies"], state["capacities"])]

    def capacities(self, lane: str) -> tuple[int, ...]:
        """Current per-tenant split of one lane."""
        return tuple(self._lanes[lane]["capacities"])

    def occupancies(self, lane: str) -> tuple[int, ...]:
        """Resident blocks per tenant in one lane (a per-event simulator's entry counts)."""
        return tuple(self._lanes[lane]["occupancies"])

    def totals(self, lane: str) -> tuple[int, int]:
        """``(hits, misses)`` of one lane so far."""
        return self._lanes[lane]["hits"], self._lanes[lane]["misses"]

    def miss_ratio(self, lane: str) -> float:
        """Overall miss ratio of one lane so far (0 when nothing was accessed)."""
        hits, misses = self.totals(lane)
        return misses / (hits + misses) if hits + misses else 0.0

    def state_dict(self) -> dict:
        """Picklable snapshot of every lane plus the per-tenant cursors.

        The distance *arrays* are not carried — they are a deterministic
        function of the trace, recomputed on resume — only the cursors that
        seek them back to the checkpoint.
        """
        return {
            "lanes": {
                name: {**lane, "capacities": list(lane["capacities"]), "occupancies": list(lane["occupancies"])}
                for name, lane in self._lanes.items()
            },
            "distances": {"cursors": list(self._cursors)},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore lane and cursor state captured by :meth:`state_dict` (bounds-checked)."""
        lanes = state["lanes"]
        if set(lanes) != set(self._lanes):
            raise ValueError(f"state holds lanes {sorted(lanes)}, this set has {sorted(self._lanes)}")
        num_tenants = len(self._distances)
        restored = {}
        for name, lane in lanes.items():
            capacities = _check_split(lane["capacities"], num_tenants)
            occupancies = [int(o) for o in lane["occupancies"]]
            if len(occupancies) != num_tenants:
                raise ValueError(f"state holds {len(occupancies)} occupancies for {num_tenants} partitions")
            if any(not 0 <= occ <= cap for occ, cap in zip(occupancies, capacities)):
                raise ValueError("state occupancies must lie within their capacities")
            restored[name] = dict(
                capacities=capacities, occupancies=occupancies, hits=int(lane["hits"]), misses=int(lane["misses"])
            )
        cursors = [int(c) for c in state["distances"]["cursors"]]
        if len(cursors) != num_tenants:
            raise ValueError(f"state holds {len(cursors)} cursors for {num_tenants} tenants")
        for tenant, (cursor, distances) in enumerate(zip(cursors, self._distances)):
            if not 0 <= cursor <= distances.size:
                raise ValueError(f"tenant {tenant} cursor {cursor} outside [0, {distances.size}]")
        self._lanes.update(restored)
        self._cursors = cursors
