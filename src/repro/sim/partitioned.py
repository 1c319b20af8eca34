"""Batch partitioned-LRU simulation: whole segments per kernel call.

The online replay engine (:mod:`repro.online.replay`) measures three
partitioned LRU systems at once.  A per-event simulator steps one
``OrderedDict`` per tenant one reference at a time — correct, readable, and
the dominant cost of a replay once profiling is vectorised.  This module is
the batch data plane that replaces it (the per-event simulator survives as
the test suite's oracle).

The kernel rests on one invariant of a *resizable* LRU partition: at every
instant the resident blocks are exactly the top-``L`` items of the tenant's
recency stack, where ``L`` is the partition's current occupancy.  Every
operation of a per-event LRU partition preserves it — a hit moves the item to
the stack top (set unchanged), a miss inserts at the top (evicting the rank
``L`` item when full), and a shrink resize evicts from the least-recent
end, which is precisely a truncation of the
stack to the new capacity.  An access therefore hits **iff its stack
distance is at most the current occupancy**, and the occupancy itself
follows a tiny recursion: it grows by one per miss until it reaches the
capacity, and is clamped to the capacity at a shrink.  Stack distances do
not depend on the capacity schedule at all, so one distance pass per tenant
(:class:`~repro.cache.stack_distance.StackDistanceStream`) serves every lane
— static, adaptive, and oracle — simultaneously.

* :func:`partitioned_lru_segment` — misses and final occupancy of one
  tenant's partition over one segment of pre-computed distances, bit-identical
  to the per-event simulator (asserted in ``tests/test_differential.py``).
* :class:`BatchPartitionedLRU` — the multi-tenant wrapper with the
  ``resize`` / ``capacities`` / ``miss_ratio`` surface of a per-event
  partitioned LRU, but advancing a whole segment per call.
* :func:`replay_partitioned` — a bounded-memory streaming replay: segments
  in, hit/miss totals out; pairs with :mod:`repro.trace.streaming` to replay
  ``numpy.memmap``-backed traces of ``10^7+`` references.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..engine.columnar import TenantDistanceStreams as _TenantDistanceStreams
from ..obs import get_registry, span

__all__ = ["partitioned_lru_segment", "BatchPartitionedLRU", "replay_partitioned"]


def partitioned_lru_segment(distances: np.ndarray, capacity: int, occupancy: int = 0) -> tuple[int, int]:
    """Misses and final occupancy of one LRU partition over one segment.

    ``distances`` are the segment's stack distances measured over the
    tenant's whole access stream (:data:`~repro.cache.stack_distance.COLD`
    for cold accesses); ``capacity`` is the partition size in blocks and
    ``occupancy`` the number of resident blocks at segment start (at most
    ``capacity`` — a shrink clamps occupancy *before* the segment runs, which
    is exactly a per-event simulator's eviction of its least-recent
    blocks).  Returns ``(misses, occupancy_after)``.

    An access hits iff its distance is at most the current occupancy; a miss
    grows the occupancy until the partition is full.  A partition that is
    already full is a single vectorised comparison against the capacity; the
    warm-up phase (cold start or after a grow) walks only the *candidates* —
    accesses deeper than the starting occupancy, extracted vectorised —
    because anything shallower can never miss while the occupancy only grows.
    """
    d = np.asarray(distances)
    capacity = int(capacity)
    occupancy = int(occupancy)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if not 0 <= occupancy <= max(capacity, 0):
        raise ValueError(f"occupancy must be within [0, capacity], got {occupancy} for capacity {capacity}")
    n = int(d.size)
    if n == 0:
        return 0, occupancy
    if capacity == 0:
        return n, 0
    if occupancy >= capacity:
        return int(np.count_nonzero(d > capacity)), capacity

    # Warm-up: occupancy < capacity.  Plain Python ints over the (usually
    # short) candidate list beat per-step NumPy dispatch by a wide margin.
    candidates = np.flatnonzero(d > occupancy)
    misses = 0
    level = occupancy
    for index, value in enumerate(d[candidates].tolist()):
        if value <= level:
            continue
        misses += 1
        level += 1
        if level == capacity:
            # Full from the access after the last warm-up miss onwards.
            tail = d[int(candidates[index]) + 1 :]
            return misses + int(np.count_nonzero(tail > capacity)), capacity
    return misses, level  # the partition never filled up


class BatchPartitionedLRU:
    """Per-tenant LRU partitions advanced a whole segment per call.

    The batch twin of a per-event partitioned LRU: per-tenant capacities,
    ``resize`` semantics where a shrink evicts least-recent blocks — here, an
    occupancy clamp — and ``hits`` / ``misses`` / ``miss_ratio`` accounting,
    but driven by per-tenant stack-distance segments
    (:class:`~repro.engine.columnar.TenantDistanceStreams`) instead of single
    references.  Bit-identical to the per-event simulator on every schedule
    of segments and resizes (asserted in ``tests/test_differential.py``).
    """

    def __init__(self, capacities: Sequence[int]):
        self._capacities = [int(c) for c in capacities]
        if any(c < 0 for c in self._capacities):
            raise ValueError("partition capacities must be >= 0")
        self._occupancies = [0] * len(self._capacities)
        self.hits = 0
        self.misses = 0
        # Bound once: run_segment is the replay hot path (three lanes per
        # chunk), so the per-segment cost of disabled metrics is one no-op
        # method call instead of a registry lookup.
        self._lane_refs = get_registry().counter("replay.lane_refs")

    @property
    def capacities(self) -> tuple[int, ...]:
        """Current per-tenant partition sizes in blocks."""
        return tuple(self._capacities)

    @property
    def occupancies(self) -> tuple[int, ...]:
        """Resident blocks per tenant (a per-event simulator's entry counts)."""
        return tuple(self._occupancies)

    def run_segment(self, distances: Sequence[np.ndarray]) -> tuple[int, int]:
        """Advance every tenant by one segment of stack distances.

        ``distances[t]`` holds tenant ``t``'s distances for the segment (an
        empty array for a tenant with no traffic).  Returns the segment's
        ``(hits, misses)`` summed over tenants and folds them into the
        running totals.
        """
        if len(distances) != len(self._capacities):
            raise ValueError(f"got {len(distances)} distance arrays for {len(self._capacities)} partitions")
        segment_hits = 0
        segment_misses = 0
        for tenant, tenant_distances in enumerate(distances):
            misses, occupancy = partitioned_lru_segment(
                tenant_distances, self._capacities[tenant], self._occupancies[tenant]
            )
            self._occupancies[tenant] = occupancy
            segment_misses += misses
            segment_hits += int(np.asarray(tenant_distances).size) - misses
        self.hits += segment_hits
        self.misses += segment_misses
        self._lane_refs.add(segment_hits + segment_misses)
        return segment_hits, segment_misses

    def resize(self, capacities: Sequence[int]) -> None:
        """Apply a new split; shrunk partitions clamp their occupancy now."""
        capacities = [int(c) for c in capacities]
        if len(capacities) != len(self._capacities):
            raise ValueError(f"got {len(capacities)} capacities for {len(self._capacities)} partitions")
        if any(c < 0 for c in capacities):
            raise ValueError("partition capacities must be >= 0")
        self._occupancies = [min(occ, cap) for occ, cap in zip(self._occupancies, capacities)]
        self._capacities = capacities

    @property
    def miss_ratio(self) -> float:
        """Miss ratio over everything accessed so far (0 when nothing was)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def state_dict(self) -> dict:
        """Picklable snapshot: capacities, occupancies and hit/miss totals."""
        return {
            "capacities": list(self._capacities),
            "occupancies": list(self._occupancies),
            "hits": int(self.hits),
            "misses": int(self.misses),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        capacities = [int(c) for c in state["capacities"]]
        occupancies = [int(o) for o in state["occupancies"]]
        if len(occupancies) != len(capacities):
            raise ValueError(f"state holds {len(occupancies)} occupancies for {len(capacities)} capacities")
        if any(not 0 <= occ <= cap for occ, cap in zip(occupancies, capacities)):
            raise ValueError("state occupancies must lie within their capacities")
        self._capacities = capacities
        self._occupancies = occupancies
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])


def replay_partitioned(
    segments: Iterable[tuple[np.ndarray, np.ndarray]],
    capacities: Sequence[int],
) -> BatchPartitionedLRU:
    """Replay a segmented multi-tenant trace through one fixed partition split.

    ``segments`` yields ``(items, tenant_ids)`` pairs — for example
    :meth:`repro.trace.streaming.StreamingTrace.segments` — and only one
    segment (plus ``O(footprint)`` carried state) is ever resident, so a
    ``numpy.memmap``-backed trace of ``10^7+`` references replays in bounded
    memory (asserted in ``benchmarks/test_bench_replay.py``).  Returns the
    finished :class:`BatchPartitionedLRU` with its hit/miss totals.
    """
    simulator = BatchPartitionedLRU(capacities)
    streams = _TenantDistanceStreams(len(simulator.capacities))
    registry = get_registry()
    with span("replay.partitioned"):
        for items, tenant_ids in segments:
            simulator.run_segment(streams.feed(items, tenant_ids))
            registry.counter("replay.segments").inc()
    registry.counter("replay.events").add(simulator.hits + simulator.misses)
    return simulator

