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
  :class:`~repro.engine.lanes.LaneSet` folds it over lanes × tenants.
* :func:`replay_partitioned` — a bounded-memory streaming replay: segments
  in, hit/miss totals out; pairs with :mod:`repro.trace.streaming` to replay
  ``numpy.memmap``-backed traces of ``10^7+`` references.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..cache.stack_distance import StackDistanceStream
from ..obs import get_registry, span

__all__ = ["partitioned_lru_segment", "replay_partitioned"]


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


def replay_partitioned(segments: Iterable[tuple[np.ndarray, np.ndarray]], capacities: Sequence[int]):
    """Replay a segmented multi-tenant trace through one fixed partition split.

    ``segments`` yields ``(items, tenant_ids)`` pairs — for example
    :meth:`repro.trace.streaming.StreamingTrace.segments` — and only one
    segment (plus ``O(footprint)`` carried state) is ever resident, so a
    ``numpy.memmap``-backed trace of ``10^7+`` references replays in bounded
    memory (asserted in ``benchmarks/test_bench_replay.py``).  Each tenant's
    share of a segment goes through its own
    :class:`~repro.cache.stack_distance.StackDistanceStream` and the
    distances through :meth:`~repro.engine.lanes.LaneSet.fold`.  Returns the
    finished one-lane :class:`~repro.engine.lanes.LaneSet`; its lane is
    ``"replay"`` (``totals("replay")``, ``occupancies("replay")``, ...).
    """
    # Deferred: importing repro.engine imports repro.engine.lanes, which imports this module.
    from ..engine.columnar import split_by_tenant
    from ..engine.lanes import LaneSet

    num_tenants = len(capacities)
    # Nothing is precomputed: the distances are streamed into the fold.
    lanes = LaneSet([np.zeros(0, dtype=np.int64)] * num_tenants, {"replay": capacities})
    streams = [StackDistanceStream() for _ in range(num_tenants)]
    counters = {"replay": [0, 0]}
    registry = get_registry()
    with span("replay.partitioned"):
        for items, tenant_ids in segments:
            shares = split_by_tenant(items, tenant_ids, num_tenants)
            lanes.fold([stream.feed(share) for stream, share in zip(streams, shares)], counters)
            registry.counter("replay.segments").inc()
    registry.counter("replay.events").add(sum(counters["replay"]))
    return lanes
