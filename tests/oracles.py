"""Slow, from-scratch oracles for the distance, curve, replay and sweep fast paths.

The production replay (:func:`repro.online.run_replay`) derives every
profile from one stack-distance pass per tenant and drives its lanes
through occupancy kernels.  This module is the independent re-implementation
the tests hold it to, built only from the per-event definition of an LRU
partition and the exact MRC pipeline:

* :class:`PartitionedLRU` — per-tenant ``OrderedDict`` LRU partitions,
  stepped one reference at a time and resizable online;
* :func:`exact_discretized_curve` — one tenant stream's exact MRC,
  re-processed from scratch and discretized to allocation units;
* :func:`replay_lanes` — re-drives the static, adaptive and oracle lane
  schedules a :class:`~repro.online.ReplayResult` recorded, event by event,
  after re-deriving the static and per-phase oracle allocations from
  from-scratch exact profiles, and asserts every recorded miss ratio and
  allocation;
* :func:`naive_sweep_hits` — replays a trace once per capacity through a
  fresh LRU or FIFO cache model, the baseline of the sweep kernels;
* :func:`stack_distances_naive` — Mattson's explicit LRU stack, ``O(N·M)``;
* :func:`stack_distances_fenwick` — the Olken / Bennett–Kruskal Fenwick-tree
  algorithm, one Python step per access, ``O(N log N)``;
* :func:`reuse_intervals_naive` — reuse intervals from a last-seen dict;
* :func:`footprint_curve_naive` — the average footprint by enumerating every
  window;
* :func:`mrc_by_simulation` — one independent LRU simulation per cache size.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.alloc.curves import discretize_curve
from repro.cache.fifo import FIFOCache
from repro.cache.lru import LRUCache
from repro.cache.mrc import mrc_from_trace
from repro.cache.stack_distance import COLD
from repro.core.inversions import FenwickTree
from repro.engine.columnar import idle_curve
from repro.online.controller import ReallocationController
from repro.online.replay import _initial_split
from repro.sim.kernels import check_capacities

LANES = ("static", "adaptive", "oracle")


class PartitionedLRU:
    """Per-tenant LRU partitions of one shared cache, resizable online.

    Each tenant owns an isolated LRU partition of ``capacities[t]`` blocks.
    :meth:`resize` applies a new split immediately: a shrunk partition evicts
    from its least-recently-used end (so the move's warm-up cost surfaces as
    ordinary misses on the next accesses), a grown one simply gains headroom.
    A capacity of 0 bypasses the cache entirely (every access misses).
    """

    def __init__(self, capacities: Sequence[int]):
        self._capacities = [int(c) for c in capacities]
        if any(c < 0 for c in self._capacities):
            raise ValueError("partition capacities must be >= 0")
        self._entries: list[OrderedDict[int, None]] = [OrderedDict() for _ in self._capacities]
        self.hits = 0
        self.misses = 0

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(self._capacities)

    @property
    def occupancies(self) -> tuple[int, ...]:
        return tuple(len(entries) for entries in self._entries)

    def access(self, tenant: int, item: int) -> bool:
        """Access ``item`` in tenant ``tenant``'s partition; ``True`` on a hit."""
        capacity = self._capacities[tenant]
        entries = self._entries[tenant]
        if item in entries:
            entries.move_to_end(item)
            self.hits += 1
            return True
        self.misses += 1
        if capacity == 0:
            return False
        if len(entries) >= capacity:
            entries.popitem(last=False)
        entries[item] = None
        return False

    def resize(self, capacities: Sequence[int]) -> None:
        """Apply a new split; shrunk partitions evict their LRU blocks now."""
        capacities = [int(c) for c in capacities]
        if len(capacities) != len(self._capacities):
            raise ValueError(f"got {len(capacities)} capacities for {len(self._capacities)} partitions")
        if any(c < 0 for c in capacities):
            raise ValueError("partition capacities must be >= 0")
        for entries, capacity in zip(self._entries, capacities):
            while len(entries) > capacity:
                entries.popitem(last=False)
        self._capacities = capacities

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


def exact_discretized_curve(stream: np.ndarray, budget: int, unit: int):
    """Exact whole-stream MRC of one tenant stream, discretized to units.

    A from-scratch stack-distance pass over ``stream`` (an empty stream maps
    to the idle zero-demand curve).
    """
    stream = np.asarray(stream)
    if stream.size == 0:
        return idle_curve(unit)
    return discretize_curve(mrc_from_trace(stream, max_cache_size=budget), budget, unit=unit)


def naive_sweep_hits(
    trace: Sequence[int] | np.ndarray, capacities: Sequence[int] | np.ndarray, *, policy: str = "lru"
) -> np.ndarray:
    """Reference oracle: replay the trace once per capacity through a CacheModel.

    This is the cost wall the sweep engine removes — ``len(capacities)`` full
    pure-Python replays.  Used by the cross-validation tests and as the
    baseline of the ``benchmarks/test_bench_sweep.py`` speedup assertion.
    """
    models = {"lru": LRUCache, "fifo": FIFOCache}
    if policy not in models:
        raise ValueError(f"naive replay supports {sorted(models)}, got {policy!r}")
    caps = check_capacities(capacities)
    arr = np.asarray(trace).tolist()
    hits = np.zeros(caps.size, dtype=np.int64)
    for k, capacity in enumerate(caps):
        model = models[policy](int(capacity))
        hits[k] = model.run(arr).hits
    return hits


@dataclass(frozen=True)
class LaneSchedule:
    """The chunk stops and per-lane resizes one replay actually ran."""

    stops: list[int]
    epoch_ends: set[int]
    adaptive_at: dict[int, tuple[int, ...]]
    oracle_at: dict[int, tuple[int, ...]]


def lane_schedule(workload, result) -> LaneSchedule:
    """Read the schedule off a result: epoch ends, phase boundaries, resizes."""
    epoch_ends = {epoch.end for epoch in result.epochs}
    boundaries = {int(b) for b in workload.boundaries if 0 < b < result.accesses}
    oracle_at = {int(workload.boundaries[p]): result.oracle_allocations[p] for p in range(1, workload.num_phases)}
    return LaneSchedule(
        stops=sorted(epoch_ends | boundaries),
        epoch_ends=epoch_ends,
        adaptive_at={epoch.end: epoch.adaptive_allocation for epoch in result.epochs},
        oracle_at=oracle_at,
    )


def drive(simulators: dict, advance: Callable[[int, int], dict[str, int]], schedule: LaneSchedule):
    """Run one data plane over a recorded schedule; per-epoch misses per lane.

    ``advance(start, stop)`` feeds events ``start .. stop`` to every lane and
    returns each lane's misses; resizes land at the recorded positions.
    """
    series = {lane: [] for lane in LANES}
    epoch_misses = dict.fromkeys(LANES, 0)
    position = 0
    for stop in schedule.stops:
        for lane, misses in advance(position, stop).items():
            epoch_misses[lane] += misses
        position = stop
        if position in schedule.oracle_at:
            simulators["oracle"].resize(schedule.oracle_at[position])
        if position in schedule.epoch_ends:
            simulators["adaptive"].resize(schedule.adaptive_at[position])
            for lane in LANES:
                series[lane].append(epoch_misses[lane])
                epoch_misses[lane] = 0
    return series


def per_event_advance(simulators: dict, items: np.ndarray, tenant_ids: np.ndarray):
    """``advance`` for :func:`drive` over :class:`PartitionedLRU` lanes."""

    def advance(start: int, stop: int) -> dict[str, int]:
        # Plain Python ints hash and compare much faster in the OrderedDict
        # partitions than per-event numpy scalars.
        pairs = list(zip(tenant_ids[start:stop].tolist(), items[start:stop].tolist()))
        deltas = {}
        for lane in LANES:
            sim = simulators[lane]
            before = sim.misses
            access = sim.access
            for tenant, item in pairs:
                access(tenant, item)
            deltas[lane] = sim.misses - before
        return deltas

    return advance


def replay_lanes(workload, result, job) -> dict[str, list[int]]:
    """Re-drive a replay's three lanes event by event and check the result.

    The static and per-phase oracle allocations are re-derived from
    from-scratch exact profiles of each tenant's whole stream and phase
    sub-streams; the adaptive lane replays the splits ``result`` recorded.
    Asserts the allocations, every per-epoch miss ratio of every lane and the
    overall miss ratios against ``result``; returns per-epoch misses per lane.
    """
    composed = workload.composed
    items, ids = composed.trace.accesses, composed.tenant_ids
    tenants = range(composed.num_tenants)
    controller = ReallocationController(budget=job.budget, method=job.method, unit=job.unit, move_cost=job.move_cost)

    def allocate(streams):
        return controller.propose([exact_discretized_curve(stream, job.budget, job.unit) for stream in streams])

    static = allocate(composed.tenant_trace(t) for t in tenants)
    oracle = [allocate(workload.tenant_phase_trace(t, p) for t in tenants) for p in range(workload.num_phases)]
    assert tuple(static) == result.static_allocation
    assert tuple(tuple(a) for a in oracle) == result.oracle_allocations

    initial = _initial_split(composed.num_tenants, job.budget, job.unit)
    sims = {"static": PartitionedLRU(static), "adaptive": PartitionedLRU(initial), "oracle": PartitionedLRU(oracle[0])}
    series = drive(sims, per_event_advance(sims, items, ids), lane_schedule(workload, result))

    for lane in LANES:
        recorded = [getattr(epoch, f"{lane}_miss_ratio") for epoch in result.epochs]
        assert [misses / (e.end - e.start) for misses, e in zip(series[lane], result.epochs)] == recorded, lane
        assert sims[lane].miss_ratio == getattr(result, f"{lane}_miss_ratio"), lane
    assert sims["adaptive"].capacities == result.final_allocation
    return series


def stack_distances_naive(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distances by direct stack simulation (``O(N·M)`` oracle).

    Maintains the explicit LRU stack; the distance of an access is the depth
    (1-based) of the item in the stack, or :data:`~repro.cache.COLD` if absent.
    """
    arr = np.asarray(trace, dtype=np.int64)
    stack: list[int] = []  # most recently used at the end
    out = np.full(arr.size, COLD, dtype=np.int64)
    for pos in range(arr.size):
        item = int(arr[pos])
        try:
            out[pos] = len(stack) - stack.index(item)
            stack.remove(item)
        except ValueError:
            pass
        stack.append(item)
    return out


def stack_distances_fenwick(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distances via the Olken / Bennett–Kruskal Fenwick-tree algorithm.

    For each access the algorithm needs the number of *distinct* items touched
    since the previous access to the same item.  Keeping a Fenwick tree with a
    1 at the position of every item's most recent access, that count is the
    sum of the tree over positions after the item's previous access.  Each
    access does O(log N) work.
    """
    arr = np.asarray(trace, dtype=np.int64)
    n = arr.size
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    tree = FenwickTree(n)
    last_pos: dict[int, int] = {}
    for pos in range(n):
        item = int(arr[pos])
        prev = last_pos.get(item)
        if prev is not None:
            out[pos] = tree.range_sum(prev + 1, pos - 1) + 1
            tree.add(prev, -1)
        tree.add(pos, 1)
        last_pos[item] = pos
    return out


def reuse_intervals_naive(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Accesses strictly between each access and the previous use of its item.

    :data:`~repro.cache.COLD` for first accesses; the dict-loop reference of
    :func:`~repro.cache.reuse_intervals`.
    """
    arr = np.asarray(trace, dtype=np.int64)
    out = np.full(arr.size, COLD, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for pos in range(arr.size):
        item = int(arr[pos])
        if item in last_seen:
            out[pos] = pos - last_seen[item] - 1
        last_seen[item] = pos
    return out


def footprint_curve_naive(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Mean distinct items over every window of each length ``0 .. N`` (``O(N^3)``).

    The by-definition reference of :func:`~repro.cache.footprint_curve`.
    """
    items = [int(x) for x in trace]
    n = len(items)
    curve = [0.0]
    for w in range(1, n + 1):
        windows = [len(set(items[i : i + w])) for i in range(n - w + 1)]
        curve.append(sum(windows) / len(windows))
    return np.asarray(curve)


def mrc_by_simulation(trace: Sequence[int] | np.ndarray, cache_sizes: Iterable[int]) -> dict[int, float]:
    """Miss ratios measured by running an independent LRU simulation per cache size.

    Quadratically slower than :func:`~repro.cache.mrc_from_trace`; for
    validation on small traces.
    """
    arr = np.asarray(trace)
    return {int(c): LRUCache(int(c)).run(int(x) for x in arr).miss_ratio for c in cache_sizes}
