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
* :func:`feed_sketches` / :func:`sketches_at` / :func:`sketch_profiles` —
  the replay's windowed profiles from one
  :class:`~repro.online.WindowedShardsSketch` per tenant, fed the composed
  trace chunk by chunk on the shared timeline (what the replay did before
  :class:`~repro.online.windowed.TenantWindows` sliced them from one pass);
* :func:`naive_sweep_hits` — replays a trace once per capacity through a
  fresh LRU or FIFO cache model, the baseline of the sweep kernels;
* :func:`stack_distances_naive` — Mattson's explicit LRU stack, ``O(N·M)``;
* :func:`stack_distances_fenwick` — the Olken / Bennett–Kruskal Fenwick-tree
  algorithm, one Python step per access, ``O(N log N)``, on
  :class:`FenwickTree`;
* :func:`count_inversions_naive` and :func:`count_inversions_fenwick` — the
  quadratic double loop and a right-to-left Fenwick sweep, the references of
  :mod:`repro.core.inversions`' one distance pass;
* :func:`reuse_intervals_naive` — reuse intervals from a last-seen dict;
* :func:`footprint_curve_naive` — the average footprint by enumerating every
  window;
* :func:`mrc_by_simulation` — one independent LRU simulation per cache size;
* :func:`dp_allocate_per_unit` — the allocators' exact DP with one numpy
  statement per tenant per unit, the reference of the window fold in
  :func:`repro.alloc.dp_allocate`.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.alloc.curves import discretize_curve
from repro.cache.fifo import FIFOCache
from repro.cache.lru import LRUCache
from repro.cache.mrc import mrc_from_trace
from repro.cache.stack_distance import COLD
from repro.engine.columnar import idle_curve, split_by_tenant
from repro.online import WindowedShardsSketch, curve_of_snapshot
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


def drive(
    resize: Callable[[str, Sequence[int]], None], advance: Callable[[int, int], dict[str, int]], schedule: LaneSchedule
):
    """Run one data plane over a recorded schedule; per-epoch misses per lane.

    ``advance(start, stop)`` feeds events ``start .. stop`` to every lane and
    returns each lane's misses; ``resize(lane, split)`` lands at the recorded
    positions.
    """
    series = {lane: [] for lane in LANES}
    epoch_misses = dict.fromkeys(LANES, 0)
    position = 0
    for stop in schedule.stops:
        for lane, misses in advance(position, stop).items():
            epoch_misses[lane] += misses
        position = stop
        if position in schedule.oracle_at:
            resize("oracle", schedule.oracle_at[position])
        if position in schedule.epoch_ends:
            resize("adaptive", schedule.adaptive_at[position])
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
    advance = per_event_advance(sims, items, ids)
    series = drive(lambda lane, split: sims[lane].resize(split), advance, lane_schedule(workload, result))

    for lane in LANES:
        recorded = [getattr(epoch, f"{lane}_miss_ratio") for epoch in result.epochs]
        assert [misses / (e.end - e.start) for misses, e in zip(series[lane], result.epochs)] == recorded, lane
        assert sims[lane].miss_ratio == getattr(result, f"{lane}_miss_ratio"), lane
    assert sims["adaptive"].capacities == result.final_allocation
    return series


def feed_sketches(sketches, items: np.ndarray, tenant_ids: np.ndarray, start: int, end: int) -> None:
    """Feed composed events ``start .. end`` to one sketch per tenant.

    Every sketch also advances past the other tenants' events, so all of them
    stay on the composed timeline and a quiet tenant drains out of its window.
    """
    chunk = items[start:end]
    for sketch, tenant_items in zip(sketches, split_by_tenant(chunk, tenant_ids[start:end], len(sketches))):
        sketch.update(tenant_items)
        sketch.advance(int(chunk.size - tenant_items.size))


def new_sketches(num_tenants: int, window: int, decay: float, rate: float, seed: int):
    """One empty sketch per tenant."""
    return [WindowedShardsSketch(window=window, decay=decay, rate=rate, seed=seed) for _ in range(num_tenants)]


def sketches_at(items, tenant_ids, num_tenants, stops, stop, window, decay, rate, seed):
    """The sketches as a replay holds them at ``stop``, rebuilt from the chunk holding the window's start.

    A sketch keeps the samples of its last ``window`` timeline positions
    only, so fresh sketches fed the chunks from that one on end in the same
    state as sketches fed from the start.
    """
    starts = [0, *stops]
    first = bisect.bisect_right(starts, max(stop - window, 0)) - 1
    rebuilt = new_sketches(num_tenants, window, decay, rate, seed)
    for sketch in rebuilt:
        sketch.advance(starts[first])
    for start, end in zip(starts[first:], stops[first:]):
        if start >= stop:
            break
        feed_sketches(rebuilt, items, tenant_ids, start, end)
    return rebuilt


def sketch_profile(sketch, budget: int, unit: int):
    """One tenant's windowed ``(curve, discretization)``: ``(None, idle)`` for an empty sampled window.

    A window whose decayed offered mass underflowed to 0 counts as empty.
    """
    snapshot = sketch.snapshot()
    if snapshot.sampled == 0 or snapshot.offered_weight * snapshot.effective_rate == 0:
        return None, idle_curve(unit)
    curve = curve_of_snapshot(snapshot, max_cache_size=budget)
    return curve, discretize_curve(curve, budget, unit=unit)


def sketch_profiles(items, tenant_ids, num_tenants, stops, epoch_ends, window, decay, rate, seed, budget, unit):
    """Per epoch end: every tenant's ``(curve, discretization)`` and the samples the sketches hold."""
    sketches = new_sketches(num_tenants, window, decay, rate, seed)
    profiles = {}
    for start, end in zip([0, *stops], stops):
        feed_sketches(sketches, items, tenant_ids, start, end)
        if end in epoch_ends:
            held = sum(sketch.sampled for sketch in sketches)
            profiles[end] = [sketch_profile(sketch, budget, unit) for sketch in sketches], held
    return profiles


class FenwickTree:
    """A binary indexed tree over ``size`` integer counters (prefix sums).

    Supports point updates and prefix-sum queries in :math:`O(\\log n)`; the
    tree behind :func:`stack_distances_fenwick` and :func:`count_inversions_fenwick`.
    """

    __slots__ = ("_tree", "_size", "_total")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self._size = int(size)
        self._tree = np.zeros(self._size + 1, dtype=np.int64)
        self._total = 0

    @property
    def size(self) -> int:
        """Number of slots in the tree."""
        return self._size

    @property
    def total(self) -> int:
        """Sum of all counters."""
        return self._total

    def add(self, index: int, delta: int = 1) -> None:
        """Add ``delta`` to the counter at ``index`` (0-based)."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for FenwickTree of size {self._size}")
        self._total += delta
        i = index + 1
        tree = self._tree
        while i <= self._size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of counters at positions ``0 .. index`` inclusive (``index = -1`` gives 0)."""
        if index < 0:
            return 0
        if index >= self._size:
            index = self._size - 1
        i = index + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += int(tree[i])
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of counters at positions ``lo .. hi`` inclusive."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)

    def suffix_sum(self, index: int) -> int:
        """Sum of counters at positions ``index .. size-1`` inclusive."""
        return self._total - self.prefix_sum(index - 1)


def count_inversions_naive(sequence: Sequence[int]) -> int:
    """Count inversions with the quadratic double loop."""
    arr = list(sequence)
    m = len(arr)
    return sum(1 for i in range(m) for j in range(i + 1, m) if arr[i] > arr[j])


def count_inversions_fenwick(sequence: Sequence[int]) -> int:
    """Count inversions with a Fenwick tree sweep in :math:`O(m \\log m)`, values rank-compressed first."""
    arr = np.asarray(sequence)
    m = arr.size
    ranks = np.empty(m, dtype=np.intp)
    ranks[np.argsort(arr, kind="stable")] = np.arange(m)
    tree = FenwickTree(m)
    count = 0
    # Sweep right-to-left: an inversion (i, j), i < j, arr[i] > arr[j] is found
    # when processing i by counting already-seen elements with smaller rank.
    for i in range(m - 1, -1, -1):
        count += tree.prefix_sum(int(ranks[i]) - 1)
        tree.add(int(ranks[i]))
    return count


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


def dp_allocate_per_unit(curves, budget_units: int) -> np.ndarray:
    """Exact minimum-total-miss allocation, folding each tenant in one unit ``x`` at a time.

    ``best[b]`` takes ``dp[b - x] + misses[x]`` only on a strict improvement,
    so ties keep the smallest ``x``; the traceback starts at the full budget.
    """
    budget_units = int(budget_units)
    if budget_units < 0:
        raise ValueError(f"budget_units must be >= 0, got {budget_units}")
    width = budget_units + 1
    dp = np.zeros(width, dtype=np.float64)
    choices = np.zeros((len(curves), width), dtype=np.int64)
    for t, curve in enumerate(curves):
        best = np.full(width, np.inf)
        for x in range(min(curve.max_units, budget_units) + 1):
            candidate = dp[: width - x] + curve.misses[x]
            better = candidate < best[x:]
            best[x:][better] = candidate[better]
            choices[t, x:][better] = x
        dp = best
    allocation = np.zeros(len(curves), dtype=np.int64)
    b = budget_units
    for t in range(len(curves) - 1, -1, -1):
        allocation[t] = choices[t, b]
        b -= int(choices[t, b])
    return allocation
