"""Multi-capacity simulation kernels.

Each kernel answers "how many hits does policy P score at *every* capacity in
a grid" in one call over flat arrays, instead of replaying the trace once per
:class:`~repro.cache.base.CacheModel` instance:

* :func:`lru_sweep_hits` — LRU satisfies the stack inclusion property, so the
  whole capacity grid falls out of a single stack-distance histogram
  (``hits(c)`` = accesses at stack distance ≤ ``c``); a grid of one capacity
  runs a native linked-list LRU instead.  Exact: bit-identical to
  per-capacity :class:`~repro.cache.lru.LRUCache` replay.
* :func:`fifo_sweep_hits` — FIFO has no inclusion property (Belady's
  anomaly), so every capacity is a genuine *lane* of the simulation.  A
  FIFO-resident item is exactly one whose last insertion is among the lane's
  ``capacity`` most recent insertions, so each lane needs only a per-item
  last-insertion index and a miss counter — no queue.  Bit-identical to
  :class:`~repro.cache.fifo.FIFOCache` replay.
* :func:`random_sweep_hits` — random replacement, same lane layout, with
  explicit victim slots.  All lanes consume one shared pre-drawn uniform
  deviate per access, so any subset of capacities — in particular any
  partition of the grid across worker processes — reproduces exactly the same
  per-capacity results for a given seed.
* :func:`set_associative_sweep_hits` — per-set LRU: an access hits iff its
  stack distance *within its set's subtrace* is at most the associativity, so
  each capacity is one grouped stack-distance pass over the set-partitioned
  trace.  Bit-identical to
  :class:`~repro.cache.set_associative.SetAssociativeCache` replay of the
  same label sequence with the default modulo index function (and therefore
  fed *original*, not relabelled, traces by the sweep engine).

The lane kernels take a *preprocessed* trace: :func:`compact_trace` densifies
arbitrary item labels to ``0 .. U-1`` once so they can use flat per-item
state tables, and reject any label outside ``[0, distinct)``.

Both lane kernels run a C loop that walks the whole trace once per lane
(see :mod:`repro.cache._native`) when this machine can build it, else a
bit-identical numpy loop that advances all lanes together per access.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cache._native import native_kernels
from ..cache.stack_distance import COLD, stack_distance_histogram, stack_distances_vectorized

__all__ = [
    "compact_trace",
    "check_capacities",
    "lru_sweep_hits",
    "fifo_sweep_hits",
    "random_sweep_hits",
    "set_associative_sweep_hits",
]

#: Entropy salt mixed into the random-replacement deviate stream so that a
#: sweep seeded with integer ``s`` never aliases a trace generated from the
#: same ``s`` (see :func:`random_sweep_hits`).
_DEVIATE_SALT = 0x5EE9D


def compact_trace(trace: Sequence[int] | np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel a trace to dense item ids ``0 .. U-1`` (access order preserved).

    Returns ``(dense, distinct)`` where ``distinct`` is the footprint ``U``.
    The LRU/FIFO/random policies depend only on item *identity*, so for them
    the relabelled trace is simulation-equivalent and enables flat state
    tables.  The set-associative kernel is the exception — its ``item %
    num_sets`` mapping changes under relabelling — so the sweep engine feeds
    it the original labels instead.
    """
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise ValueError(f"trace must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("cannot sweep an empty trace")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"trace items must be integers, got dtype {arr.dtype}")
    _, dense = np.unique(arr.astype(np.int64, copy=False), return_inverse=True)
    return dense.astype(np.int64, copy=False), int(dense.max()) + 1


def check_capacities(capacities: Sequence[int] | np.ndarray) -> np.ndarray:
    """Validate a capacity grid: positive integers, returned as an int64 array."""
    caps = np.asarray(capacities)
    if caps.ndim != 1 or caps.size == 0:
        raise ValueError("capacities must be a non-empty one-dimensional sequence")
    if not np.issubdtype(caps.dtype, np.integer):
        raise TypeError(f"capacities must be integers, got dtype {caps.dtype}")
    caps = caps.astype(np.int64, copy=False)
    if caps.min() < 1:
        raise ValueError(f"capacities must be >= 1, got {int(caps.min())}")
    return caps


def lru_sweep_hits(trace: Sequence[int] | np.ndarray, capacities: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact LRU hit counts for every capacity of a grid.

    ``hits[k]`` equals ``LRUCache(capacities[k]).run(trace).hits`` for every
    entry of the grid.  A grid of one capacity runs the native single-capacity
    LRU kernel (see :mod:`repro.cache._native`) when this machine can build
    it: ``O(1)`` work per reference.  Every other grid, and every grid without
    a compiler, costs a single ``O(N log N)`` stack-distance histogram pass
    instead of ``len(capacities)`` trace replays.  Either way the memory
    follows the trace, not the capacities: hits stop growing at the largest
    stack distance, so larger capacities read the last cumulative count.
    """
    arr = np.asarray(trace)
    caps = check_capacities(capacities)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"trace items must be integers, got dtype {arr.dtype}")
    native = native_kernels() if caps.size == 1 else None
    if native is None:
        return _lru_histogram_hits(arr, caps)
    return np.array([native.lru_hits(arr, int(caps[0]))], dtype=np.int64)


def _lru_histogram_hits(trace: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The histogram path of :func:`lru_sweep_hits`: ``hits(c)`` = accesses at stack distance ≤ ``c``."""
    hist, _ = stack_distance_histogram(trace)
    cumulative = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(hist)])
    return cumulative[np.minimum(caps, hist.size)]


def _lane_inputs(
    dense_trace: np.ndarray, capacities: Sequence[int] | np.ndarray, distinct: int | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(trace, capacities, distinct)`` of a lane kernel, every label checked to lie in ``[0, distinct)``."""
    arr = np.asarray(dense_trace, dtype=np.int64)
    caps = check_capacities(capacities)
    items = int(distinct) if distinct is not None else (int(arr.max()) + 1 if arr.size else 0)
    if arr.size and (arr.min() < 0 or arr.max() >= items):
        raise ValueError(
            f"dense trace labels must lie in [0, distinct) = [0, {items}), got labels in [{arr.min()}, {arr.max()}]"
        )
    return arr, caps, items


def fifo_sweep_hits(
    dense_trace: np.ndarray, capacities: Sequence[int] | np.ndarray, *, distinct: int | None = None
) -> np.ndarray:
    """Exact FIFO hit counts for every capacity in one call.

    ``dense_trace`` must use dense ids in ``[0, distinct)`` (see
    :func:`compact_trace`); ``distinct`` defaults to the largest label plus
    one.  Per lane the state is the item's last-insertion index and the
    lane's miss count: with ``M`` misses so far, the resident items are
    precisely those inserted at miss index ``>= M - capacity`` (an item inside
    that window can never have been re-inserted, because re-insertion requires
    a prior eviction).  The native kernel walks the trace once per lane; the
    numpy fallback advances all lanes together per access.
    """
    arr, caps, items = _lane_inputs(dense_trace, capacities, distinct)
    native = native_kernels() if arr.size else None
    if native is None:
        return _fifo_lanes_numpy(arr, caps, items)
    return native.fifo_lanes(arr, caps, items)


def _fifo_lanes_numpy(trace: np.ndarray, caps: np.ndarray, distinct: int) -> np.ndarray:
    """The numpy path of :func:`fifo_sweep_hits`: every lane advanced together, one access at a time."""
    never = np.int64(np.iinfo(np.int64).min)
    last_insert = np.full((distinct, caps.size), never, dtype=np.int64)
    misses = np.zeros(caps.size, dtype=np.int64)
    hits = np.zeros(caps.size, dtype=np.int64)
    for item in trace:
        row = last_insert[item]
        resident = row >= misses - caps
        hits += resident
        missed = ~resident
        row[missed] = misses[missed]
        misses[missed] += 1
    return hits


def random_sweep_hits(
    dense_trace: np.ndarray,
    capacities: Sequence[int] | np.ndarray,
    *,
    seed: int = 0,
    distinct: int | None = None,
) -> np.ndarray:
    """Seeded random-replacement hit counts for every capacity in one call.

    Every lane holds an explicit slot table; on an eviction the victim slot is
    ``floor(u_t * capacity)`` where ``u_t`` is the access's pre-drawn uniform
    deviate, shared by all lanes.  Because the deviate stream depends only on
    ``seed`` (never on which other capacities run alongside), partitioning the
    grid across processes cannot change any lane's outcome — the engine's
    ``workers`` knob stays a pure performance knob even for this stochastic
    policy.  A lane never holds more than ``distinct`` items, so its slot
    table is sized by ``min(capacity, distinct)``.  The native kernel walks
    the trace once per lane; the numpy fallback advances all lanes together
    per access.

    The stream is seeded as ``(seed, salt)`` rather than ``seed`` alone:
    deviates sampled at miss times are uniform i.i.d. only while they are
    independent of the trace, and a synthetic trace generated from the same
    integer seed would otherwise be *index-aligned* with its own victim
    choices — a resonance that measurably biases hit ratios.
    """
    arr, caps, items = _lane_inputs(dense_trace, capacities, distinct)
    deviates = np.random.default_rng((int(seed), _DEVIATE_SALT)).random(arr.size)
    native = native_kernels() if arr.size else None
    if native is None:
        return _random_lanes_numpy(arr, caps, items, deviates)
    return native.random_lanes(arr, caps, items, deviates)


def _random_lanes_numpy(trace: np.ndarray, caps: np.ndarray, distinct: int, deviates: np.ndarray) -> np.ndarray:
    """The numpy path of :func:`random_sweep_hits`: every lane advanced together, one access at a time."""
    caps = np.minimum(caps, distinct)  # a lane past the footprint fills and never evicts
    lanes = caps.size
    slots = np.full((lanes, int(caps.max())), -1, dtype=np.int64)
    position = np.full((distinct, lanes), -1, dtype=np.int64)
    occupancy = np.zeros(lanes, dtype=np.int64)
    hits = np.zeros(lanes, dtype=np.int64)
    lane_index = np.arange(lanes)
    for step, item in enumerate(trace):
        resident = position[item] >= 0
        hits += resident
        missing = lane_index[~resident]
        if missing.size == 0:
            continue
        full = occupancy[missing] >= caps[missing]
        filling = missing[~full]
        if filling.size:
            free = occupancy[filling]
            slots[filling, free] = item
            position[item, filling] = free
            occupancy[filling] += 1
        evicting = missing[full]
        if evicting.size:
            victim_slot = (deviates[step] * caps[evicting]).astype(np.int64)
            victims = slots[evicting, victim_slot]
            position[victims, evicting] = -1
            slots[evicting, victim_slot] = item
            position[item, evicting] = victim_slot
    return hits


def set_associative_sweep_hits(trace: np.ndarray, capacities: Sequence[int] | np.ndarray, *, ways: int) -> np.ndarray:
    """Exact set-associative-LRU hit counts for a grid of total capacities.

    Capacity ``c`` means ``c // ways`` sets of ``ways`` entries each, indexed
    by ``item % num_sets`` — the defaults of
    :class:`~repro.cache.set_associative.SetAssociativeCache`, and
    bit-identical to replaying *the same label sequence* through that model.
    Unlike the other kernels this one is **not** relabelling-invariant (the
    modulo mapping depends on the labels), so callers must pass the trace in
    its original label space.  Within a set the policy is plain LRU, so an
    access hits iff its stack distance inside its set's subtrace is at most
    ``ways``; one capacity therefore costs one set-partitioned stack-distance
    pass (the subtraces partition the trace, so the total work per capacity
    matches a single full-trace pass).

    Every capacity must be a positive multiple of ``ways``.
    """
    arr = np.asarray(trace, dtype=np.int64)
    caps = check_capacities(capacities)
    ways = int(ways)
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    if np.any(caps % ways != 0):
        bad = caps[caps % ways != 0]
        raise ValueError(f"set-associative capacities must be multiples of ways={ways}, got {bad.tolist()}")
    hits = np.zeros(caps.size, dtype=np.int64)
    for k, capacity in enumerate(caps):
        num_sets = int(capacity) // ways
        set_of = arr % num_sets
        order = np.argsort(set_of, kind="stable")
        grouped = arr[order]
        boundaries = np.searchsorted(set_of[order], np.arange(1, num_sets))
        total = 0
        for subtrace in np.split(grouped, boundaries):
            if subtrace.size == 0:
                continue
            distances = stack_distances_vectorized(subtrace)
            total += int(np.count_nonzero(distances[distances != COLD] <= ways))
        hits[k] = total
    return hits
