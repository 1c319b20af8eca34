"""Reuse-interval and LRU stack-distance algorithms for arbitrary traces.

The closed-form results of :mod:`repro.core.hits` apply to periodic traces
``A σ(A)``; general program traces reuse data arbitrarily often (the
limitation discussed in Section VI-D/E).  This module provides the classic
trace-processing algorithms so that arbitrary traces can be analysed and the
periodic special case can be cross-validated:

* :func:`reuse_intervals` — the time (access count) between consecutive uses
  of the same item (Definition 4).
* :func:`stack_distances` — the Olken/Bennett–Kruskal algorithm: a Fenwick
  tree over access times marks the *last* access of every item, so the number
  of distinct items touched since the previous access of the current item is a
  suffix sum — ``O(N log N)`` overall.
* :func:`stack_distances_with_previous` — the one fast entry point every
  consumer goes through (:func:`stack_distances_vectorized`,
  :func:`hit_counts`, the SHARDS sketch, the per-tenant distance passes and
  :class:`StackDistanceStream`).  It runs the same Olken algorithm as a C
  kernel (``_olken.c``: an open-addressing label table plus a Fenwick tree
  over time, ``O(N log N)`` in one pass, ~7–10M refs/s), compiled on first
  use and loaded through :mod:`ctypes` by :mod:`repro.cache._native`.  Where
  no C compiler is available it falls back to a loop-free numpy form: each
  reuse pair becomes an *arc* ``(j, next(j))``, the distance is
  ``next(j) - j`` minus the number of arcs strictly nested inside, and
  nested-arc counting is "count smaller elements to the right" of the
  arc-end sequence — a level-by-level vectorised merge sort
  (``O(N log^2 N)`` NumPy work, ~0.7–1M refs/s).  Both are bit-identical.
* :func:`stack_distance_histogram` and :func:`hit_counts` — aggregate forms
  used by the miss-ratio-curve construction in :mod:`repro.cache.mrc`.
* :class:`StackDistanceStream` — the *chunked* form of the vectorised
  algorithm: exact distances for a trace delivered in segments, carrying
  ``O(footprint)`` state between segments so arbitrarily long (for example
  ``numpy.memmap``-backed) traces are processed in bounded memory.  This is
  the distance source of the batch partitioned-LRU replay data plane in
  :mod:`repro.sim.partitioned`.

Distances use the same convention as the rest of the library: the *stack
distance* of an access is ``1 +`` the number of distinct items referenced since
the previous access to the same item; first-ever accesses (cold misses) have
no finite distance and are reported as ``0`` sentinel in the histogram's
overflow slot or ``numpy.iinfo(np.int64).max`` in per-access arrays.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.inversions import FenwickTree
from ._native import native_kernels

__all__ = [
    "COLD",
    "reuse_intervals",
    "stack_distances",
    "stack_distances_vectorized",
    "stack_distances_with_previous",
    "stack_distance_histogram",
    "hit_counts",
    "StackDistanceStream",
]

#: Sentinel distance assigned to cold (first-ever) accesses.
COLD: int = int(np.iinfo(np.int64).max)


def _as_trace(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise ValueError(f"trace must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"trace items must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def reuse_intervals(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Reuse interval of each access: accesses since the previous use of the same item.

    The first access of an item has no previous use and is reported as
    :data:`COLD`.  (The paper's Definition 4 assigns the interval to the
    *earlier* access of the pair; assigning it to the later access, as done
    here, is the standard trace-processing convention and carries the same
    multiset of finite values.)
    """
    arr = _as_trace(trace)
    out = np.full(arr.size, COLD, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for pos in range(arr.size):
        item = int(arr[pos])
        if item in last_seen:
            out[pos] = pos - last_seen[item] - 1
        last_seen[item] = pos
    return out


def stack_distances(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distances via the Olken / Bennett–Kruskal Fenwick-tree algorithm.

    For each access the algorithm needs the number of *distinct* items touched
    since the previous access to the same item.  Keeping a Fenwick tree with a
    1 at the position of every item's most recent access, that count is the
    sum of the tree over positions after the item's previous access.  Each
    access does O(log N) work.
    """
    arr = _as_trace(trace)
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
            distinct_between = tree.range_sum(prev + 1, pos - 1)
            out[pos] = distinct_between + 1
            tree.add(prev, -1)
        tree.add(pos, 1)
        last_pos[item] = pos
    return out


def _count_smaller_right(values: np.ndarray) -> np.ndarray:
    """For each element, the number of *strictly smaller* elements to its right.

    Merge-sort decomposition without the merge: every pair ``(i, j)`` with
    ``i < j`` lands at exactly one level in sibling halves of one block, so
    the count splits into per-level contributions "smaller elements in my
    block's right half" — and the levels are mutually independent, each
    reading the *original* array.  The smallest levels (blocks up to 32
    elements) collapse into one brute-force pairwise pass; every wider level
    is one row-wise :func:`numpy.sort` of the right halves plus a single
    flat :func:`numpy.searchsorted` (block rows are made globally monotone
    with per-block offsets, so one call ranks every left-half element at
    once, and the queries need no sorting at all).  Requires distinct values
    (callers pass last-access positions, which are unique); the array is
    padded to a power of two with sentinels that sort last.
    """
    n = values.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    size = 1
    while size < n:
        size *= 2
    # Normalise to small non-negative ints so the per-block offsets below
    # cannot overflow: offsets reach (blocks - 1) * stride < n * (span + 1).
    low = np.int64(values.min())
    span = np.int64(values.max()) - low + np.int64(2)  # one sentinel slot past the largest value
    vals = np.full(size, span - 1, dtype=np.int64)
    vals[:n] = values - low

    # Base case: all pairs inside 32-element blocks at once.  Sentinels never
    # count as smaller (they are the maximum), and counts at padded positions
    # are discarded by the final [:n].
    base = min(size, 32)
    rows = vals.reshape(-1, base)
    to_the_right = np.triu(np.ones((base, base), dtype=bool), 1)[None, :, :]  # [i, j]: j > i
    larger = rows[:, :, None] > rows[:, None, :]  # [b, i, j]: v_i > v_j
    counts = (larger & to_the_right).sum(axis=2).reshape(-1).astype(np.int64)
    width = base
    while width < size:
        pair = 2 * width
        blocks = size // pair
        rows = vals.reshape(blocks, pair)
        offsets = np.arange(blocks, dtype=np.int64) * span
        right = np.sort(rows[:, width:], axis=1) + offsets[:, None]
        queries = rows[:, :width] + offsets[:, None]
        ranks = np.searchsorted(right.reshape(-1), queries.reshape(-1)).astype(np.int64).reshape(blocks, width)
        ranks -= np.arange(blocks, dtype=np.int64)[:, None] * width  # drop earlier blocks' right halves
        counts.reshape(blocks, pair)[:, :width] += ranks
        width = pair
    return counts[:n]


def _reuse_arcs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reuse arcs ``(start, end)`` of a trace, sorted by start position.

    Adjacent equal items after a stable sort are consecutive accesses of the
    same item; each such pair is one arc.
    """
    order = np.argsort(arr, kind="stable")
    sorted_items = arr[order]
    same = sorted_items[1:] == sorted_items[:-1]
    starts = order[:-1][same]
    ends = order[1:][same]
    by_start = np.argsort(starts)
    return starts[by_start], ends[by_start]


def stack_distances_vectorized(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact LRU stack distances with no per-access Python loop.

    Identity: write each reuse as an *arc* from a position to the next access
    of the same item.  For the access closing arc ``(p, t)`` the stack
    distance is ``1 +`` the number of distinct items in ``(p, t)``; a position
    ``j`` in that window contributes a distinct item iff its own next access
    falls at or after ``t``, so the non-contributing positions are exactly the
    arcs strictly nested inside ``(p, t)`` and

    ``distance(t) = t - p - #{arcs (j, next(j)) : p < j, next(j) < t}``.

    Arc starts are increasing, so the nested count per arc is "count smaller
    elements to the right" over the arc-end sequence — the numpy fallback of
    :func:`stack_distances_with_previous`, whose C kernel runs the Fenwick
    algorithm of :func:`stack_distances` instead.  Bit-identical to
    :func:`stack_distances` either way (cross-validated in the test-suite).
    """
    return stack_distances_with_previous(trace)[0]


def stack_distances_with_previous(trace: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack distances plus each access's previous-access position.

    Returns ``(distances, previous)`` where ``previous[t]`` is the position
    of the preceding access to the same item (``-1`` for a first-ever
    access).  The pair is what makes whole-stream distances reusable for
    *subtrace* analyses: an access whose previous access falls inside a
    suffix ``[s, ...)`` has the same stack distance in that suffix as in the
    whole stream (the distinct items between the two accesses all lie inside
    it), and an access with ``previous < s`` is simply cold there — the
    identity behind the free per-phase oracle profiles in
    :mod:`repro.online.replay`.

    Served by the C kernel when this machine can build it (see
    :mod:`repro.cache._native`), else by the bit-identical numpy path.
    """
    arr = _as_trace(trace)
    native = native_kernels() if arr.size else None
    if native is None:
        return _stack_distances_with_previous_numpy(arr)
    return native.stack_distances(arr)


def _stack_distances_with_previous_numpy(trace: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stack_distances_with_previous` by the nested-arc identity, in numpy only.

    The fallback where the C kernel cannot be built, and the differential
    reference the test-suite holds the kernel to.
    """
    arr = _as_trace(trace)
    n = arr.size
    out = np.full(n, COLD, dtype=np.int64)
    previous = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out, previous
    arc_start, arc_end = _reuse_arcs(arr)
    if arc_start.size == 0:
        return out, previous
    nested = _count_smaller_right(arc_end)
    out[arc_end] = arc_end - arc_start - nested
    previous[arc_end] = arc_start
    return out, previous


def _count_larger_left(values: np.ndarray) -> np.ndarray:
    """For each element, the number of *strictly larger* elements to its left.

    Reduction to :func:`_count_smaller_right`: negating flips the order and
    reversing flips left/right, so larger-to-the-left of ``a`` is
    smaller-to-the-right of ``-a`` reversed (same distinct-values
    requirement; callers pass last-access positions, which are unique).
    """
    return _count_smaller_right(-values[::-1])[::-1]


class StackDistanceStream:
    """Exact LRU stack distances for a trace consumed chunk by chunk.

    :meth:`feed` returns the stack distances of a chunk's accesses measured
    over the *whole* stream consumed so far — bit-identical to running
    :func:`stack_distances_vectorized` over the concatenation of every chunk
    — while carrying only ``O(footprint)`` state between chunks.  Long
    (``numpy.memmap``-backed) traces therefore stream through in bounded
    memory: per chunk the cost is one vectorised in-chunk distance pass plus
    ``O((footprint + chunk) log)`` NumPy work for the cross-chunk reuses.

    The cross-chunk correction uses the same arc identity as the one-shot
    algorithm.  An access at chunk position ``t`` whose previous access ``p``
    lies in an earlier chunk has distance ``1 + |{items last accessed in
    (p, t)}|``, split into (a) items with an in-chunk access before ``t``
    (the rank of ``t`` among in-chunk first occurrences), plus (b) carried
    items whose pre-chunk last access exceeds ``p`` (a sorted-array rank),
    minus (c) carried items counted by both — an offline dominance count over
    the cross-chunk reuses themselves (:func:`_count_larger_left`).

    Examples
    --------
    >>> stream = StackDistanceStream()
    >>> stream.feed([1, 2]).tolist() == [COLD, COLD]
    True
    >>> stream.feed([2, 3, 2, 1]).tolist()  # == stack_distances([1,2,2,3,2,1])[2:]
    [1, 9223372036854775807, 2, 3]
    """

    def __init__(self) -> None:
        self._labels = np.zeros(0, dtype=np.int64)  # distinct items, sorted
        self._positions = np.zeros(0, dtype=np.int64)  # last global access position, aligned to _labels
        self._clock = 0

    @property
    def clock(self) -> int:
        """Number of accesses consumed so far."""
        return self._clock

    @property
    def footprint(self) -> int:
        """Number of distinct items seen so far."""
        return int(self._labels.size)

    def state_dict(self) -> dict:
        """Picklable snapshot of the carried state (for checkpoint/resume).

        The whole carried state is the sorted distinct labels, their aligned
        last-access positions, and the clock — restoring it and continuing to
        :meth:`feed` is bit-identical to never having stopped.
        """
        return {
            "labels": self._labels.copy(),
            "positions": self._positions.copy(),
            "clock": int(self._clock),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore carried state captured by :meth:`state_dict`."""
        self._labels = np.asarray(state["labels"], dtype=np.int64).copy()
        self._positions = np.asarray(state["positions"], dtype=np.int64).copy()
        self._clock = int(state["clock"])

    def feed(self, chunk: Sequence[int] | np.ndarray) -> np.ndarray:
        """Consume one chunk; return its whole-stream stack distances.

        Cold accesses (first-ever across *all* chunks) report :data:`COLD`.
        """
        arr = _as_trace(chunk)
        n = int(arr.size)
        out = stack_distances_vectorized(arr)
        if n == 0:
            return out
        start = self._clock
        uniq, first_idx = np.unique(arr, return_index=True)

        # Previous (pre-chunk) global position of every distinct chunk item.
        if self._labels.size:
            loc = np.minimum(np.searchsorted(self._labels, uniq), self._labels.size - 1)
            found = self._labels[loc] == uniq
            prev = np.where(found, self._positions[loc], np.int64(-1))
        else:
            loc = np.zeros(uniq.size, dtype=np.intp)
            found = np.zeros(uniq.size, dtype=bool)
            prev = np.full(uniq.size, -1, dtype=np.int64)

        reused = prev >= 0
        if reused.any():
            active = np.sort(self._positions)  # one last position per carried item
            order = np.argsort(first_idx[reused])  # cross-chunk reuses in chunk order
            q_first = first_idx[reused][order]
            q_prev = prev[reused][order]
            distinct_before = np.searchsorted(np.sort(first_idx), q_first)
            carried_above = active.size - np.searchsorted(active, q_prev, side="right")
            dominated = _count_larger_left(q_prev)
            out[q_first] = 1 + distinct_before + carried_above - dominated

        # Advance the carried state to this chunk's last occurrences.
        last_global = start + (n - 1) - np.unique(arr[::-1], return_index=True)[1]
        if found.any():
            self._positions[loc[found]] = last_global[found]
        new = ~found
        if new.any():
            labels = np.concatenate([self._labels, uniq[new]])
            positions = np.concatenate([self._positions, last_global[new]])
            merge = np.argsort(labels, kind="stable")
            self._labels = labels[merge]
            self._positions = positions[merge]
        self._clock = start + n
        return out


def stack_distance_histogram(
    trace: Sequence[int] | np.ndarray, *, max_distance: int | None = None
) -> tuple[np.ndarray, int]:
    """Histogram of finite stack distances plus the count of cold accesses.

    Returns ``(hist, cold)`` where ``hist[d - 1]`` counts accesses at stack
    distance ``d`` (1-based, up to ``max_distance`` or the number of distinct
    items) and ``cold`` counts first-ever accesses.  Uses the vectorised
    distance pass, so histogram construction never loops per access.
    """
    arr = _as_trace(trace)
    distances = stack_distances_vectorized(arr)
    finite = distances[distances != COLD]
    cold = int(arr.size - finite.size)
    limit = max(int(max_distance) if max_distance is not None else (int(finite.max()) if finite.size else 0), 0)
    hist = np.bincount(finite[finite <= limit] - 1, minlength=limit).astype(np.int64, copy=False)
    return hist, cold


def hit_counts(trace: Sequence[int] | np.ndarray, *, max_cache_size: int | None = None) -> np.ndarray:
    """``hits_c`` for ``c = 1 .. max_cache_size`` on an arbitrary trace.

    An access hits in a fully-associative LRU cache of size ``c`` exactly when
    its stack distance is ≤ ``c``; the hit-count vector is therefore the
    cumulative sum of the stack-distance histogram.  The default cache-size
    range extends to the number of distinct items in the trace.
    """
    # Every distinct item has exactly one cold (first) access.
    hist, distinct = stack_distance_histogram(trace)
    limit = max(int(max_cache_size), 0) if max_cache_size is not None else distinct
    return np.cumsum(np.concatenate([hist[:limit], np.zeros(max(limit - hist.size, 0), dtype=np.int64)]))
