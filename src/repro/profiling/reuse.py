"""One-pass streaming reuse-time profiling and the AET miss-ratio model.

The exact MRC pipeline needs the whole trace in memory (Fenwick tree over
positions).  This module profiles a trace in a *single forward pass* with
memory bounded by the footprint plus a fixed histogram, so arbitrarily long,
generator-backed traces can be profiled without ever materialising them:

1. :class:`ReuseTimeProfiler` consumes references one at a time and records
   each access's *reuse time* — the number of references since the previous
   access to the same item (``t = pos - last_pos``) — into a
   :class:`ReuseTimeHistogram`.
2. :meth:`ReuseTimeHistogram.to_mrc` converts the reuse-time distribution to
   a miss-ratio curve with the average-eviction-time (AET) model (Hu et al.,
   USENIX ATC'16): under LRU, a cache of size ``c`` evicts items after they
   have been idle for ``AET(c)`` references, where
   ``c = sum_{t=0..AET(c)} P(t)`` and ``P(t)`` is the probability a reference
   has reuse time greater than ``t``; the miss ratio at size ``c`` is then
   ``P(AET(c))``.

The histogram is exact for reuse times up to ``fine_limit`` and logarithmic
beyond it (each power-of-two octave split into ``coarse_per_octave`` equal
buckets), so its size is ``O(fine_limit + log(trace length))`` — independent
of both trace length and footprint.  An in-memory array skips the
per-reference loop: one pass of the native kernel (or a stable argsort in
numpy) counts every reuse time, and the counts are summed per bucket range
into exactly the histogram the profiler would have built.

Unlike SHARDS (:mod:`repro.profiling.shards`), which is exact modulo sampling,
the AET conversion is itself a model: it assumes reuse times describe the
trace homogeneously.  It is extremely cheap (one dictionary update per
reference) and accurate on throughput-style workloads; the sampling-ablation
experiment quantifies the error against the exact curve.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..cache._native import native_kernels
from ..cache.mrc import MissRatioCurve

__all__ = [
    "ReuseTimeHistogram",
    "ReuseTimeProfiler",
    "reuse_mrc",
]


def _check_power_of_two(value: int, name: str) -> int:
    value = int(value)
    if value < 2 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two >= 2, got {value}")
    return value


@dataclass
class ReuseTimeHistogram:
    """Bounded-size histogram of reuse times with integral bucket arithmetic.

    Buckets: reuse time ``t`` (``t >= 1``) lands in bucket ``t - 1`` while
    ``t <= fine_limit``; beyond that, the octave ``[2^k, 2^(k+1))`` is split
    into ``coarse_per_octave`` equal-width buckets.
    """

    fine_limit: int = 4096
    coarse_per_octave: int = 256
    cold: int = 0
    accesses: int = 0
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.fine_limit = _check_power_of_two(self.fine_limit, "fine_limit")
        self.coarse_per_octave = _check_power_of_two(self.coarse_per_octave, "coarse_per_octave")
        if self.coarse_per_octave > self.fine_limit:
            raise ValueError(
                f"coarse_per_octave ({self.coarse_per_octave}) must not exceed "
                f"fine_limit ({self.fine_limit})"
            )
        self.counts = np.asarray(self.counts, dtype=np.int64)

    # ----------------------------------------------------------------- #
    # Bucket arithmetic (scalar and vectorised forms must agree exactly)
    # ----------------------------------------------------------------- #
    def bucket_index(self, reuse_time: int) -> int:
        """Bucket index of a single reuse time (``>= 1``)."""
        t = int(reuse_time)
        if t < 1:
            raise ValueError(f"reuse time must be >= 1, got {t}")
        if t <= self.fine_limit:
            return t - 1
        k = t.bit_length() - 1
        octave = k - (self.fine_limit.bit_length() - 1)
        offset = ((t - (1 << k)) * self.coarse_per_octave) >> k
        return self.fine_limit + octave * self.coarse_per_octave + offset

    def bucket_upper_edge(self, index: int) -> int:
        """Largest reuse time mapped to bucket ``index``."""
        index = int(index)
        if index < self.fine_limit:
            return index + 1
        octave, j = divmod(index - self.fine_limit, self.coarse_per_octave)
        k = (self.fine_limit.bit_length() - 1) + octave
        width = (1 << k) // self.coarse_per_octave
        return (1 << k) + (j + 1) * width - 1

    def bucket_upper_edges(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bucket_upper_edge` (bit-identical to the scalar form)."""
        index = np.asarray(indices, dtype=np.int64)
        octave, j = np.divmod(np.maximum(index - self.fine_limit, 0), self.coarse_per_octave)
        k = (self.fine_limit.bit_length() - 1) + octave
        coarse = (np.int64(1) << k) + (j + 1) * ((np.int64(1) << k) // self.coarse_per_octave) - 1
        return np.where(index < self.fine_limit, index + 1, coarse)

    # ----------------------------------------------------------------- #
    # Recording
    # ----------------------------------------------------------------- #
    def _ensure(self, index: int) -> None:
        if index >= self.counts.size:
            grown = np.zeros(index + 1, dtype=np.int64)
            grown[: self.counts.size] = self.counts
            self.counts = grown

    def record_reuse(self, reuse_time: int) -> None:
        """Record one access with a finite reuse time."""
        index = self.bucket_index(reuse_time)
        self._ensure(index)
        self.counts[index] += 1
        self.accesses += 1

    def record_time_counts(self, counts: np.ndarray) -> None:
        """Record ``counts[d]`` accesses of reuse time ``d`` and ``counts[0]`` cold ones."""
        counts = np.asarray(counts, dtype=np.int64)
        self.record_cold(int(counts[0]))
        reused = counts[1:] != 0
        if not reused.any():
            return
        longest = reused.size - int(np.argmax(reused[::-1]))
        top = self.bucket_index(longest)
        self._ensure(top)
        # Sum every bucket's range of reuse times.
        starts = np.concatenate([[1], self.bucket_upper_edges(np.arange(top)) + 1])
        self.counts[: top + 1] += np.add.reduceat(counts[: longest + 1], starts)
        self.accesses += int(counts[1 : longest + 1].sum())

    def record_cold(self, n: int = 1) -> None:
        """Record ``n`` cold (first-ever) accesses."""
        self.cold += int(n)
        self.accesses += int(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReuseTimeHistogram):
            return NotImplemented
        if (
            self.fine_limit != other.fine_limit
            or self.coarse_per_octave != other.coarse_per_octave
            or self.cold != other.cold
            or self.accesses != other.accesses
        ):
            return False
        size = max(self.counts.size, other.counts.size)
        a = np.zeros(size, dtype=np.int64)
        b = np.zeros(size, dtype=np.int64)
        a[: self.counts.size] = self.counts
        b[: other.counts.size] = other.counts
        return bool(np.array_equal(a, b))

    # ----------------------------------------------------------------- #
    # AET model
    # ----------------------------------------------------------------- #
    def to_mrc(self, max_cache_size: int | None = None) -> MissRatioCurve:
        """Miss-ratio curve via the average-eviction-time model.

        The default curve length is the number of cold accesses, which equals
        the number of distinct items the profiler has seen.
        """
        if self.accesses == 0:
            raise ValueError("cannot build a miss-ratio curve from an empty histogram")
        limit = int(max_cache_size) if max_cache_size is not None else max(self.cold, 1)
        if limit < 1:
            raise ValueError(f"max_cache_size must be >= 1, got {max_cache_size}")

        # Walk the non-empty buckets in order.  Bucket i has survival
        # s_i = P(reuse time >= its first value) and raises the AET integral
        # to I_i = I_(i-1) + s_i * width_i (a sequential float sum, as
        # np.cumsum computes it).  Cache size c takes the survival of the
        # first bucket with I_(i-1) >= c or I_i > c; sizes past the last
        # bucket take the cold-miss floor.
        n = float(self.accesses)
        index = np.flatnonzero(self.counts)
        count = self.counts[index]
        tail = int(count.sum()) - (np.cumsum(count) - count)
        survival = (self.cold + tail) / n
        edges = self.bucket_upper_edges(index)
        integral = np.cumsum(survival * np.diff(edges, prepend=0))
        before = np.concatenate([[0.0], integral])[:-1]
        sizes = np.arange(1, limit + 1)
        first = np.minimum(
            np.searchsorted(before, sizes, side="left"),
            np.searchsorted(integral, sizes, side="right"),
        )
        floor = self.cold / n if self.cold else 0.0
        ratios = np.append(survival, floor)[first]
        return MissRatioCurve(ratios=ratios, accesses=int(self.accesses))


def _reuse_time_counts(arr: np.ndarray) -> np.ndarray:
    """``counts[d]``: references whose item was last accessed ``d`` references earlier; ``counts[0]``: cold ones."""
    native = native_kernels()
    if native is not None:
        return native.reuse_time_counts(arr)
    # A stable sort puts each item's accesses next to each other, in order.
    order = np.argsort(arr, kind="stable")
    later, earlier = order[1:], order[:-1]
    reuse = arr[later] == arr[earlier]
    times = np.zeros(arr.size, dtype=np.int64)
    times[later[reuse]] = later[reuse] - earlier[reuse]
    return np.bincount(times, minlength=arr.size + 1)


class ReuseTimeProfiler:
    """Single-pass, bounded-memory reuse-time profiler.

    Feed references one at a time (or in chunks); memory is one dictionary
    entry per distinct item plus the fixed-size histogram.  The input is never
    materialised, so generator-backed traces of arbitrary length can be
    profiled.
    """

    def __init__(
        self,
        *,
        fine_limit: int = ReuseTimeHistogram.fine_limit,
        coarse_per_octave: int = ReuseTimeHistogram.coarse_per_octave,
    ):
        self.histogram = ReuseTimeHistogram(fine_limit=fine_limit, coarse_per_octave=coarse_per_octave)
        self._last_seen: dict[int, int] = {}
        self._position = 0

    @property
    def accesses(self) -> int:
        """Number of references recorded so far."""
        return self.histogram.accesses

    @property
    def footprint(self) -> int:
        """Distinct items seen so far."""
        return len(self._last_seen)

    def update(self, item: int) -> None:
        """Consume one reference."""
        item = int(item)
        last = self._last_seen.get(item)
        if last is None:
            self.histogram.record_cold()
        else:
            self.histogram.record_reuse(self._position - last)
        self._last_seen[item] = self._position
        self._position += 1

    def feed(self, references: Iterable[int]) -> "ReuseTimeProfiler":
        """Consume an iterable of references; returns ``self`` for chaining."""
        last_seen = self._last_seen
        histogram = self.histogram
        position = self._position
        for item in references:
            item = int(item)
            last = last_seen.get(item)
            if last is None:
                histogram.record_cold()
            else:
                histogram.record_reuse(position - last)
            last_seen[item] = position
            position += 1
        self._position = position
        return self

    def mrc(self, max_cache_size: int | None = None) -> MissRatioCurve:
        """The miss-ratio curve of everything consumed so far."""
        return self.histogram.to_mrc(max_cache_size if max_cache_size is not None else max(self.footprint, 1))


def reuse_mrc(
    trace: Sequence[int] | np.ndarray | Iterator[int] | Iterable[int],
    *,
    max_cache_size: int | None = None,
    fine_limit: int = ReuseTimeHistogram.fine_limit,
    coarse_per_octave: int = ReuseTimeHistogram.coarse_per_octave,
) -> MissRatioCurve:
    """One-pass approximate miss-ratio curve of a trace or reference stream.

    Array inputs (including :class:`repro.trace.trace.Trace` objects) count
    their reuse times in one vectorised pass (identical results, tested);
    other iterables stream through :class:`ReuseTimeProfiler` one reference
    at a time.
    """
    accesses = getattr(trace, "accesses", None)
    if accesses is not None:
        trace = accesses
    if isinstance(trace, np.ndarray) or isinstance(trace, Sequence):
        histogram = ReuseTimeHistogram(fine_limit=fine_limit, coarse_per_octave=coarse_per_octave)
        histogram.record_time_counts(_reuse_time_counts(np.asarray(trace, dtype=np.int64)))
        return histogram.to_mrc(max_cache_size)
    profiler = ReuseTimeProfiler(fine_limit=fine_limit, coarse_per_octave=coarse_per_octave)
    profiler.feed(trace)
    return profiler.mrc(max_cache_size)
