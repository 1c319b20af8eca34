"""Miss-ratio curves for arbitrary traces.

``MRC(T)`` (Definition 2) maps each cache size to the miss ratio of the trace
under a fully-associative LRU cache.  This module builds the curve in one
pass from stack distances (the test-suite's oracle simulates each cache size
separately instead), and provides an element-wise averaging helper used by
the Figure 1 experiment.

The construction here is *exact* and costs ``O(N log N)`` in the trace
length; for long traces :mod:`repro.profiling` builds approximate
curves at a fraction of the cost (SHARDS sampling at rate ``R`` does roughly
``R`` times the work, the one-pass reuse-time model never materialises the
trace), with the accuracy loss measured by
:mod:`repro.profiling.accuracy` — typically a mean absolute error around
``0.01`` at ``R = 0.01``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .stack_distance import hit_counts

__all__ = ["MissRatioCurve", "mrc_from_trace", "average_curves"]


@dataclass(frozen=True, eq=False)
class MissRatioCurve:
    """A miss-ratio curve: ``ratios[c - 1]`` is the miss ratio at cache size ``c``.

    The curve is monotonically non-increasing for LRU (a larger cache never
    hurts, by the stack inclusion property).

    ``ratios`` is a read-only ``float64`` array: an owned ``float64`` array
    is taken over and frozen, anything else is copied.  Curves are equal when
    ``accesses`` and the ratios' bits agree, and are not hashable; edges that
    need Python floats (rows, CSV, JSON) call ``ratios.tolist()``.
    """

    ratios: np.ndarray
    accesses: int

    def __post_init__(self):
        ratios = self.ratios
        if not (isinstance(ratios, np.ndarray) and ratios.dtype == np.float64 and ratios.flags.owndata):
            ratios = np.array(ratios, dtype=np.float64)
        if ratios.ndim != 1:
            raise ValueError(f"miss ratios must be one-dimensional, got shape {ratios.shape}")
        if ratios.size == 0:
            raise ValueError("a miss-ratio curve needs at least one cache size")
        ratios.flags.writeable = False
        object.__setattr__(self, "ratios", ratios)

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissRatioCurve):
            return NotImplemented
        mine, theirs = self.ratios.view(np.int64), other.ratios.view(np.int64)
        return self.accesses == other.accesses and mine.size == theirs.size and bool((mine == theirs).all())

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)  # unpickled ratios are writeable (or, from an older pickle, a tuple)

    @property
    def max_cache_size(self) -> int:
        """Number of cache sizes the curve covers."""
        return self.ratios.size

    def __getitem__(self, cache_size: int) -> float:
        """Miss ratio at a given cache size (sizes beyond the curve reuse the last value)."""
        if cache_size < 1:
            raise ValueError(f"cache size must be >= 1, got {cache_size}")
        return float(self.ratios[min(cache_size, self.ratios.size) - 1])

    def as_array(self) -> np.ndarray:
        """The read-only ``ratios`` array itself (index ``c - 1`` is cache size ``c``)."""
        return self.ratios

    def footprint(self, target_miss_ratio: float) -> int | None:
        """Smallest cache size whose miss ratio is at most ``target_miss_ratio`` (or ``None``).

        Binary search over the monotone curve: the reversed ratios are
        non-decreasing, so the count of ratios at or below the target locates
        the answer in ``O(log n)``.
        """
        at_or_below = int(np.searchsorted(self.ratios[::-1], target_miss_ratio, side="right"))
        if at_or_below == 0:
            return None
        return self.ratios.size - at_or_below + 1


def mrc_from_trace(trace: Sequence[int] | np.ndarray, *, max_cache_size: int | None = None) -> MissRatioCurve:
    """Exact LRU miss-ratio curve of a trace from its stack-distance histogram."""
    arr = np.asarray(trace)
    if arr.size == 0:
        raise ValueError("cannot build a miss-ratio curve for an empty trace")
    hits = hit_counts(arr, max_cache_size=max_cache_size)
    ratios = 1.0 - hits.astype(np.float64) / arr.size
    return MissRatioCurve(ratios=ratios, accesses=int(arr.size))


def average_curves(curves: Sequence[MissRatioCurve] | Sequence[Sequence[float]]) -> np.ndarray:
    """Element-wise average of equally long miss-ratio curves.

    This is the aggregation used for Figure 1: the average curve of all
    permutations sharing an inversion number.
    """
    if not curves:
        raise ValueError("need at least one curve to average")
    arrays = [c.as_array() if isinstance(c, MissRatioCurve) else np.asarray(c, dtype=np.float64) for c in curves]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all curves must have the same length")
    return np.mean(np.vstack(arrays), axis=0)
