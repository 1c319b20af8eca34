"""Descriptive statistics of traces.

These summarise a trace before the heavier locality analyses are run:
footprint, access frequencies, reuse-interval and stack-distance summaries,
and a locality *score* comparing the trace's mean stack distance against the
cyclic and sawtooth extremes of the same footprint (the normalised position of
the trace within the symmetric-locality spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.stack_distance import COLD, stack_distances_with_previous
from .trace import Trace

__all__ = ["TraceStats", "summarize", "locality_score"]


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace."""

    name: str
    accesses: int
    footprint: int
    cold_accesses: int
    mean_reuse_interval: float
    mean_stack_distance: float
    median_stack_distance: float
    max_stack_distance: int

    def reuse_fraction(self) -> float:
        """Fraction of accesses that reuse previously touched data."""
        return 1.0 - self.cold_accesses / self.accesses if self.accesses else 0.0


def summarize(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for a trace."""
    return summarize_with_distances(trace)[0]


def summarize_with_distances(trace: Trace) -> tuple[TraceStats, np.ndarray]:
    """:func:`summarize` plus the trace's finite stack distances, both from its one distance pass."""
    arr = trace.accesses
    if arr.size == 0:
        raise ValueError("cannot summarise an empty trace")
    distances, previous = stack_distances_with_previous(arr)
    reused = previous >= 0
    finite_intervals = np.flatnonzero(reused) - previous[reused] - 1
    finite_distances = distances[distances != COLD]
    cold = int(arr.size - finite_distances.size)
    return TraceStats(
        name=trace.name,
        accesses=int(arr.size),
        footprint=trace.footprint,
        cold_accesses=cold,
        mean_reuse_interval=float(finite_intervals.mean()) if finite_intervals.size else float("nan"),
        mean_stack_distance=float(finite_distances.mean()) if finite_distances.size else float("nan"),
        median_stack_distance=float(np.median(finite_distances)) if finite_distances.size else float("nan"),
        max_stack_distance=int(finite_distances.max()) if finite_distances.size else 0,
    ), finite_distances


def locality_score(trace: Trace | TraceStats) -> float:
    """Position of the trace's mean stack distance between sawtooth (1) and cyclic (0).

    For the trace's footprint ``m``, the best possible mean stack distance of
    a full re-traversal is ``(m + 1) / 2`` (sawtooth) and the worst is ``m``
    (cyclic).  The score linearly interpolates between those anchors and is
    clipped to ``[0, 1]``; traces with no reuse at all return 0.  Pass the
    trace's :class:`TraceStats` when they are already at hand, so the trace
    is not summarised a second time.
    """
    stats = trace if isinstance(trace, TraceStats) else summarize(trace)
    m = stats.footprint
    if m <= 1 or np.isnan(stats.mean_stack_distance):
        return 0.0
    best = (m + 1) / 2.0
    worst = float(m)
    if worst == best:
        return 1.0
    raw = (worst - stats.mean_stack_distance) / (worst - best)
    return float(np.clip(raw, 0.0, 1.0))
