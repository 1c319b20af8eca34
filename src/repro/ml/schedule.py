"""Traversal scheduling and evaluation for repeated parameter accesses.

This is the glue between the theory (:mod:`repro.core.optimal`) and the model
tracing layers: given a model's parameter item count and a number of passes,
build candidate traversal schedules (naive cyclic, Theorem-4 sawtooth
alternation, blocked, or feasibility-constrained), materialise their access
traces, and evaluate them with the cache substrate — total reuse, miss-ratio
curves and average memory access time under a hierarchy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .._util import check_positive_int
from ..cache.hierarchy import CacheHierarchy
from ..cache.mrc import MissRatioCurve, mrc_from_trace
from ..cache.stack_distance import COLD, stack_distances_vectorized
from ..core.optimal import alternating_schedule
from ..core.permutation import Permutation
from ..trace.generators import repeated_traversals
from ..trace.trace import Trace

__all__ = ["ScheduleEvaluation", "build_schedule", "evaluate_schedule", "compare_schedules"]


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Locality metrics of one traversal schedule."""

    name: str
    passes: int
    items: int
    total_reuse: int
    mean_stack_distance: float
    mrc: MissRatioCurve
    amat: float | None = None

    def miss_ratio(self, cache_size: int) -> float:
        """Miss ratio of the schedule's trace at one cache size."""
        return self.mrc[cache_size]


def build_schedule(kind: str, items: int, passes: int) -> list[Permutation]:
    """Build a named traversal schedule over ``items`` data items.

    Kinds
    -----
    ``"cyclic"``
        Identity order on every pass (the STREAM-like baseline).
    ``"sawtooth"``
        Theorem-4 alternation: identity, reverse, identity, reverse, …
    ``"reverse-every-pass"``
        Reverse order on every pass after the first — a deliberately *wrong*
        reading of the optimisation, included to show why the alternation
        matters (two consecutive reversed passes are cyclic relative to each
        other).
    """
    items = check_positive_int(items, "items")
    passes = check_positive_int(passes, "passes")
    identity = Permutation.identity(items)
    reverse = Permutation.reverse(items)
    if kind == "cyclic":
        return [identity] * passes
    if kind == "sawtooth":
        return alternating_schedule(reverse, passes)
    if kind == "reverse-every-pass":
        return [identity] + [reverse] * (passes - 1)
    raise ValueError(f"unknown schedule kind {kind!r}")


def evaluate_schedule(
    schedule: Sequence[Permutation],
    *,
    name: str | None = None,
    hierarchy_levels: Sequence[int] | None = None,
    max_cache_size: int | None = None,
) -> ScheduleEvaluation:
    """Materialise a schedule's access trace and measure its locality.

    Parameters
    ----------
    schedule:
        One permutation per pass over the items.
    hierarchy_levels:
        Optional cache-hierarchy capacities; when given, the average memory
        access time of the trace under that hierarchy is included.
    max_cache_size:
        Upper cache size for the miss-ratio curve (defaults to the footprint).
    """
    if not schedule:
        raise ValueError("schedule must contain at least one pass")
    trace = repeated_traversals(list(schedule))
    return _evaluate_trace(
        trace,
        passes=len(schedule),
        items=schedule[0].size,
        name=name or f"schedule({len(schedule)} passes)",
        hierarchy_levels=hierarchy_levels,
        max_cache_size=max_cache_size,
    )


def _evaluate_trace(
    trace: Trace,
    *,
    passes: int,
    items: int,
    name: str,
    hierarchy_levels: Sequence[int] | None,
    max_cache_size: int | None,
) -> ScheduleEvaluation:
    distances = stack_distances_vectorized(trace.accesses)
    finite = distances[distances != COLD]
    total_reuse = int(finite.sum())
    mean_sd = float(finite.mean()) if finite.size else float("nan")
    mrc = mrc_from_trace(trace.accesses, max_cache_size=max_cache_size)
    amat = None
    if hierarchy_levels:
        hierarchy = CacheHierarchy(list(hierarchy_levels))
        hierarchy.run(trace.accesses.tolist())
        amat = hierarchy.amat()
    return ScheduleEvaluation(
        name=name,
        passes=passes,
        items=items,
        total_reuse=total_reuse,
        mean_stack_distance=mean_sd,
        mrc=mrc,
        amat=amat,
    )


def compare_schedules(
    items: int,
    passes: int,
    *,
    kinds: Sequence[str] = ("cyclic", "sawtooth", "reverse-every-pass"),
    hierarchy_levels: Sequence[int] | None = None,
    max_cache_size: int | None = None,
) -> dict[str, ScheduleEvaluation]:
    """Evaluate several named schedules over the same item set and pass count."""
    out: dict[str, ScheduleEvaluation] = {}
    for kind in kinds:
        schedule = build_schedule(kind, items, passes)
        out[kind] = evaluate_schedule(
            schedule,
            name=kind,
            hierarchy_levels=hierarchy_levels,
            max_cache_size=max_cache_size,
        )
    return out
