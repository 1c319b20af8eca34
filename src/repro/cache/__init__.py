"""Cache simulators and trace-level locality measurement.

The paper's reference model is a fully-associative LRU cache
(:class:`LRUCache`); the other policies and organisations exist for the
sensitivity ablations, and the stack-distance / miss-ratio-curve functions
measure arbitrary traces (not just periodic re-traversals).

Examples
--------
>>> from repro.cache import LRUCache, mrc_from_trace
>>> stats = LRUCache(2).run([0, 1, 0, 2, 0, 1])
>>> stats.hits, stats.misses
(2, 4)
>>> curve = mrc_from_trace([0, 1, 0, 2, 0, 1])
>>> round(curve[2], 4)  # same trace, same capacity, from one stack-distance pass
0.6667
"""

from .base import CacheModel, CacheStats, simulate_trace
from .belady import BeladyCache, simulate_opt
from .fifo import FIFOCache
from .footprint import (
    data_movement_distance,
    footprint,
    footprint_curve,
    miss_ratio_from_footprint,
)
from .hierarchy import CacheHierarchy, HierarchyLevelResult
from .lru import LRUCache
from .mrc import MissRatioCurve, average_curves, mrc_from_trace
from .random_policy import RandomCache
from .set_associative import SetAssociativeCache
from .stack_distance import (
    COLD,
    StackDistanceStream,
    hit_counts,
    reuse_intervals,
    stack_distance_histogram,
    stack_distances_vectorized,
    stack_distances_with_previous,
)

__all__ = [
    "CacheModel",
    "CacheStats",
    "simulate_trace",
    "BeladyCache",
    "simulate_opt",
    "FIFOCache",
    "data_movement_distance",
    "footprint",
    "footprint_curve",
    "miss_ratio_from_footprint",
    "CacheHierarchy",
    "HierarchyLevelResult",
    "LRUCache",
    "MissRatioCurve",
    "average_curves",
    "mrc_from_trace",
    "RandomCache",
    "SetAssociativeCache",
    "COLD",
    "StackDistanceStream",
    "hit_counts",
    "reuse_intervals",
    "stack_distance_histogram",
    "stack_distances_vectorized",
    "stack_distances_with_previous",
]
