"""The columnar experiment substrate shared by every experiment path.

Before this layer existed, the sweep (:mod:`repro.sim`), partition
(:mod:`repro.alloc`) and online replay (:mod:`repro.online`) paths each
re-implemented trace iteration, per-tenant profile extraction and worker
fan-out.  The engine is that machinery written once; every experiment is the
same four-stage pipeline over it:

1. **segments** (:mod:`repro.engine.segments`) — boundary arithmetic: epoch
   stops, phase labels, chunk spans.  Workloads are consumed as columnar
   segments (``items`` / ``tenant_ids`` arrays, plain or memmap-backed).
2. **columnar state** (:mod:`repro.engine.columnar`) — one stack-distance
   pass per tenant (:class:`~repro.engine.columnar.TenantDistancePasses`),
   shared by MRC extraction, sweep kernels and replay lanes alike.
3. **lanes** (:mod:`repro.engine.lanes`) — any number of cache
   configurations measured over one shared distance pass per tenant.
4. **runner** (:mod:`repro.engine.runner`) — one worker-pool fan-out with
   one bit-identical single-process reference mode (``workers=1``).

The job/result contract every experiment speaks is pinned in
:mod:`repro.engine.job`; the public entry points live one level up in
:mod:`repro.api`.

Examples
--------
>>> import numpy as np
>>> from repro.engine import TenantDistancePasses, split_by_tenant
>>> items = np.array([1, 9, 1, 9, 2, 1])
>>> ids = np.array([0, 1, 0, 1, 0, 0])
>>> [s.tolist() for s in split_by_tenant(items, ids, 2)]
[[1, 1, 2, 1], [9, 9]]
>>> passes = TenantDistancePasses(items, ids, 2)
>>> passes.whole_stream_curve(0, budget=2, unit=1).miss_ratio_at(2)  # [1,1,2,1]: 2 cold misses in 4
0.5
"""

from .columnar import (
    PrecomputedTenantDistances,
    TenantDistancePasses,
    TenantDistanceStreams,
    check_tenant_ids,
    discretized_from_distances,
    idle_curve,
    split_by_tenant,
    tenant_positions,
)
from .job import (
    ALLOC_METHODS,
    PROFILE_MODES,
    ExperimentJob,
    ExperimentResult,
    check_choice,
    check_fraction,
    check_non_negative,
    check_positive,
    check_unit,
)
from .lanes import LaneSet
from .runner import check_workers, fork_available, fork_pool, pool_map, published_arrays, resolve_array
from .segments import chunk_spans, phase_of_event, phase_of_last_event, replay_stops, strided_spans

__all__ = [
    "ALLOC_METHODS",
    "PROFILE_MODES",
    "ExperimentJob",
    "ExperimentResult",
    "LaneSet",
    "PrecomputedTenantDistances",
    "TenantDistancePasses",
    "TenantDistanceStreams",
    "check_choice",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_tenant_ids",
    "check_unit",
    "check_workers",
    "chunk_spans",
    "discretized_from_distances",
    "fork_available",
    "fork_pool",
    "idle_curve",
    "phase_of_event",
    "phase_of_last_event",
    "pool_map",
    "published_arrays",
    "replay_stops",
    "resolve_array",
    "split_by_tenant",
    "strided_spans",
    "tenant_positions",
]
