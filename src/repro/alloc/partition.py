"""Cache-partitioning jobs: profile tenants, allocate a shared budget, validate.

:func:`run_partition` is the top of the multi-tenant stack.  Given a
:class:`PartitionJob` — tenant reference streams, a shared cache budget and an
allocation method — it

1. **composes** the tenants into one interleaved shared-cache trace
   (:func:`repro.trace.tenancy.compose_tenants`, seeded and deterministic),
2. **profiles** each tenant's miss-ratio curve, fanning one
   :class:`~repro.profiling.engine.ProfileJob` per tenant across the shared
   process pool (``workers`` never changes any result — profiling jobs are
   deterministic and collected in tenant order),
3. **allocates** the budget with the chosen method (``greedy`` | ``dp`` |
   ``hull``, see :mod:`repro.alloc.allocators`), and
4. **validates** by simulating the shared cache both *partitioned* (each
   tenant's stream through its own isolated LRU partition — item namespaces
   are disjoint, so this is exact) and *unpartitioned* (the interleaved trace
   through one shared LRU cache of the full budget, one single-capacity LRU
   pass), plus the naive proportional-split baseline.  One stack-distance
   pass per tenant (:func:`simulate_baselines`) yields the tenant's
   footprint (its cold accesses) and its exact hits at every capacity up to
   the budget, so both the proportional split and every method's allocation
   are validated by lookup.

The returned :class:`PartitionResult` reports predicted vs. simulated miss
ratios (the prediction error is the profiling error — with ``mode="exact"``
it is zero by construction) and the partitioning win over the unpartitioned
shared cache and over the proportional split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..cache.stack_distance import stack_distance_histogram
from ..engine.job import ALLOC_METHODS, PROFILE_MODES, check_choice, check_positive, check_unit, knob
from ..engine.runner import check_workers
from ..obs import get_registry, span
from ..profiling.engine import ProfileJob, run_jobs
from ..profiling.reuse import ReuseTimeHistogram
from ..profiling.shards import HASH_SPACE, rate_threshold
from ..sim.kernels import lru_sweep_hits
from ..trace.tenancy import MultiTenantTrace, TenantSpec, compose_tenants
from .allocators import _ALLOCATORS, proportional_split
from .curves import discretize_curve

__all__ = [
    "METHODS",
    "PartitionJob",
    "TenantAllocation",
    "PartitionResult",
    "PartitionBaselines",
    "run_partition",
    "partition_composed",
    "profile_tenants",
    "simulate_baselines",
]

#: Allocation methods the partition engine understands (the engine-wide set).
METHODS = ALLOC_METHODS


@dataclass(frozen=True)
class PartitionJob:
    """Specification of one partitioning task (picklable, pool-dispatchable).

    Parameters
    ----------
    tenants:
        The co-running workloads (:class:`~repro.trace.tenancy.TenantSpec`).
    budget:
        Shared cache capacity (in blocks) to divide among the tenants.
    method:
        Allocation strategy: ``greedy`` (marginal gain), ``dp`` (exact
        dynamic program) or ``hull`` (Talus-style convex hull).
    mode, rate, smax, profile_seed:
        Per-tenant MRC profiling knobs, forwarded to
        :class:`~repro.profiling.engine.ProfileJob` (``exact`` replays the
        exact stack-distance pipeline; ``shards``/``reuse`` trade a small,
        measured amount of accuracy for far less profiling work).
    unit:
        Allocation granularity in blocks; allocators hand out whole units.
    seed:
        Seed of the tenant interleaving (see
        :func:`~repro.trace.tenancy.compose_tenants`).
    """

    tenants: tuple[TenantSpec, ...]
    budget: int
    method: str = knob(
        "hull", "allocator: marginal-gain greedy, exact DP, or Talus-style convex hull", choices=ALLOC_METHODS
    )
    mode: str = knob("exact", "per-tenant MRC profiling mode (see the profile subcommand)", choices=PROFILE_MODES)
    rate: float = knob(0.01, "SHARDS sampling rate R (mode shards)")
    smax: int | None = knob(None, "fixed-size SHARDS: max distinct sampled items")
    profile_seed: int = knob(0, "base hash seed for SHARDS sampling")
    unit: int = knob(1, "allocation granularity in blocks")
    seed: int = knob(0, "seed of the tenant interleaving")
    name: str = "partition"

    def __post_init__(self):
        tenants = tuple(self.tenants)
        if not tenants:
            raise ValueError("need at least one tenant to partition")
        check_choice("method", self.method, METHODS)
        check_positive("budget", self.budget)
        check_unit(self.unit, self.budget)
        object.__setattr__(self, "tenants", tenants)
        object.__setattr__(self, "budget", int(self.budget))
        object.__setattr__(self, "unit", int(self.unit))


@dataclass(frozen=True)
class TenantAllocation:
    """One tenant's share of the partitioned cache and its measured behaviour."""

    name: str
    rate: float
    accesses: int
    footprint: int
    capacity: int
    predicted_miss_ratio: float
    simulated_miss_ratio: float

    @property
    def share(self) -> float:
        """Allocated capacity as a fraction of the tenant's footprint."""
        return self.capacity / self.footprint


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one :class:`PartitionJob`.

    Aggregate miss ratios are access-weighted over the composed trace:
    ``predicted`` comes from the (possibly approximate) per-tenant profiles at
    the chosen allocation, ``simulated`` from exact per-partition simulation,
    ``unpartitioned`` from the shared LRU cache of the whole budget on the
    interleaved trace, and ``proportional`` from simulating the naive
    footprint-proportional split.
    """

    name: str
    method: str
    mode: str
    budget: int
    unit: int
    accesses: int
    tenants: tuple[TenantAllocation, ...]
    predicted_miss_ratio: float
    simulated_miss_ratio: float
    unpartitioned_miss_ratio: float
    proportional_miss_ratio: float
    profile_seconds: float

    @property
    def prediction_error(self) -> float:
        """Absolute predicted-vs-simulated gap of the partitioned miss ratio."""
        return abs(self.predicted_miss_ratio - self.simulated_miss_ratio)

    @property
    def win_vs_unpartitioned(self) -> float:
        """Miss-ratio reduction vs. the unpartitioned shared cache (positive = win)."""
        return self.unpartitioned_miss_ratio - self.simulated_miss_ratio

    @property
    def win_vs_proportional(self) -> float:
        """Miss-ratio reduction vs. the proportional split (positive = win)."""
        return self.proportional_miss_ratio - self.simulated_miss_ratio

    def allocation(self) -> dict[str, int]:
        """Tenant name to allocated capacity (blocks)."""
        return {tenant.name: tenant.capacity for tenant in self.tenants}

    def rows(self) -> list[dict]:
        """Flat per-tenant rows for tables and CSV export."""
        return [
            {
                "job": self.name,
                "method": self.method,
                "mode": self.mode,
                "budget": self.budget,
                "tenant": tenant.name,
                "rate": tenant.rate,
                "accesses": tenant.accesses,
                "footprint": tenant.footprint,
                "capacity": tenant.capacity,
                "predicted_miss_ratio": tenant.predicted_miss_ratio,
                "simulated_miss_ratio": tenant.simulated_miss_ratio,
            }
            for tenant in self.tenants
        ]

    def summary(self) -> dict:
        """One aggregate row (the partitioning scoreboard)."""
        return {
            "job": self.name,
            "method": self.method,
            "mode": self.mode,
            "budget": self.budget,
            "accesses": self.accesses,
            "predicted": self.predicted_miss_ratio,
            "simulated": self.simulated_miss_ratio,
            "error": self.prediction_error,
            "unpartitioned": self.unpartitioned_miss_ratio,
            "proportional": self.proportional_miss_ratio,
            "win_vs_unpartitioned": self.win_vs_unpartitioned,
            "win_vs_proportional": self.win_vs_proportional,
        }


def _simulated_miss_ratio(trace: np.ndarray, capacity: int) -> float:
    """Exact LRU miss ratio of one stream at one capacity (single-capacity sweep)."""
    if capacity < 1:
        return 1.0
    hits = lru_sweep_hits(trace, np.asarray([capacity], dtype=np.int64))
    return 1.0 - float(hits[0]) / trace.size


def _tenant_miss_ratio(cumulative: np.ndarray, accesses: int, capacity: int) -> float:
    """A tenant's exact LRU miss ratio at ``capacity``, read off its cumulative hits."""
    hits = cumulative[min(capacity, cumulative.size - 1)]
    return 1.0 - float(hits) / accesses


@dataclass(frozen=True)
class PartitionBaselines:
    """Method-independent validator inputs of one (composed trace, budget) pair.

    Everything here depends only on the composed trace and the budget — not
    on the allocation method — so method comparisons compute it once via
    :func:`simulate_baselines` and pass it to every
    :func:`partition_composed` call.  ``hits[t][c]`` is tenant ``t``'s exact
    LRU hit count in an isolated partition of ``c`` blocks, for ``c`` from 0
    up to ``min(budget, footprints[t])``; the count is flat beyond.
    """

    budget: int
    footprints: tuple[int, ...]
    accesses: tuple[int, ...]
    unpartitioned_miss_ratio: float
    proportional_allocation: tuple[int, ...]
    proportional_miss_ratio: float
    hits: tuple[np.ndarray, ...] = field(compare=False, repr=False)


def simulate_baselines(composed: MultiTenantTrace, budget: int) -> PartitionBaselines:
    """Simulate every tenant's partition, the unpartitioned shared cache and the proportional split.

    One stack-distance pass per tenant gives its footprint (every distinct
    item has exactly one cold access) and its cumulative hits, cut off at
    ``min(budget, footprint)`` so memory follows the trace, not the budget.
    """
    budget = int(budget)
    footprints, hits = [], []
    for stream in composed.streams:
        hist, cold = stack_distance_histogram(stream)
        footprints.append(cold)
        hits.append(np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(hist[: min(budget, cold)])]))
    accesses = [int(stream.size) for stream in composed.streams]
    proportional = proportional_split(footprints, budget)
    total = len(composed.trace)
    proportional_misses = sum(
        _tenant_miss_ratio(cumulative, size, int(capacity)) * size
        for cumulative, size, capacity in zip(hits, accesses, proportional)
    )
    return PartitionBaselines(
        budget=budget,
        footprints=tuple(footprints),
        accesses=tuple(accesses),
        unpartitioned_miss_ratio=_simulated_miss_ratio(composed.trace.accesses, budget),
        proportional_allocation=tuple(int(c) for c in proportional),
        proportional_miss_ratio=proportional_misses / total,
        hits=tuple(hits),
    )


def run_partition(job: PartitionJob, *, workers: int = 1) -> PartitionResult:
    """Execute one partitioning job end to end.

    ``workers`` fans the per-tenant profiling jobs across forked processes;
    the result is bit-identical for every worker count (asserted in
    ``tests/alloc/test_partition.py``).
    """
    workers = check_workers(workers)
    composed = compose_tenants(job.tenants, seed=job.seed, name=job.name)
    return partition_composed(job, composed, workers=workers)


def profile_tenants(job: PartitionJob, composed: MultiTenantTrace, *, workers: int = 1) -> list:
    """Per-tenant miss-ratio profiles of a composed trace, fanned over the pool.

    Profiling depends only on the job's ``mode``/``rate``/``smax``/
    ``profile_seed`` knobs — not on the allocation method — so callers
    comparing methods (the ``partition`` experiment) profile once and pass
    the result to :func:`partition_composed` for each method.  A curve stops
    short of a larger budget where it is provably flat (see
    :func:`_profile_length`), so the allocators see the same curve without a
    budget-sized tail.
    """
    profile_jobs = [
        ProfileJob(
            trace=stream,
            name=name,
            mode=job.mode,
            rate=job.rate,
            smax=job.smax,
            seed=job.profile_seed,
        )
        for stream, name in zip(composed.streams, composed.names)
    ]
    profile_jobs = [replace(profile, max_cache_size=_profile_length(profile, job.budget)) for profile in profile_jobs]
    return run_jobs(profile_jobs, workers=check_workers(workers))


def _profile_length(profile: ProfileJob, budget: int) -> int:
    """The budget, or a smaller length past which ``profile``'s curve is provably flat.

    For a stream of ``n`` references:

    * ``exact``: flat past the footprint, which is at most ``n``;
    * ``shards`` at a fixed rate: a sampled distance ``d <= n`` lands at
      ``ceil(d / R)``, the float expression of
      :func:`~repro.profiling.shards.scaled_distance_histogram`, so nothing
      lands past ``ceil(n / R)``;
    * ``reuse``: every size past the AET integral reads the cold floor, and
      the integral never exceeds the upper edge of the bucket of the longest
      possible reuse time, ``n - 1``.

    Fixed-size SHARDS (``smax``) picks its rate per seed from the data, so its
    curves keep the budget's length.
    """
    size = int(profile.trace.size)
    if profile.mode == "exact":
        flat = size
    elif profile.mode == "shards" and profile.smax is None:
        flat = int(np.ceil(np.float64(size) / (rate_threshold(profile.rate) / HASH_SPACE)))
    elif profile.mode == "reuse":
        buckets = ReuseTimeHistogram()
        flat = buckets.bucket_upper_edge(buckets.bucket_index(max(size - 1, 1))) + 1
    else:
        return budget
    return min(budget, flat)


def partition_composed(
    job: PartitionJob,
    composed: MultiTenantTrace,
    *,
    workers: int = 1,
    profiles: list | None = None,
    baselines: PartitionBaselines | None = None,
) -> PartitionResult:
    """Run the profile → allocate → validate pipeline on an already-composed trace.

    Split out of :func:`run_partition` so callers that build the composed
    trace themselves (benchmarks, the ``partition`` experiment) do not pay
    for — or depend on — re-composition.  ``profiles`` and ``baselines``
    optionally supply precomputed :func:`profile_tenants` /
    :func:`simulate_baselines` results, both method-independent, so method
    comparisons reuse them (``profile_seconds`` is reported as 0 when
    profiles are supplied).
    """
    workers = check_workers(workers)
    if profiles is None:
        with span("partition.profile", mode=job.mode) as timer:
            profiles = profile_tenants(job, composed, workers=workers)
        profile_seconds = timer.seconds
    else:
        if len(profiles) != composed.num_tenants:
            raise ValueError(f"got {len(profiles)} profiles for {composed.num_tenants} tenants")
        profile_seconds = 0.0
    if baselines is None:
        baselines = simulate_baselines(composed, job.budget)
    elif baselines.budget != job.budget:
        raise ValueError(f"baselines were simulated for budget {baselines.budget}, job has {job.budget}")
    else:
        accesses = tuple(np.bincount(composed.tenant_ids, minlength=composed.num_tenants).tolist())
        if baselines.accesses != accesses:
            raise ValueError(
                f"baselines were simulated for tenant access counts {list(baselines.accesses)}, "
                f"the composed trace has {list(accesses)}"
            )

    budget_units = job.budget // job.unit
    with span("partition.allocate", method=job.method):
        curves = [discretize_curve(profile.curve, job.budget, unit=job.unit) for profile in profiles]
        units = _ALLOCATORS[job.method](curves, budget_units)
        capacities = [int(u) * job.unit for u in units]
    get_registry().counter("partition.tenants", method=job.method).add(composed.num_tenants)

    total = len(composed.trace)
    tenants: list[TenantAllocation] = []
    predicted_misses = 0.0
    simulated_misses = 0.0
    for t, (accesses, curve, capacity) in enumerate(zip(baselines.accesses, curves, capacities)):
        predicted = curve.miss_ratio_at(capacity // job.unit)
        simulated = _tenant_miss_ratio(baselines.hits[t], accesses, capacity)
        predicted_misses += predicted * accesses
        simulated_misses += simulated * accesses
        tenants.append(
            TenantAllocation(
                name=composed.names[t],
                rate=composed.rates[t],
                accesses=accesses,
                footprint=baselines.footprints[t],
                capacity=capacity,
                predicted_miss_ratio=predicted,
                simulated_miss_ratio=simulated,
            )
        )

    return PartitionResult(
        name=job.name,
        method=job.method,
        mode=job.mode,
        budget=job.budget,
        unit=job.unit,
        accesses=total,
        tenants=tuple(tenants),
        predicted_miss_ratio=predicted_misses / total,
        simulated_miss_ratio=simulated_misses / total,
        unpartitioned_miss_ratio=baselines.unpartitioned_miss_ratio,
        proportional_miss_ratio=baselines.proportional_miss_ratio,
        profile_seconds=profile_seconds,
    )
