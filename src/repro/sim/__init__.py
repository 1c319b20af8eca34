"""Policy-sweep simulation engine: many cache configurations per trace pass.

Comparing replacement policies or sizing a cache means asking "what is the
miss ratio of {LRU, FIFO, random, set-associative} × {capacity grid}" — and
answering it by replaying the trace once per :class:`~repro.cache.base.CacheModel`
instance costs ``policies × capacities`` full pure-Python passes.  This
subsystem collapses that matrix:

:mod:`repro.sim.kernels`
    Single-pass multi-capacity kernels: the LRU grid from one stack-distance
    histogram (exact, via stack inclusion), lane-vectorised FIFO and seeded
    random replacement, and set-partitioned stack-distance passes for
    set-associative LRU.
:mod:`repro.sim.sweep`
    The :class:`~repro.sim.sweep.SweepJob` / :class:`~repro.sim.sweep.SweepResult`
    API and :func:`~repro.sim.sweep.run_sweep`, which fans kernel tasks across
    the engine's shared process pool (:mod:`repro.engine.runner`).  Results are
    bit-identical for every ``workers`` value, including the seeded random
    policy.
:mod:`repro.sim.partitioned`
    The batch partitioned-LRU data plane of the online replay engine: whole
    segments per kernel call (hit iff stack distance ≤ current occupancy),
    per-tenant streaming distances shared by every capacity schedule, and a
    bounded-memory :func:`~repro.sim.partitioned.replay_partitioned` for
    ``numpy.memmap``-backed traces.  Bit-identical to the per-event
    ``OrderedDict`` reference simulator.

The CLI exposes the engine as ``python -m repro sweep``; the
``policy-sweep`` experiment and ``benchmarks/test_bench_sweep.py`` build on it.

Examples
--------
>>> from repro.sim import SweepJob, run_sweep
>>> from repro.trace import zipfian_trace
>>> trace = zipfian_trace(5000, 256, exponent=0.9, rng=5).accesses
>>> job = SweepJob(trace=trace, policies=("lru", "fifo"), capacities=(16, 64, 256))
>>> result = run_sweep(job)
>>> result["lru"].miss_ratio_at(64) <= result["lru"].miss_ratio_at(16)
True
"""

from .kernels import (
    check_capacities,
    compact_trace,
    fifo_sweep_hits,
    lru_sweep_hits,
    random_sweep_hits,
    set_associative_sweep_hits,
)
from ..engine.columnar import PrecomputedTenantDistances, TenantDistanceStreams
from .partitioned import BatchPartitionedLRU, partitioned_lru_segment, replay_partitioned
from .sweep import POLICIES, PolicySweep, SweepJob, SweepResult, run_sweep

__all__ = [
    "check_capacities",
    "compact_trace",
    "fifo_sweep_hits",
    "lru_sweep_hits",
    "random_sweep_hits",
    "set_associative_sweep_hits",
    "BatchPartitionedLRU",
    "PrecomputedTenantDistances",
    "TenantDistanceStreams",
    "partitioned_lru_segment",
    "replay_partitioned",
    "POLICIES",
    "PolicySweep",
    "SweepJob",
    "SweepResult",
    "run_sweep",
]
