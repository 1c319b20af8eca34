"""Policy-sweep simulation engine: many cache configurations per trace pass.

Comparing replacement policies or sizing a cache means asking "what is the
miss ratio of {LRU, FIFO, random, set-associative} × {capacity grid}" — and
answering it by replaying the trace once per :class:`~repro.cache.base.CacheModel`
instance costs ``policies × capacities`` full pure-Python passes.  This
subsystem collapses that matrix:

:mod:`repro.sim.kernels`
    Multi-capacity kernels: the LRU grid from one stack-distance
    histogram (exact, via stack inclusion), native FIFO and seeded
    random replacement, and set-partitioned stack-distance passes for
    set-associative LRU.
:mod:`repro.sim.sweep`
    The :class:`~repro.sim.sweep.SweepJob` / :class:`~repro.sim.sweep.SweepResult`
    API and :func:`~repro.sim.sweep.run_sweep`, which fans kernel tasks across
    the engine's shared process pool (:mod:`repro.engine.runner`).  Results are
    bit-identical for every ``workers`` value, including the seeded random
    policy.
:mod:`repro.sim.partitioned`
    The partitioned-LRU segment kernel of the online replay engine (hit iff
    stack distance ≤ current occupancy), which
    :class:`~repro.engine.lanes.LaneSet` folds over lanes × tenants, and a
    bounded-memory :func:`~repro.sim.partitioned.replay_partitioned` that
    streams ``numpy.memmap``-backed traces through one lane.  Bit-identical
    to the per-event ``OrderedDict`` reference simulator.

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
from .partitioned import partitioned_lru_segment, replay_partitioned
from .sweep import POLICIES, PolicySweep, SweepJob, SweepResult, run_sweep

__all__ = [
    "check_capacities",
    "compact_trace",
    "fifo_sweep_hits",
    "lru_sweep_hits",
    "random_sweep_hits",
    "set_associative_sweep_hits",
    "partitioned_lru_segment",
    "replay_partitioned",
    "POLICIES",
    "PolicySweep",
    "SweepJob",
    "SweepResult",
    "run_sweep",
]
