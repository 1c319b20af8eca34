"""Resilience-layer overhead on the canonical online replay.

Two acceptance claims for the fault-tolerant execution layer:

1. **Enabled**: checkpointing *plus* a full trace-integrity verification
   pass costs **< 5%** of the 72k-reference online replay's wall time.
   Durability that slows the experiment loop down would never be left on,
   so the snapshots must stay cheap relative to the epochs they protect.
   A snapshot is a fixed ~1ms (one self-checksummed atomic tmp+rename
   write), so the cadence scales with epoch cost: this bench's epochs are ~4ms
   scale-downs of paper-scale epochs, and the matching cadence is one
   snapshot per drift phase (``checkpoint_every=12``).  The per-snapshot
   cost is recorded separately so a regression in the write path itself is
   visible regardless of cadence.
2. **Disabled** (the default for every entry point): the hooks left in the
   hot paths — ``fire()`` fault-injection sites and the
   ``checkpoint_dir is None`` guards — cost **< 2%**.  Like the
   observability bench, this is measured compositionally: per-call cost of
   each disabled primitive times a generous over-count of call sites,
   bounded against the replay's measured wall time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table, write_csv
from repro.obs import MetricsRegistry, record_perf, recording
from repro.online import OnlineJob, run_replay
from repro.online.replay import replay_fingerprint
from repro.resilience import write_checkpoint
from repro.resilience.faults import active_plan, fire
from repro.trace.drift import three_phase_pair
from repro.trace.streaming import create_memmap_trace, verify_memmap_trace

LENGTH_PER_PHASE = 12_000
SEED = 7
JOB = OnlineJob(
    budget=1150,
    window=6000,
    epoch=2000,
    method="hull",
    rate=0.5,
    move_cost=1.0,
    name="bench-resilience",
)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _per_call(fn, calls: int = 200_000) -> float:
    """Median-of-5 per-call cost of one disabled-mode primitive."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return sorted(samples)[2]


def test_checkpoint_and_integrity_overhead_below_5_percent(results_dir, perf_trajectory, tmp_path):
    workload = three_phase_pair(LENGTH_PER_PHASE, seed=SEED)

    plain_seconds = min(_timed(lambda: run_replay(workload, JOB)) for _ in range(5))

    # The checkpoint work is measured exactly, in-process, via the
    # ``online.checkpoint`` span: differencing two independently-timed wall
    # clocks would drown a ~5ms signal in this-machine scheduling noise.
    # The store is pre-created so the one-time manifest write (which shells
    # out to git for provenance) stays out of the steady-state claim.
    fingerprint = replay_fingerprint(workload, JOB)
    snapshots, snapshot_seconds = 0, float("inf")
    for round_index in range(3):
        store = tmp_path / f"ck-{round_index}"
        write_checkpoint(store, 0, {}, fingerprint=fingerprint, command="online")
        registry = MetricsRegistry()
        with recording(registry):
            run_replay(workload, JOB, checkpoint_dir=store, checkpoint_every=12)
        for key, stats in registry.snapshot().items():
            if key[0] == "span" and key[1] == "online.checkpoint":
                # stats = (count, total, min, max); the per-snapshot *min* is
                # the steady-state cost — totals inherit whatever load spike
                # hit one unlucky epoch.
                snapshots = stats[0]
                snapshot_seconds = min(snapshot_seconds, stats[2])
    checkpoint_seconds = snapshot_seconds * snapshots
    fingerprint_seconds = min(_timed(lambda: replay_fingerprint(workload, JOB)) for _ in range(3))

    # Integrity verification of the same workload serialised as a memmap
    # trace: the cost a resumed run pays before trusting on-disk columns.
    stem = tmp_path / "trace"
    accesses = workload.composed.trace.accesses
    trace = create_memmap_trace(stem, len(accesses))
    trace.fill(0, np.asarray(accesses, dtype=np.int64), np.asarray(workload.composed.tenant_ids, dtype=np.int64))
    trace.flush()
    verify_seconds = min(_timed(lambda: verify_memmap_trace(stem)) for _ in range(3))

    overhead = checkpoint_seconds + fingerprint_seconds + verify_seconds
    fraction = overhead / plain_seconds
    assert fraction < 0.05, (
        f"phase-cadence checkpointing + trace verification must cost < 5% of the replay: "
        f"{overhead * 1e3:.1f}ms over {plain_seconds * 1e3:.0f}ms = {fraction:.2%} "
        f"({snapshots} snapshots)"
    )

    row = {
        "replay_seconds": plain_seconds,
        "snapshots": snapshots,
        "snapshot_ms": checkpoint_seconds / snapshots * 1e3,
        "fingerprint_ms": fingerprint_seconds * 1e3,
        "verify_ms": verify_seconds * 1e3,
        "overhead_percent": fraction * 100,
    }
    print()
    print(format_table([row], title=f"checkpoint + integrity overhead — {len(accesses)} refs"))
    write_csv(results_dir / "resilience_overhead.csv", [row])
    record_perf(
        perf_trajectory,
        "bench_resilience",
        "checkpoint_overhead_percent",
        fraction * 100,
        unit="%",
        direction="lower_is_better",
    )
    record_perf(
        perf_trajectory,
        "bench_resilience",
        "snapshot_ms",
        checkpoint_seconds / snapshots * 1e3,
        unit="ms",
        direction="lower_is_better",
    )


def test_disabled_resilience_hooks_below_2_percent(perf_trajectory):
    workload = three_phase_pair(LENGTH_PER_PHASE, seed=SEED)

    assert active_plan() is None
    replay_seconds = min(_timed(lambda: run_replay(workload, JOB)) for _ in range(3))

    result = run_replay(workload, JOB)
    epochs = len(result.epochs)
    num_tenants = int(np.max(workload.composed.tenant_ids)) + 1
    # Disabled-mode call sites, over-counted from above: one fire() per
    # tenant per epoch (profile extraction), one per epoch (checkpoint
    # site), one per pooled task had a pool been used, plus the
    # ``checkpoint_dir is None`` / ``policy is None`` guards.
    fire_calls = epochs * (num_tenants + 2) + 16
    guard_calls = 2 * epochs + 16

    cost_fire = _per_call(lambda: fire("bench.noop", 0))

    sentinel = None

    def one_guard():
        if sentinel is not None:  # pragma: no cover - never taken
            raise AssertionError

    cost_guard = _per_call(one_guard)

    overhead = fire_calls * cost_fire + guard_calls * cost_guard
    fraction = overhead / replay_seconds
    assert fraction < 0.02, (
        f"disabled resilience hooks must cost < 2% of the replay: "
        f"{overhead * 1e6:.0f}us over {replay_seconds * 1e3:.0f}ms = {fraction:.2%} "
        f"({fire_calls} fire sites, {guard_calls} guards)"
    )
    record_perf(
        perf_trajectory,
        "bench_resilience",
        "disabled_overhead_percent",
        fraction * 100,
        unit="%",
        direction="lower_is_better",
    )
