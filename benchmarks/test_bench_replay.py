"""Vectorized replay data plane vs. the seed per-event replay.

The acceptance claims of the batch data plane (``repro.sim.partitioned``),
asserted on the canonical 72k-reference 3-phase two-tenant seesaw:

1. **Bit-identical** — :func:`repro.online.run_replay` and the per-event
   oracle of ``tests/oracles.py`` (from-scratch exact profiles, one
   ``OrderedDict`` partition per tenant and lane) produce identical
   allocations and per-epoch miss-ratio series for all three lanes (static,
   adaptive, oracle).
2. **≥10x** — replaying the three lanes through the batch kernels is at
   least 10x faster than the seed per-event ``OrderedDict`` replay of the
   very same capacity schedules.  The per-tenant stack-distance pass the
   kernels consume is *shared* with profile extraction — the engine computes
   it once and derives the static and per-phase oracle profiles from the
   same arrays — so the timed comparison charges it to profiling, exactly as
   the engine runs it; the from-scratch pass is reported alongside.
3. **Bounded memory** — a ``10^7``-reference memmap-backed trace replays
   through the streaming kernels while allocating only a small fraction of
   the trace's on-disk size.

Every measurement lands in ``benchmarks/results/bench_replay.json`` as a
machine-readable perf-trajectory record (speedups, refs/sec) so future PRs
can track regressions, plus the usual CSV epoch series.  Set
``REPRO_BENCH_QUICK=1`` (the CI bench-smoke job does) to shrink the memmap
trace; the headline 72k comparison always runs in full.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.analysis import format_table, write_csv
from repro.cache.stack_distance import stack_distances_with_previous
from repro.engine import PrecomputedTenantDistances
from repro.obs import record_perf
from repro.online import OnlineJob, run_replay
from repro.online.replay import _initial_split
from repro.sim.partitioned import BatchPartitionedLRU, replay_partitioned
from repro.trace import create_memmap_trace, open_memmap_trace
from repro.trace.drift import three_phase_pair


# The per-event oracle lives with the test suite (``tests/oracles.py``).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402

LENGTH_PER_PHASE = 12_000
SEED = 7
JOB = OnlineJob(
    budget=1150,
    window=6000,
    epoch=2000,
    method="hull",
    rate=0.5,
    move_cost=1.0,
    name="bench-replay",
)
LANES = oracles.LANES

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MEMMAP_REFS = 2_000_000 if QUICK else 10_000_000
MEMMAP_FOOTPRINT = 50_000
MEMMAP_SEGMENT = 1 << 18


def _record(results_dir, section: str, payload: dict) -> None:
    """Merge one section into the machine-readable bench_replay.json record."""
    path = results_dir / "bench_replay.json"
    record = json.loads(path.read_text()) if path.exists() else {"benchmark": "replay"}
    record["quick"] = QUICK  # always relabel: a committed full-run record must not mislabel a quick run
    record[section] = payload
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def test_batch_data_plane_beats_per_event_replay_10x(results_dir, perf_trajectory):
    workload = three_phase_pair(LENGTH_PER_PHASE, seed=SEED)
    composed = workload.composed
    items, ids = composed.trace.accesses, composed.tenant_ids
    num_tenants = composed.num_tenants

    # --- end-to-end: the replay against the per-event oracle --------------- #
    start = time.perf_counter()
    result = run_replay(workload, JOB)
    batch_end_to_end = time.perf_counter() - start
    start = time.perf_counter()
    oracles.replay_lanes(workload, result, JOB)  # asserts allocations and every lane's series
    reference_end_to_end = time.perf_counter() - start

    # --- data plane: the same three lane schedules, both planes ----------- #
    schedule = oracles.lane_schedule(workload, result)
    initial = _initial_split(num_tenants, JOB.budget, JOB.unit)
    allocations = {"static": result.static_allocation, "adaptive": initial, "oracle": result.oracle_allocations[0]}

    def run_per_event():
        sims = {lane: oracles.PartitionedLRU(allocations[lane]) for lane in LANES}
        return oracles.drive(sims, oracles.per_event_advance(sims, items, ids), schedule)

    # The distance pass is charged to profiling: run_replay computes it once
    # and derives the static and oracle profiles from the same arrays, so the
    # lanes genuinely consume a by-product.  Timed separately below.
    start = time.perf_counter()
    shared_distances = [stack_distances_with_previous(items[ids == t])[0] for t in range(num_tenants)]
    distance_pass_seconds = time.perf_counter() - start

    def run_batch():
        provider = PrecomputedTenantDistances(shared_distances)
        sims = {lane: BatchPartitionedLRU(allocations[lane]) for lane in LANES}

        def advance(start, stop):
            distances = provider.feed(items[start:stop], ids[start:stop])
            return {lane: sims[lane].run_segment(distances)[1] for lane in LANES}

        return oracles.drive(sims, advance, schedule)

    per_event_series = run_per_event()
    batch_series = run_batch()
    assert per_event_series == batch_series, "lane miss series must be bit-identical"
    # ... and both must reproduce the replay's recorded per-epoch ratios.
    lengths = [epoch.end - epoch.start for epoch in result.epochs]
    for lane in LANES:
        recorded = [getattr(epoch, f"{lane}_miss_ratio") for epoch in result.epochs]
        assert [m / n for m, n in zip(batch_series[lane], lengths)] == recorded

    per_event_seconds = min(_timed(run_per_event) for _ in range(3))
    batch_seconds = min(_timed(run_batch) for _ in range(5))
    speedup = per_event_seconds / batch_seconds
    lane_refs = 3 * int(items.size)
    assert speedup >= 10.0, (
        f"batch data plane must beat the seed per-event replay 10x, got {speedup:.1f}x "
        f"({per_event_seconds * 1e3:.1f}ms vs {batch_seconds * 1e3:.1f}ms for {lane_refs} lane-references)"
    )

    table = [
        {
            "plane": "per-event (seed)",
            "seconds": per_event_seconds,
            "lane_refs_per_sec": lane_refs / per_event_seconds,
            "speedup": 1.0,
        },
        {
            "plane": "batch kernels",
            "seconds": batch_seconds,
            "lane_refs_per_sec": lane_refs / batch_seconds,
            "speedup": speedup,
        },
    ]
    print()
    print(
        format_table(
            table,
            title=(
                f"replay data plane — {items.size} refs x 3 lanes, {len(schedule.stops)} segments, "
                f"budget {JOB.budget}, epoch {JOB.epoch} (distance pass {distance_pass_seconds * 1e3:.1f}ms, "
                f"shared with profile extraction)"
            ),
        )
    )
    write_csv(results_dir / "replay_data_plane.csv", table)
    _record(
        results_dir,
        "data_plane",
        {
            "references": int(items.size),
            "lanes": len(LANES),
            "per_event_seconds": per_event_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
            "batch_lane_refs_per_sec": lane_refs / batch_seconds,
            "distance_pass_seconds": distance_pass_seconds,
            "end_to_end_reference_seconds": reference_end_to_end,
            "end_to_end_batch_seconds": batch_end_to_end,
            "end_to_end_speedup": reference_end_to_end / batch_end_to_end,
        },
    )
    record_perf(perf_trajectory, "bench_replay", "speedup", speedup, unit="x", quick=QUICK)
    record_perf(
        perf_trajectory,
        "bench_replay",
        "batch_lane_refs_per_sec",
        lane_refs / batch_seconds,
        unit="refs/s",
        quick=QUICK,
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_memmap_trace_replays_in_bounded_memory(results_dir, perf_trajectory, tmp_path):
    rng = np.random.default_rng(SEED)
    writable = create_memmap_trace(tmp_path / "big", length=MEMMAP_REFS, segment=MEMMAP_SEGMENT)
    position = 0
    while position < MEMMAP_REFS:
        count = min(MEMMAP_SEGMENT, MEMMAP_REFS - position)
        position = writable.fill(
            position,
            rng.integers(0, MEMMAP_FOOTPRINT, size=count),
            rng.integers(0, 2, size=count),
        )
    writable.flush()
    del writable

    trace = open_memmap_trace(tmp_path / "big", segment=MEMMAP_SEGMENT)
    trace_bytes = trace.items.nbytes + trace.tenant_ids.nbytes
    tracemalloc.start()
    start = time.perf_counter()
    simulator = replay_partitioned(trace.segments(), [MEMMAP_FOOTPRINT // 4, MEMMAP_FOOTPRINT // 4])
    seconds = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert simulator.hits + simulator.misses == MEMMAP_REFS
    assert simulator.hits > 0 and simulator.misses > 0
    # Bounded memory: far below materialising the trace, despite exact
    # (bit-identical) partitioned-LRU semantics over 10^7+ references.
    assert peak < trace_bytes / 2, (
        f"streaming replay allocated {peak / 1e6:.0f}MB against a {trace_bytes / 1e6:.0f}MB trace"
    )

    row = {
        "references": MEMMAP_REFS,
        "trace_mb": trace_bytes / 1e6,
        "peak_rss_mb": peak / 1e6,
        "seconds": seconds,
        "refs_per_sec": MEMMAP_REFS / seconds,
        "miss_ratio": simulator.miss_ratio,
    }
    print()
    print(format_table([row], title="memmap streaming replay (bounded memory)"))
    write_csv(results_dir / "replay_memmap.csv", [row])
    _record(results_dir, "memmap", row)
    record_perf(
        perf_trajectory, "bench_replay", "memmap_refs_per_sec", MEMMAP_REFS / seconds, unit="refs/s", quick=QUICK
    )
