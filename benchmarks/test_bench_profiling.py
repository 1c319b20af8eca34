"""Approximate vs. exact MRC profiling — the accuracy/cost frontier.

The profiling subsystem's pitch is a predictable dial between exactness and
speed.  This benchmark quantifies it on a Zipfian trace: the exact
stack-distance pipeline vs. SHARDS sampling at ``R = 0.1`` and ``R = 0.01``
vs. the one-pass streaming reuse-time (AET) model, recording wall-time
speedups and mean/max absolute curve error.  The recorded series backs the
subsystem's acceptance claim (>= 10x at ``R = 0.01`` with small error); the
strict error bound itself is asserted on a pinned million-reference trace in
``tests/profiling/test_shards.py``.
"""

from __future__ import annotations

from repro.analysis import format_table, run_sampling_ablation, write_csv
from repro.obs import record_perf
from repro.profiling import shards_mrc
from repro.trace import zipfian_trace

TRACE_LENGTH = 300_000
FOOTPRINT = 16_384
EXPONENT = 0.8
SEED = 7


def test_profiling_accuracy_cost_frontier(benchmark, results_dir, perf_trajectory):
    trace = zipfian_trace(TRACE_LENGTH, FOOTPRINT, exponent=EXPONENT, rng=SEED).accesses
    # Best-of-5 timings, taken round-robin: the asserted speedups are ratios
    # of two wall clocks of a few milliseconds each, and a single shot of
    # either side is at the mercy of machine load.
    rows = run_sampling_ablation(TRACE_LENGTH, FOOTPRINT, exponent=EXPONENT, rates=(0.1, 0.01), rng=SEED, repeats=5)

    by_mode_rate = {(r["mode"], r["rate"]): r for r in rows}
    shards_coarse = by_mode_rate[("shards", 0.01)]
    shards_fine = by_mode_rate[("shards", 0.1)]
    streamed = by_mode_rate[("reuse", 1.0)]

    # The acceptance-bar shape: coarse sampling is at least 10x faster than
    # exact with modest error; finer sampling and the AET model are tighter.
    # The hard floors sit well under the typical ratios (the AET model
    # measures ~4.5-5.5x here) — regressions tighter than that are caught by
    # the perf_baseline comparison, not a gate that flakes at the boundary.
    assert shards_coarse["speedup"] >= 10.0
    assert shards_coarse["mae"] <= 0.08
    assert shards_fine["mae"] <= 0.03
    assert streamed["mae"] <= 0.05
    assert streamed["speedup"] >= 3.0

    print()
    print(
        format_table(
            rows,
            title=(f"Approximate MRC profiling on zipf(s={EXPONENT}) " f"({TRACE_LENGTH} refs, {FOOTPRINT} items)"),
        )
    )
    write_csv(results_dir / "profiling_frontier.csv", rows)
    record_perf(perf_trajectory, "bench_profiling", "shards_speedup", shards_coarse["speedup"], unit="x", rate=0.01)
    record_perf(perf_trajectory, "bench_profiling", "streamed_speedup", streamed["speedup"], unit="x")

    # Time the cheap kernel under pytest-benchmark for regression tracking.
    benchmark(shards_mrc, trace, 0.01)

