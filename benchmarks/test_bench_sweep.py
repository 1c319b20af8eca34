"""Policy-sweep engine vs. naive per-capacity replay — the multi-scenario axis.

The sweep engine's acceptance claim: deriving the *entire* LRU capacity grid
from one vectorised stack-distance pass beats replaying the trace through a
fresh ``LRUCache`` per capacity by at least 10x at 64 capacities on a
10^5-reference Zipfian trace, while staying bit-identical.  The lane-vectorised
FIFO kernel is recorded alongside (single pass over the trace for all
capacities vs. one pure-Python replay each).  The recorded CSV backs the
acceptance bar; cross-validation against the cache models at every grid point
lives in ``tests/sim/``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table, write_csv
from repro.obs import record_perf
from repro.sim import compact_trace, fifo_sweep_hits, lru_sweep_hits
from repro.trace import zipfian_trace

# The naive per-capacity replay oracle lives with the test suite (``tests/oracles.py``).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import naive_sweep_hits  # noqa: E402

TRACE_LENGTH = 100_000
FOOTPRINT = 8192
EXPONENT = 0.8
SEED = 7
NUM_CAPACITIES = 64


def test_lru_single_pass_sweep_speedup(benchmark, results_dir, perf_trajectory):
    trace = zipfian_trace(TRACE_LENGTH, FOOTPRINT, exponent=EXPONENT, rng=SEED).accesses
    capacities = np.arange(1, NUM_CAPACITIES + 1) * (FOOTPRINT // NUM_CAPACITIES)
    assert capacities.size == NUM_CAPACITIES

    start = time.perf_counter()
    sweep = lru_sweep_hits(trace, capacities)
    sweep_seconds = time.perf_counter() - start

    start = time.perf_counter()
    naive = naive_sweep_hits(trace, capacities, policy="lru")
    naive_seconds = time.perf_counter() - start

    assert np.array_equal(sweep, naive), "single-pass sweep must be bit-identical to replay"
    speedup = naive_seconds / max(sweep_seconds, 1e-9)
    assert speedup >= 10.0, (
        f"single-pass LRU sweep must beat naive replay by >= 10x at "
        f"{NUM_CAPACITIES} capacities, got {speedup:.1f}x"
    )

    rows = [
        {
            "method": "single_pass_sweep",
            "policy": "lru",
            "capacities": NUM_CAPACITIES,
            "accesses": TRACE_LENGTH,
            "seconds": sweep_seconds,
            "speedup": speedup,
            "identical": True,
        },
        {
            "method": "naive_replay",
            "policy": "lru",
            "capacities": NUM_CAPACITIES,
            "accesses": TRACE_LENGTH,
            "seconds": naive_seconds,
            "speedup": 1.0,
            "identical": True,
        },
    ]

    dense, distinct = compact_trace(trace)
    start = time.perf_counter()
    fifo_kernel = fifo_sweep_hits(dense, capacities, distinct=distinct)
    fifo_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fifo_naive = naive_sweep_hits(dense, capacities, policy="fifo")
    fifo_naive_seconds = time.perf_counter() - start
    assert np.array_equal(fifo_kernel, fifo_naive)
    rows.append(
        {
            "method": "lane_vectorised_kernel",
            "policy": "fifo",
            "capacities": NUM_CAPACITIES,
            "accesses": TRACE_LENGTH,
            "seconds": fifo_seconds,
            "speedup": fifo_naive_seconds / max(fifo_seconds, 1e-9),
            "identical": True,
        }
    )
    rows.append(
        {
            "method": "naive_replay",
            "policy": "fifo",
            "capacities": NUM_CAPACITIES,
            "accesses": TRACE_LENGTH,
            "seconds": fifo_naive_seconds,
            "speedup": 1.0,
            "identical": True,
        }
    )

    print()
    print(
        format_table(
            rows,
            title=(
                f"Policy sweep vs. naive replay — zipf(s={EXPONENT}), "
                f"{TRACE_LENGTH} refs, {NUM_CAPACITIES} capacities"
            ),
        )
    )
    write_csv(results_dir / "sweep_speedup.csv", rows)
    record_perf(perf_trajectory, "bench_sweep", "speedup", speedup, unit="x", policy="lru")

    benchmark(lru_sweep_hits, trace, capacities)
