"""Regenerate the cross-engine golden fixtures (``tests/fixtures/golden/``).

The fixtures pin the *observable outputs* of the four experiment paths —
profile curves, sweep rows, partition rows/summary/allocation, online replay
rows/summary — so refactors of the execution substrate can be held to
bit-identical results.  They were first recorded from the pre-engine code
(before ``src/repro/engine/`` existed); ``tests/engine/test_golden.py``
asserts the engine-backed paths still reproduce them exactly, across worker
counts and, for the online replay, against the per-event oracle of
``tests/oracles.py``.

Run from the repository root to regenerate after a *reviewed* behaviour
change::

    PYTHONPATH=src python tests/fixtures/generate_golden.py

Regenerating is an explicit act: a diff in these files means results moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: One shared synthetic trace seed set, small enough for the test suite.
PROFILE_TRACE = dict(length=4000, items=256, exponent=0.9, rng=3)
SWEEP_CAPACITIES = (4, 16, 33, 64, 128)
PARTITION_BUDGET = 300
ONLINE = dict(length=1500, seed=7, budget=320, window=1500, epoch=500, rate=0.5)


def _jsonable(value):
    """Convert numpy scalars/arrays (and containers of them) to plain JSON types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _dump(name: str, payload: dict) -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(_jsonable(payload), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def sweep_trace() -> np.ndarray:
    from repro.trace.generators import zipfian_trace

    return zipfian_trace(
        PROFILE_TRACE["length"],
        PROFILE_TRACE["items"],
        exponent=PROFILE_TRACE["exponent"],
        rng=PROFILE_TRACE["rng"],
    ).accesses


def partition_tenants():
    from repro.trace.generators import zipfian_trace
    from repro.trace.tenancy import TenantSpec
    from repro.trace.trace import PeriodicTrace
    from repro.trace.workloads import stream_copy

    return (
        TenantSpec(zipfian_trace(3000, 400, exponent=0.9, rng=5), name="zipf"),
        TenantSpec(PeriodicTrace.sawtooth(200).to_trace(), name="saw"),
        TenantSpec(stream_copy(150, repetitions=3), name="stream"),
    )


def golden_profile() -> dict:
    from repro.profiling.engine import ProfileJob, run_jobs

    trace = sweep_trace()
    curves = {}
    for mode, extra in (("exact", {}), ("shards", {"rate": 0.1}), ("reuse", {})):
        job = ProfileJob(trace=trace, name="golden", mode=mode, seed=0, **extra)
        result = run_jobs([job], workers=1)[0]
        curves[mode] = {
            "accesses": result.accesses,
            "ratios": result.curve.ratios.tolist(),
        }
    return {"trace": PROFILE_TRACE, "curves": curves}


def golden_sweep() -> dict:
    from repro.sim.sweep import SweepJob, run_sweep

    job = SweepJob(
        trace=sweep_trace(),
        name="golden",
        policies=("lru", "fifo", "random", "set-associative"),
        capacities=SWEEP_CAPACITIES,
        ways=4,
        seed=0,
    )
    result = run_sweep(job, workers=1)
    rows = [{k: v for k, v in row.items()} for row in result.rows()]
    return {"capacities": SWEEP_CAPACITIES, "rows": rows}


def golden_partition() -> dict:
    from repro.alloc.partition import PartitionJob, run_partition

    out = {}
    for method in ("greedy", "dp", "hull"):
        job = PartitionJob(
            tenants=partition_tenants(),
            budget=PARTITION_BUDGET,
            method=method,
            mode="exact",
            unit=4,
            seed=0,
            name="golden",
        )
        result = run_partition(job, workers=1)
        out[method] = {
            "rows": result.rows(),
            "summary": result.summary(),
            "allocation": result.allocation(),
        }
    return {"budget": PARTITION_BUDGET, "methods": out}


def golden_online() -> dict:
    from repro.online.replay import OnlineJob, run_replay
    from repro.trace.drift import three_phase_pair

    workload = three_phase_pair(ONLINE["length"], seed=ONLINE["seed"])
    job = OnlineJob(
        budget=ONLINE["budget"],
        window=ONLINE["window"],
        epoch=ONLINE["epoch"],
        rate=ONLINE["rate"],
        name="golden",
    )
    result = run_replay(workload, job)
    return {
        "job": ONLINE,
        "rows": result.rows(),
        "summary": result.summary(),
        "static_allocation": list(result.static_allocation),
        "final_allocation": list(result.final_allocation),
        "oracle_allocations": [list(a) for a in result.oracle_allocations],
    }


def main() -> None:
    _dump("profile", golden_profile())
    _dump("sweep", golden_sweep())
    _dump("partition", golden_partition())
    _dump("online", golden_online())


if __name__ == "__main__":
    main()
