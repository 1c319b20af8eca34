"""Golden cross-engine equivalence suite.

The fixtures under ``tests/fixtures/golden/`` were recorded from the
pre-engine code (before ``src/repro/engine/`` existed).  These tests hold
the engine-backed experiment paths to *bit-identical* reproductions of
those outputs — across ``workers`` counts and, for the online replay,
across checkpoint cadences and against the per-event oracle of
``tests/oracles.py``.  JSON float round-trips
are exact (``repr`` ↔ parse), so every comparison is ``==``, never
``approx``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _generator():
    spec = importlib.util.spec_from_file_location("generate_golden", FIXTURES / "generate_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator()


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / "golden" / f"{name}.json").read_text(encoding="utf-8"))


class TestGoldenProfile:
    def test_single_process_matches_recorded(self):
        assert GEN._jsonable(GEN.golden_profile()) == _fixture("profile")

    @pytest.mark.parametrize("mode,extra", [("exact", {}), ("shards", {"rate": 0.1}), ("reuse", {})])
    def test_api_profile_matches_recorded(self, mode, extra):
        from repro import api

        result = api.profile(GEN.sweep_trace(), mode=mode, seed=0, name="golden", **extra)
        want = _fixture("profile")["curves"][mode]
        assert result.accesses == want["accesses"]
        assert result.curve.ratios.tolist() == want["ratios"]

    def test_pooled_batch_matches_recorded(self):
        from repro import api
        from repro.profiling.engine import ProfileJob

        trace = GEN.sweep_trace()
        jobs = [ProfileJob(trace=trace, name="golden", mode=mode, seed=0) for mode in ("exact", "reuse")]
        results = api.profile(jobs, workers=2)
        curves = _fixture("profile")["curves"]
        for job, result in zip(jobs, results):
            assert result.curve.ratios.tolist() == curves[job.mode]["ratios"]


class TestGoldenSweep:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_rows_match_recorded(self, workers):
        from repro import api

        result = api.sweep(
            GEN.sweep_trace(),
            name="golden",
            policies=("lru", "fifo", "random", "set-associative"),
            capacities=GEN.SWEEP_CAPACITIES,
            ways=4,
            seed=0,
            workers=workers,
        )
        assert GEN._jsonable(result.rows()) == _fixture("sweep")["rows"]


class TestGoldenPartition:
    @pytest.mark.parametrize("method", ["greedy", "dp", "hull"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_summary_allocation_match_recorded(self, method, workers):
        from repro import api

        result = api.partition(
            GEN.partition_tenants(),
            GEN.PARTITION_BUDGET,
            method=method,
            mode="exact",
            unit=4,
            seed=0,
            name="golden",
            workers=workers,
        )
        want = _fixture("partition")["methods"][method]
        assert GEN._jsonable(result.rows()) == want["rows"]
        assert GEN._jsonable(result.summary()) == want["summary"]
        assert GEN._jsonable(result.allocation()) == want["allocation"]


class TestGoldenOnline:
    # ``plane="batch"`` checks the production replay against the fixture;
    # ``plane="reference"`` also re-drives its lanes through the per-event
    # oracle.  Both write checkpoints at each cadence, which must not change
    # a single recorded value.
    @pytest.mark.parametrize("plane", ["batch", "reference"])
    @pytest.mark.parametrize("checkpoint_every", [1, 2])
    def test_replay_matches_recorded(self, plane, checkpoint_every, tmp_path):
        from oracles import replay_lanes

        from repro import api
        from repro.online import OnlineJob
        from repro.trace.drift import three_phase_pair

        knobs = GEN.ONLINE
        workload = three_phase_pair(knobs["length"], seed=knobs["seed"])
        budget, window, epoch, rate = knobs["budget"], knobs["window"], knobs["epoch"], knobs["rate"]
        result = api.online(
            workload,
            budget,
            window,
            epoch,
            rate=rate,
            name="golden",
            checkpoint_dir=tmp_path,
            checkpoint_every=checkpoint_every,
        )
        want = _fixture("online")
        assert GEN._jsonable(result.rows()) == want["rows"]
        assert GEN._jsonable(result.summary()) == want["summary"]
        assert list(result.static_allocation) == want["static_allocation"]
        assert list(result.final_allocation) == want["final_allocation"]
        assert [list(a) for a in result.oracle_allocations] == want["oracle_allocations"]
        assert any(tmp_path.iterdir())
        if plane == "reference":
            job = OnlineJob(budget=budget, window=window, epoch=epoch, rate=rate)
            replay_lanes(workload, result, job)
