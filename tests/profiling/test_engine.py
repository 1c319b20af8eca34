"""Tests for the profiling job engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.mrc import mrc_from_trace
from repro.profiling import ProfileJob, run_job, run_jobs
from repro.trace.generators import zipfian_trace
from repro.trace.io import write_text


class TestProfileJob:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            ProfileJob()
        with pytest.raises(ValueError):
            ProfileJob(trace=np.arange(4), path="x.trace")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ProfileJob(trace=np.arange(4), mode="belady")

    def test_path_backed_job(self, tmp_path):
        trace = zipfian_trace(2_000, 128, rng=0)
        path = tmp_path / "z.trace"
        write_text(trace, path)
        result = run_job(ProfileJob(path=str(path), mode="exact"))
        assert result.curve == mrc_from_trace(trace.accesses)
        assert result.accesses == 2_000


class TestRunJobs:
    @pytest.fixture(scope="class")
    def jobs(self):
        traces = [zipfian_trace(8_000, 512, rng=seed).accesses for seed in range(4)]
        return [
            ProfileJob(trace=t, name=f"zipf{i}", mode=mode)
            for i, t in enumerate(traces)
            for mode in ("exact", "shards", "reuse")
        ]

    def test_pool_matches_inline(self, jobs):
        inline = run_jobs(jobs, workers=1)
        pooled = run_jobs(jobs, workers=3)
        assert len(inline) == len(pooled) == len(jobs)
        for a, b in zip(inline, pooled):
            assert a.name == b.name and a.mode == b.mode
            assert a.curve == b.curve

    def test_results_keep_job_order(self, jobs):
        results = run_jobs(jobs, workers=2)
        assert [r.name for r in results] == [j.name for j in jobs]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], workers=0)

