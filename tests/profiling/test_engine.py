"""Tests for the sharded profiling execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.mrc import mrc_from_trace
from repro.profiling import (
    ProfileJob,
    ReuseTimeProfiler,
    chunk_partial,
    merge_partials,
    parallel_reuse_histogram,
    parallel_reuse_mrc,
    reuse_mrc,
    run_job,
    run_jobs,
)
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
        assert result.curve.ratios == mrc_from_trace(trace.accesses).ratios
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
            assert a.curve.ratios == b.curve.ratios

    def test_results_keep_job_order(self, jobs):
        results = run_jobs(jobs, workers=2)
        assert [r.name for r in results] == [j.name for j in jobs]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], workers=0)


class TestChunkPartials:
    def test_single_chunk_matches_streaming_profiler(self):
        trace = zipfian_trace(20_000, 1_024, rng=1).accesses
        partial = chunk_partial(trace, 0)
        merged = merge_partials([partial])
        sequential = ReuseTimeProfiler().feed(int(x) for x in trace)
        assert merged == sequential.histogram

    @pytest.mark.parametrize("chunks", [2, 3, 7, 16])
    def test_merged_partials_bit_identical_to_sequential(self, chunks):
        """The acceptance property: sharded execution changes nothing."""
        trace = zipfian_trace(30_000, 2_048, rng=2).accesses
        sharded = parallel_reuse_histogram(trace, workers=1, chunks=chunks)
        sequential = ReuseTimeProfiler().feed(int(x) for x in trace)
        assert sharded == sequential.histogram

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_pool_bit_identical_to_single_process(self, workers):
        trace = zipfian_trace(40_000, 2_048, rng=3).accesses
        single = parallel_reuse_histogram(trace, workers=1, chunks=workers)
        pooled = parallel_reuse_histogram(trace, workers=workers)
        assert single == pooled
        assert np.array_equal(np.trim_zeros(single.counts, "b"), np.trim_zeros(pooled.counts, "b"))

    def test_uneven_chunk_sizes(self):
        trace = zipfian_trace(10_001, 512, rng=4).accesses
        sharded = parallel_reuse_histogram(trace, workers=1, chunks=7)
        sequential = ReuseTimeProfiler().feed(int(x) for x in trace)
        assert sharded == sequential.histogram

    def test_cross_chunk_reuses_resolved(self):
        """Items split across chunks contribute the same reuse times."""
        trace = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3])
        sharded = parallel_reuse_histogram(trace, workers=1, chunks=4)
        assert sharded.cold == 3
        assert sharded.accesses == 9
        # Six reuses, all at reuse time 3.
        assert int(sharded.counts[2]) == 6

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            parallel_reuse_histogram(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("chunks", [1, 5])
    def test_numpy_fallback_is_identical(self, monkeypatch, chunks):
        from repro.profiling import engine

        trace = zipfian_trace(20_000, 1_024, rng=6).accesses
        native, native_partial = parallel_reuse_histogram(trace, workers=1, chunks=chunks), chunk_partial(trace, 10)
        monkeypatch.setattr(engine, "native_kernels", lambda: None)  # as on a machine without a compiler
        assert parallel_reuse_histogram(trace, workers=1, chunks=chunks) == native
        assert chunk_partial(trace, 10) == native_partial


class TestParallelCurve:
    def test_parallel_curve_matches_reuse_mrc(self):
        trace = zipfian_trace(15_000, 1_024, rng=5).accesses
        assert parallel_reuse_mrc(trace, workers=2).ratios == reuse_mrc(trace).ratios
