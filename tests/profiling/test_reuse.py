"""Tests for the streaming reuse-time profiler and the AET model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.mrc import mrc_from_trace
from repro.profiling import (
    ReuseTimeHistogram,
    ReuseTimeProfiler,
    mean_absolute_error,
    reuse_mrc,
)
from repro.trace.generators import zipfian_stream, zipfian_trace


class TestBucketArithmetic:
    def test_fine_region_is_exact(self):
        hist = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        for t in range(1, 65):
            assert hist.bucket_index(t) == t - 1
            assert hist.bucket_upper_edge(t - 1) == t

    def test_scalar_and_vector_agree(self):
        hist = ReuseTimeHistogram(fine_limit=256, coarse_per_octave=32)
        rng = np.random.default_rng(0)
        times = np.concatenate(
            [
                np.arange(1, 2_000),
                rng.integers(1, 1 << 40, size=2_000),
                # power-of-two boundaries and their neighbours
                np.array([(1 << k) + d for k in range(1, 45) for d in (-1, 0, 1)]),
            ]
        )
        times = times[times >= 1]
        vector = hist.bucket_indices(times)
        scalar = np.array([hist.bucket_index(int(t)) for t in times])
        assert np.array_equal(vector, scalar)

    def test_upper_edge_contains_bucket(self):
        hist = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        for t in [1, 63, 64, 65, 100, 127, 128, 1000, 10**6, 10**9]:
            index = hist.bucket_index(t)
            edge = hist.bucket_upper_edge(index)
            assert edge >= t
            assert hist.bucket_index(edge) == index

    def test_vector_upper_edges_match_scalar(self):
        hist = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        indices = np.arange(64 + 16 * 40)
        assert hist.bucket_upper_edges(indices).tolist() == [hist.bucket_upper_edge(int(i)) for i in indices]

    @pytest.mark.parametrize("high", [300, 1 << 40], ids=["dense", "sparse"])
    def test_recording_matches_per_reuse_buckets(self, high):
        # Dense reuse times are counted per time and summed per bucket range;
        # sparse ones are bucketed one by one.  Both give the same counts.
        hist = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        times = np.random.default_rng(5).integers(1, high, size=1_000)
        hist.record_reuses(times)
        want = np.bincount(hist.bucket_indices(times))
        assert np.array_equal(hist.counts, want) and hist.accesses == times.size

    def test_time_counts_match_recorded_reuses_and_cold(self):
        # counts[d] reuses of time d and counts[0] cold accesses; trailing
        # zero times (a trace's counts run to its length) grow no bucket.
        times = np.random.default_rng(6).integers(1, 300, size=1_000)
        want = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        want.record_reuses(times)
        want.record_cold(9)
        got = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        counts = np.bincount(times, minlength=5_000)
        counts[0] = 9
        got.record_time_counts(counts)
        assert got == want and got.counts.size == want.counts.size
        only_cold = ReuseTimeHistogram()
        only_cold.record_time_counts(np.array([4, 0, 0]))
        assert (only_cold.cold, only_cold.accesses, only_cold.counts.sum()) == (4, 4, 0)

    def test_edges_strictly_ordered_across_nonempty_buckets(self):
        hist = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        edges = [hist.bucket_upper_edge(i) for i in range(64 + 16 * 8)]
        assert all(b >= a for a, b in zip(edges, edges[1:]))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReuseTimeHistogram(fine_limit=100)
        with pytest.raises(ValueError):
            ReuseTimeHistogram(fine_limit=64, coarse_per_octave=128)
        with pytest.raises(ValueError):
            ReuseTimeHistogram().bucket_index(0)


class TestHistogramMerge:
    def test_merge_equals_combined_recording(self):
        rng = np.random.default_rng(1)
        times = rng.integers(1, 100_000, size=5_000)
        one = ReuseTimeHistogram(fine_limit=512, coarse_per_octave=64)
        one.record_reuses(times)
        one.record_cold(7)

        left = ReuseTimeHistogram(fine_limit=512, coarse_per_octave=64)
        left.record_reuses(times[:2_000])
        left.record_cold(3)
        right = ReuseTimeHistogram(fine_limit=512, coarse_per_octave=64)
        right.record_reuses(times[2_000:])
        right.record_cold(4)
        assert left.merge(right) == one

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReuseTimeHistogram(fine_limit=64).merge(ReuseTimeHistogram(fine_limit=128))


class TestProfiler:
    def test_counts_and_footprint(self):
        profiler = ReuseTimeProfiler()
        profiler.feed([1, 2, 1, 3, 2, 1])
        assert profiler.accesses == 6
        assert profiler.footprint == 3
        assert profiler.histogram.cold == 3

    def test_scalar_feed_matches_vectorised_array_path(self):
        trace = zipfian_trace(30_000, 1_024, rng=2).accesses
        streamed = ReuseTimeProfiler().feed(int(x) for x in trace)
        from repro.profiling import parallel_reuse_histogram

        vectorised = parallel_reuse_histogram(trace, workers=1)
        assert streamed.histogram == vectorised

    def test_incremental_updates_match_feed(self):
        trace = [5, 3, 5, 5, 2, 3]
        a = ReuseTimeProfiler()
        for x in trace:
            a.update(x)
        b = ReuseTimeProfiler().feed(trace)
        assert a.histogram == b.histogram


def _aet_walk(hist: ReuseTimeHistogram, limit: int) -> tuple[float, ...]:
    """The AET model as a sequential walk over the non-empty buckets (the reference form)."""
    n = float(hist.accesses)
    tail = int(hist.counts.sum())
    ratios: list[float] = []
    integral = 0.0
    prev_edge = 0
    for index in np.nonzero(hist.counts)[0]:
        survival = (hist.cold + tail) / n
        while len(ratios) < limit and integral >= len(ratios) + 1:
            ratios.append(survival)
        edge = hist.bucket_upper_edge(int(index))
        width = edge - prev_edge
        while len(ratios) < limit and integral + survival * width > len(ratios) + 1:
            ratios.append(survival)
        integral += survival * width
        tail -= int(hist.counts[index])
        prev_edge = edge
    while len(ratios) < limit:
        ratios.append(hist.cold / n if hist.cold else 0.0)
    return tuple(ratios)


class TestAETModel:
    @given(
        counts=st.lists(st.integers(0, 6), max_size=80),
        cold=st.integers(0, 60),
        limit=st.integers(1, 300),
    )
    def test_vectorised_curve_matches_sequential_walk(self, counts, cold, limit):
        accesses = sum(counts) + cold
        hist = ReuseTimeHistogram(fine_limit=16, coarse_per_octave=4, cold=cold, accesses=accesses, counts=counts)
        if hist.accesses:
            assert hist.to_mrc(limit).ratios == _aet_walk(hist, limit)

    def test_zipfian_curve_matches_sequential_walk(self):
        trace = zipfian_trace(60_000, 4_096, exponent=0.8, rng=7).accesses
        hist = ReuseTimeProfiler().feed(trace).histogram
        assert hist.to_mrc(hist.cold).ratios == _aet_walk(hist, hist.cold)

    def test_cyclic_trace_is_exact(self):
        """All reuse times equal m: AET reproduces the LRU cliff exactly."""
        m, passes = 16, 5
        trace = np.tile(np.arange(m), passes)
        curve = reuse_mrc(trace)
        exact = mrc_from_trace(trace)
        for c in range(1, m):
            assert curve[c] == pytest.approx(1.0)
        assert curve[m] == pytest.approx(exact[m]) == pytest.approx(m / (m * passes))

    def test_zipfian_accuracy(self):
        trace = zipfian_trace(60_000, 4_096, exponent=0.8, rng=7).accesses
        exact = mrc_from_trace(trace)
        approx = reuse_mrc(trace)
        assert mean_absolute_error(approx, exact) < 0.05

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            ReuseTimeHistogram().to_mrc()

    def test_curve_default_length_is_footprint(self):
        trace = zipfian_trace(10_000, 512, rng=3)
        curve = reuse_mrc(trace)
        assert curve.max_cache_size == trace.footprint


class TestGeneratorBackedStream:
    def test_profiles_stream_without_materialising(self):
        """A pure generator (no __len__, no random access) streams through in
        one pass — the memory profile is footprint + fixed histogram, so the
        same path handles traces too long to materialise."""
        length, footprint = 400_000, 2_048
        stream = zipfian_stream(length, footprint, exponent=0.8, rng=7)
        assert not hasattr(stream, "__len__")
        profiler = ReuseTimeProfiler()
        profiler.feed(stream)
        assert profiler.accesses == length
        assert profiler.footprint <= footprint
        curve = profiler.mrc()
        ratios = curve.as_array()
        assert ratios[0] > ratios[-1]
        assert np.all((0.0 <= ratios) & (ratios <= 1.0))

    def test_stream_matches_materialised_distribution(self):
        """The stream draws from the same distribution as zipfian_trace."""
        stream_items = np.fromiter(zipfian_stream(50_000, 256, rng=11, chunk_size=1_000), dtype=np.int64)
        trace_items = zipfian_trace(50_000, 256, rng=12).accesses
        # Same hot-item ordering: item 0 most popular in both.
        assert np.bincount(stream_items).argmax() == 0
        assert abs(np.mean(stream_items == 0) - np.mean(trace_items == 0)) < 0.02
