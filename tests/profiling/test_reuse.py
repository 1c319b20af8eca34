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
    reuse,
    reuse_mrc,
)
from repro.trace.generators import zipfian_stream, zipfian_trace


class TestBucketArithmetic:
    def test_fine_region_is_exact(self):
        hist = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        for t in range(1, 65):
            assert hist.bucket_index(t) == t - 1
            assert hist.bucket_upper_edge(t - 1) == t

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

    def test_time_counts_match_recorded_reuses_and_cold(self):
        # counts[d] reuses of time d and counts[0] cold accesses; trailing
        # zero times (a trace's counts run to its length) grow no bucket.
        times = np.random.default_rng(6).integers(1, 300, size=1_000)
        want = ReuseTimeHistogram(fine_limit=64, coarse_per_octave=16)
        for t in times:
            want.record_reuse(t)
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
        vectorised = ReuseTimeHistogram()
        vectorised.record_time_counts(reuse._reuse_time_counts(trace))
        assert streamed.histogram == vectorised
        assert reuse_mrc(trace) == streamed.mrc()

    def test_incremental_updates_match_feed(self):
        trace = [5, 3, 5, 5, 2, 3]
        a = ReuseTimeProfiler()
        for x in trace:
            a.update(x)
        b = ReuseTimeProfiler().feed(trace)
        assert a.histogram == b.histogram


_INT64 = np.iinfo(np.int64)


#: Trace shapes for the array-pass differentials: skewed, cyclic, no reuse at
#: all, one hot item, and labels far from a dense id range.
_SHAPES = {
    "zipf": lambda: zipfian_trace(20_000, 1_024, rng=6).accesses,
    "cyclic": lambda: np.tile(np.arange(300), 40),
    "all-distinct": lambda: np.arange(5_000),
    "one-item": lambda: np.zeros(3_000, dtype=np.int64),
    "sparse-labels": lambda: zipfian_trace(8_000, 256, rng=2).accesses * 1_000_003 - 2**40,
    "strided-labels": lambda: zipfian_trace(8_000, 256, rng=3).accesses << 32,
}


class TestArrayPass:
    """The one array pass of :func:`reuse_mrc`: native kernel, numpy fallback and profiler agree."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_numpy_fallback_is_identical(self, monkeypatch, shape):
        trace = _SHAPES[shape]()
        counts, curve = reuse._reuse_time_counts(trace), reuse_mrc(trace)
        monkeypatch.setattr(reuse, "native_kernels", lambda: None)  # as on a machine without a compiler
        np.testing.assert_array_equal(reuse._reuse_time_counts(trace), counts)
        assert reuse_mrc(trace) == curve

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_array_pass_matches_the_streaming_profiler(self, shape):
        trace = _SHAPES[shape]()
        profiler = ReuseTimeProfiler().feed(trace.tolist())
        assert reuse_mrc(trace) == profiler.mrc()
        assert reuse_mrc(trace.tolist(), max_cache_size=64) == profiler.mrc(64)

    @given(
        labels=st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([_INT64.min, _INT64.max])), min_size=1),
        limit=st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_native_and_numpy_passes_match_the_profiler(self, labels, limit):
        # A small fine region puts most reuse times in the coarse buckets.
        layout = {"fine_limit": 4, "coarse_per_octave": 2}
        want = ReuseTimeProfiler(**layout).feed(labels).mrc(limit)
        trace = np.array(labels, dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            assert reuse_mrc(trace, max_cache_size=limit, **layout) == want
            patch.setattr(reuse, "native_kernels", lambda: None)
            assert reuse_mrc(trace, max_cache_size=limit, **layout) == want

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            reuse_mrc(np.array([], dtype=np.int64))


def _aet_walk(hist: ReuseTimeHistogram, limit: int) -> list[float]:
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
    return ratios


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
            assert hist.to_mrc(limit).ratios.tolist() == _aet_walk(hist, limit)

    def test_zipfian_curve_matches_sequential_walk(self):
        trace = zipfian_trace(60_000, 4_096, exponent=0.8, rng=7).accesses
        hist = ReuseTimeProfiler().feed(trace).histogram
        assert hist.to_mrc(hist.cold).ratios.tolist() == _aet_walk(hist, hist.cold)

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
