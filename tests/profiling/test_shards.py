"""Tests for SHARDS-style sampled miss-ratio curves."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.mrc import mrc_from_trace
from repro.profiling import (
    HASH_SPACE,
    adaptive_rate,
    mean_absolute_error,
    sample_trace,
    shards_mrc,
    spatial_hash,
)
from repro.profiling.shards import sampled_positions
from repro.trace.generators import zipfian_trace


class TestSpatialHash:
    def test_deterministic_per_item(self):
        items = np.arange(1000)
        assert np.array_equal(spatial_hash(items, seed=3), spatial_hash(items, seed=3))

    def test_seed_changes_hashes(self):
        items = np.arange(1000)
        assert not np.array_equal(spatial_hash(items, seed=0), spatial_hash(items, seed=1))

    def test_hashes_within_space(self):
        hashes = spatial_hash(np.arange(10_000), seed=0)
        assert int(hashes.max()) < HASH_SPACE

    def test_roughly_uniform(self):
        hashes = spatial_hash(np.arange(100_000), seed=0)
        below_half = int(np.sum(hashes < HASH_SPACE // 2))
        assert 0.48 < below_half / 100_000 < 0.52


class TestSampledPositions:
    """The native sampling filter against the numpy hash, bit for bit."""

    @given(
        labels=st.lists(st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max), max_size=300),
        seeds=st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
        threshold=st.integers(1, HASH_SPACE),
    )
    def test_matches_numpy_hash_filter(self, labels, seeds, threshold):
        items = np.asarray(labels, dtype=np.int64)
        thresholds = [max(1, threshold >> j) for j in range(len(seeds))]
        got = sampled_positions(items, thresholds, seeds)
        assert len(got) == len(seeds)
        for positions, t, seed in zip(got, thresholds, seeds):
            np.testing.assert_array_equal(positions, np.flatnonzero(spatial_hash(items, seed) < np.uint64(t)))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.int64])
    def test_label_dtypes(self, dtype):
        items = np.arange(-500, 5000).astype(dtype)
        threshold = HASH_SPACE // 3
        want = np.flatnonzero(spatial_hash(items, 5) < np.uint64(threshold))
        np.testing.assert_array_equal(sampled_positions(items, [threshold], [5])[0], want)

    @pytest.mark.parametrize("seeds", [1, 8, 9], ids=["one", "table-limit", "past-table-limit"])
    @pytest.mark.parametrize("offset", [0, -(2**62)], ids=["dense-ids", "offset-ids"])
    def test_dense_labels_every_seed_count(self, seeds, offset):
        # Dense labels go through a per-label table (up to 8 seeds), others hash per reference.
        items = zipfian_trace(20_000, 3_000, exponent=0.8, rng=4).accesses + offset
        thresholds = [HASH_SPACE // (3 + j) for j in range(seeds)]
        got = sampled_positions(items, thresholds, range(seeds))
        for positions, t, seed in zip(got, thresholds, range(seeds)):
            np.testing.assert_array_equal(positions, np.flatnonzero(spatial_hash(items, seed) < np.uint64(t)))

    def test_numpy_fallback_is_identical(self, monkeypatch):
        from repro.profiling import shards

        items = zipfian_trace(20_000, 2_000, exponent=0.8, rng=3).accesses
        native = sampled_positions(items, [HASH_SPACE // 50, HASH_SPACE // 7], [1, 2])
        monkeypatch.setattr(shards, "native_kernels", lambda: None)  # as on a machine without a compiler
        for got, want in zip(sampled_positions(items, [HASH_SPACE // 50, HASH_SPACE // 7], [1, 2]), native):
            np.testing.assert_array_equal(got, want)


class TestSampleTrace:
    def test_spatial_property(self):
        """Either every reference to an item is sampled or none is."""
        trace = zipfian_trace(20_000, 512, rng=0).accesses
        sub, rate = sample_trace(trace, 0.2, seed=1)
        sampled_items = set(np.unique(sub).tolist())
        for item in sampled_items:
            assert int(np.sum(sub == item)) == int(np.sum(trace == item))

    def test_effective_rate_close_to_requested(self):
        _, rate = sample_trace(np.arange(10), 0.1)
        assert rate == pytest.approx(0.1, abs=1.0 / HASH_SPACE)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_trace(np.arange(10), 0.0)
        with pytest.raises(ValueError):
            sample_trace(np.arange(10), 1.5)


class TestAdaptiveRate:
    def test_bounds_distinct_sampled_items(self):
        trace = zipfian_trace(50_000, 4096, rng=2).accesses
        for smax in (16, 128, 1024):
            rate = adaptive_rate(trace, smax, seed=0)
            sub, _ = sample_trace(trace, rate, seed=0)
            assert 0 < np.unique(sub).size <= smax

    def test_small_footprint_keeps_everything(self):
        trace = np.arange(50)
        assert adaptive_rate(trace, 100) == 1.0

    def test_invalid_smax_rejected(self):
        with pytest.raises(ValueError):
            adaptive_rate(np.arange(10), 0)


class TestShardsMRC:
    def test_rate_one_reproduces_exact_curve(self):
        trace = zipfian_trace(5_000, 256, rng=3).accesses
        exact = mrc_from_trace(trace)
        approx = shards_mrc(trace, 1.0, n_seeds=1)
        assert mean_absolute_error(approx, exact) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        trace = zipfian_trace(20_000, 2048, rng=4).accesses
        a = shards_mrc(trace, 0.1, seed=5)
        b = shards_mrc(trace, 0.1, seed=5)
        assert a.ratios == b.ratios

    def test_curve_is_monotone_and_bounded(self):
        trace = zipfian_trace(30_000, 2048, rng=5).accesses
        curve = shards_mrc(trace, 0.05).as_array()
        assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_max_cache_size_crops_and_extends(self):
        trace = zipfian_trace(20_000, 1024, rng=6).accesses
        short = shards_mrc(trace, 0.1, max_cache_size=10)
        assert short.max_cache_size == 10
        long = shards_mrc(trace, 0.1, max_cache_size=5_000)
        assert long.max_cache_size == 5_000
        assert long.ratios[-1] == long.ratios[4_000]

    def test_fixed_size_budget(self):
        trace = zipfian_trace(40_000, 4096, rng=8).accesses
        exact = mrc_from_trace(trace)
        approx = shards_mrc(trace, smax=512, seed=0)
        assert mean_absolute_error(approx, exact) < 0.05

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            shards_mrc(np.array([], dtype=np.int64), 0.1)

    def test_error_bound_on_medium_trace(self):
        """MAE stays small at a moderate rate on a seeded 100k-reference trace."""
        trace = zipfian_trace(100_000, 8192, exponent=0.8, rng=7).accesses
        exact = mrc_from_trace(trace)
        approx = shards_mrc(trace, 0.05, seed=0)
        assert mean_absolute_error(approx, exact) <= 0.02


class TestMillionReferenceAcceptance:
    """The headline accuracy/cost claim on a million-reference Zipfian trace.

    This is the subsystem's acceptance bar: SHARDS at ``rate=0.01`` (library
    defaults, seeded) must be at least 10x faster than the exact pipeline
    while keeping the mean absolute MRC error at or below 0.02.  The trace
    and hash seeds are pinned, so the error assertion is deterministic; the
    speedup assertion is a wall-clock ratio (measured ~11–13x against the
    native exact kernel, ~60x against the numpy one) — both pipelines run
    in the same process, so load affects them proportionally.
    """

    def test_shards_rate_001_speedup_and_error(self):
        trace = zipfian_trace(1_000_000, 65_536, exponent=0.8, rng=7).accesses

        start = time.perf_counter()
        exact = mrc_from_trace(trace)
        exact_seconds = time.perf_counter() - start

        start = time.perf_counter()
        approx = shards_mrc(trace, 0.01, seed=0)
        approx_seconds = time.perf_counter() - start

        error = mean_absolute_error(approx, exact)
        assert error <= 0.02, f"MAE {error:.4f} exceeds the 0.02 acceptance bound"
        speedup = exact_seconds / max(approx_seconds, 1e-9)
        assert speedup >= 10.0, f"speedup {speedup:.1f}x below the 10x acceptance bound"
