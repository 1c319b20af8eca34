"""Unit tests for the windowed/decayed SHARDS sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.mrc import mrc_from_trace
from repro.online import WindowedShardsSketch, curve_of_snapshot, pooled_curve
from repro.profiling.accuracy import compare_curves


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WindowedShardsSketch(window=0)
        with pytest.raises(ValueError):
            WindowedShardsSketch(window=4, decay=-0.1)
        with pytest.raises(ValueError):
            WindowedShardsSketch(window=4, rate=0.0)
        with pytest.raises(ValueError):
            WindowedShardsSketch(window=4, rate=1.5)

    def test_rejects_bad_updates(self):
        sketch = WindowedShardsSketch(window=4)
        with pytest.raises(ValueError):
            sketch.update(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            sketch.advance(-1)

    def test_empty_window_curve_raises(self):
        sketch = WindowedShardsSketch(window=4)
        with pytest.raises(ValueError):
            sketch.curve()


class TestExactness:
    """At rate 1 and no decay the sketch IS the exact MRC of the tail window."""

    def test_equals_exact_mrc_of_tail_window(self, rng):
        trace = rng.integers(0, 50, size=800)
        sketch = WindowedShardsSketch(window=300, rate=1.0)
        sketch.update(trace)
        tail = mrc_from_trace(trace[-300:])
        assert compare_curves(sketch.curve(), tail).max_absolute_error == 0.0

    def test_incremental_updates_equal_one_shot(self, rng):
        trace = rng.integers(0, 30, size=500)
        one_shot = WindowedShardsSketch(window=200, rate=0.5, seed=3)
        one_shot.update(trace)
        piecewise = WindowedShardsSketch(window=200, rate=0.5, seed=3)
        for start in range(0, trace.size, 37):
            piecewise.update(trace[start : start + 37])
        assert one_shot.curve() == piecewise.curve()

    def test_advance_gaps_profile_only_offered_references(self, rng):
        """With gaps the sketch profiles exactly the offered sub-stream's tail."""
        trace = rng.integers(0, 40, size=400)
        sketch = WindowedShardsSketch(window=200, rate=1.0)
        for i in range(0, trace.size, 2):
            sketch.update(trace[i : i + 1])
            sketch.advance(1)
        offered = trace[::2]
        tail = mrc_from_trace(offered[-100:])  # 100 offered refs inside the window
        assert compare_curves(sketch.curve(), tail).max_absolute_error == 0.0

    def test_idle_stream_drains_out_of_the_window(self, rng):
        sketch = WindowedShardsSketch(window=100, rate=1.0)
        sketch.update(rng.integers(0, 10, size=50))
        assert sketch.sampled > 0
        sketch.advance(100)
        assert sketch.sampled == 0
        assert sketch.snapshot().offered == 0


class TestWindowSemantics:
    def test_eviction_keeps_only_window_positions(self):
        sketch = WindowedShardsSketch(window=4, rate=1.0)
        sketch.update([0, 1, 0, 1, 2, 1, 2, 1])
        snapshot = sketch.snapshot()
        assert snapshot.positions.tolist() == [4, 5, 6, 7]
        assert snapshot.items.tolist() == [2, 1, 2, 1]
        assert snapshot.offered == 4

    def test_window_curve_tracks_regime_change(self, rng):
        """After a working-set shift the window forgets the old regime."""
        old = rng.integers(0, 20, size=400)
        new = 1000 + rng.integers(0, 20, size=400)
        sketch = WindowedShardsSketch(window=200, rate=1.0)
        sketch.update(np.concatenate([old, new]))
        tail_only = mrc_from_trace(new[-200:])
        assert compare_curves(sketch.curve(), tail_only).max_absolute_error == 0.0

    def test_monotone_nonincreasing_under_sampling(self, rng):
        trace = rng.integers(0, 500, size=4000)
        sketch = WindowedShardsSketch(window=2000, rate=0.3, seed=1)
        sketch.update(trace)
        ratios = sketch.curve().as_array()
        assert np.all(np.diff(ratios) <= 1e-12)
        assert np.all((ratios >= 0.0) & (ratios <= 1.0))

    def test_max_cache_size_crops_and_extends(self, rng):
        trace = rng.integers(0, 50, size=300)
        sketch = WindowedShardsSketch(window=300, rate=1.0)
        sketch.update(trace)
        cropped = sketch.curve(max_cache_size=5)
        assert cropped.max_cache_size == 5
        extended = sketch.curve(max_cache_size=200)
        assert extended.max_cache_size == 200
        assert extended[200] == extended[60]


class TestDecay:
    def test_zero_decay_equals_pure_window(self, rng):
        trace = rng.integers(0, 40, size=600)
        plain = WindowedShardsSketch(window=250, rate=1.0)
        decayed = WindowedShardsSketch(window=250, rate=1.0, decay=0.0)
        plain.update(trace)
        decayed.update(trace)
        assert plain.curve() == decayed.curve()

    def test_tiny_decay_approaches_pure_window(self, rng):
        trace = rng.integers(0, 40, size=600)
        plain = WindowedShardsSketch(window=250, rate=1.0)
        decayed = WindowedShardsSketch(window=250, rate=1.0, decay=1e-6)
        plain.update(trace)
        decayed.update(trace)
        assert compare_curves(decayed.curve(), plain.curve()).max_absolute_error < 1e-3

    @pytest.mark.parametrize("decay", [1e-17, 1e-12])
    def test_subnormal_decay_stays_finite(self, rng, decay):
        """Regression: the geometric-series denominator underflowed to 0 for
        decay below float64 resolution, turning every ratio into NaN."""
        trace = rng.integers(0, 40, size=600)
        decayed = WindowedShardsSketch(window=250, rate=1.0, decay=decay)
        plain = WindowedShardsSketch(window=250, rate=1.0)
        decayed.update(trace)
        plain.update(trace)
        ratios = decayed.curve().as_array()
        assert np.all(np.isfinite(ratios))
        assert compare_curves(decayed.curve(), plain.curve()).max_absolute_error < 1e-9

    def test_fully_decayed_window_has_no_curve(self):
        """A window whose offered references all lie ~3,000 positions back weighs exp(-1500) = 0 at decay 0.5:
        its curve would be 0/0, so it counts as empty, and pooling skips it."""
        drained = WindowedShardsSketch(window=4000, rate=1.0, decay=0.5)
        drained.update([1, 2, 1])
        drained.advance(3000)
        live = WindowedShardsSketch(window=4000, rate=1.0, decay=0.5)
        live.advance(3000)
        live.update([5, 6, 5])
        assert drained.sampled == 3 and drained.snapshot().offered_weight == 0.0
        with pytest.raises(ValueError, match="empty"):
            drained.curve()
        with pytest.raises(ValueError, match="empty"):
            pooled_curve([drained])
        assert pooled_curve([drained, live]) == live.curve()

    def test_decay_weights_recent_regime_more(self, rng):
        """Under decay the curve leans toward the newer half of the window."""
        old = rng.integers(0, 200, size=300)  # wide working set: high miss ratio
        new = rng.integers(0, 10, size=300)  # tiny working set: low miss ratio
        plain = WindowedShardsSketch(window=600, rate=1.0)
        decayed = WindowedShardsSketch(window=600, rate=1.0, decay=0.02)
        plain.update(np.concatenate([old, new]))
        decayed.update(np.concatenate([old, new]))
        # at cache size 10 the new regime hits, the old one mostly misses
        assert decayed.curve()[10] < plain.curve()[10]


class TestPoolingAndSnapshots:
    def test_pooled_seeds_stay_accurate(self):
        from repro.trace import zipfian_trace

        trace = zipfian_trace(12_000, 800, exponent=0.8, rng=3).accesses
        exact = mrc_from_trace(trace[-3000:])
        sketches = []
        for seed in (0, 1, 2):
            sketch = WindowedShardsSketch(window=3000, rate=0.3, seed=seed)
            sketch.update(trace)
            sketches.append(sketch)
        pooled = pooled_curve(sketches)
        assert compare_curves(pooled, exact).mean_absolute_error <= 0.02

    def test_pooling_rejects_mismatched_clocks(self, rng):
        a = WindowedShardsSketch(window=100, rate=0.5)
        b = WindowedShardsSketch(window=100, rate=0.5, seed=1)
        a.update(rng.integers(0, 10, size=50))
        b.update(rng.integers(0, 10, size=40))
        with pytest.raises(ValueError):
            pooled_curve([a, b])

    def test_pooling_requires_sketches(self):
        with pytest.raises(ValueError):
            pooled_curve([])

    def test_snapshot_is_detached_from_the_sketch(self, rng):
        sketch = WindowedShardsSketch(window=100, rate=1.0)
        sketch.update(rng.integers(0, 10, size=80))
        snapshot = sketch.snapshot()
        before = curve_of_snapshot(snapshot)
        sketch.update(rng.integers(0, 10, size=80))
        assert curve_of_snapshot(snapshot) == before
