"""Unit tests for the engine's columnar per-tenant state."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.columnar import (
    TenantDistancePasses,
    check_tenant_ids,
    discretized_from_distances,
    exact_discretized_curve,
    idle_curve,
    split_by_tenant,
    tenant_positions,
)


def _composed(length=600, tenants=3, items=40, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, items, size=length), rng.integers(0, tenants, size=length)


class TestSplits:
    def test_split_round_trips_every_event(self):
        items, ids = _composed()
        streams = split_by_tenant(items, ids, 3)
        assert sum(s.size for s in streams) == items.size
        for t, stream in enumerate(streams):
            np.testing.assert_array_equal(stream, items[ids == t])

    def test_positions_align_with_split(self):
        items, ids = _composed()
        positions = tenant_positions(ids, 3)
        for t, idx in enumerate(positions):
            np.testing.assert_array_equal(items[idx], items[ids == t])

    @given(
        tenants=st.integers(1, 300),
        length=st.integers(0, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sorted_split_matches_per_tenant_masks(self, tenants, length, seed):
        # Up to 300 tenants covers both the uint8 and the uint16 radix keys;
        # short traces leave many tenants empty.
        ids = np.random.default_rng(seed).integers(0, tenants, size=length)
        positions = tenant_positions(ids, tenants)
        assert len(positions) == tenants
        for t, idx in enumerate(positions):
            np.testing.assert_array_equal(idx, np.flatnonzero(ids == t))

    def test_empty_trace_splits_into_empty_tenants(self):
        streams = split_by_tenant(np.array([], dtype=np.int64), np.array([]), 4)
        assert [s.size for s in streams] == [0, 0, 0, 0]

    def test_rejects_out_of_range_tenant(self):
        with pytest.raises(ValueError, match="tenant ids"):
            check_tenant_ids(np.array([0, 3]), 3)
        with pytest.raises(ValueError):
            split_by_tenant(np.array([1, 2]), np.array([0, 3]), 3)

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError, match="align"):
            split_by_tenant(np.array([1, 2, 3]), np.array([0, 1]), 2)


class TestCurveExtraction:
    def test_empty_stream_is_idle(self):
        curve = exact_discretized_curve(np.array([], dtype=np.int64), budget=16, unit=4)
        idle = idle_curve(4)
        assert list(curve.misses) == list(idle.misses)
        assert curve.accesses == idle.accesses

    def test_distances_path_matches_exact_path(self):
        from repro.cache.stack_distance import stack_distances_vectorized

        items, _ = _composed(length=400, tenants=1)
        for budget, unit in ((32, 1), (32, 4), (7, 3)):
            via_stream = exact_discretized_curve(items, budget, unit)
            via_distances = discretized_from_distances(stack_distances_vectorized(items), budget, unit)
            assert list(via_stream.misses) == list(via_distances.misses)
            assert via_stream.accesses == via_distances.accesses


class TestTenantDistancePasses:
    def test_whole_stream_curve_matches_from_scratch_extraction(self):
        items, ids = _composed()
        passes = TenantDistancePasses(items, ids, 3)
        for t in range(3):
            via_passes = passes.whole_stream_curve(t, budget=24, unit=2)
            from_scratch = exact_discretized_curve(items[ids == t], budget=24, unit=2)
            assert list(via_passes.misses) == list(from_scratch.misses)

    def test_window_curve_matches_from_scratch_extraction(self):
        # The core amortisation claim: re-labeling pre-window reuses as cold
        # reproduces exactly what a fresh pass over the window's sub-trace
        # measures — for every window, including empty ones.
        items, ids = _composed()
        passes = TenantDistancePasses(items, ids, 3)
        for bounds in ((0, 200), (200, 450), (450, 600), (37, 41), (100, 100)):
            for t in range(3):
                lo, hi = bounds
                window_items = items[lo:hi][ids[lo:hi] == t]
                via_passes = passes.window_curve(t, bounds, budget=24, unit=2)
                from_scratch = exact_discretized_curve(window_items, budget=24, unit=2)
                assert list(via_passes.misses) == list(from_scratch.misses), (bounds, t)
                assert via_passes.accesses == from_scratch.accesses

    def test_num_tenants(self):
        items, ids = _composed()
        assert TenantDistancePasses(items, ids, 3).num_tenants == 3
