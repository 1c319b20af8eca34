"""Allocator correctness: greedy vs DP vs hull vs proportional.

The load-bearing properties:

* the DP is an exact optimum, so no other allocator can beat it on any
  curve set (hypothesis-checked on random monotone curves);
* greedy equals the DP whenever every curve is convex (hypothesis-checked on
  random convex curves);
* the convex hull rescues greedy on cliff curves;
* hull allocation never loses to the naive proportional split on the
  composed multi-tenant workloads the acceptance criteria name;
* the DP's window fold returns the same allocation, tenant by tenant, as
  the per-unit DP of ``tests/oracles.py`` (ties included), in any row
  block size, and inside the hull allocator's boundary top-up.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dp_allocate_per_unit

from repro.alloc import allocators
from repro.alloc import (
    DiscretizedMRC,
    discretize_curve,
    dp_allocate,
    greedy_allocate,
    hull_allocate,
    lower_convex_hull,
    proportional_split,
    total_misses,
)
from repro.cache.mrc import mrc_from_trace
from repro.trace import TenantSpec, compose_tenants, zipfian_trace
from repro.trace.trace import PeriodicTrace
from repro.trace.workloads import stream_copy


def curve_from_misses(misses) -> DiscretizedMRC:
    values = np.asarray(misses, dtype=np.float64)
    return DiscretizedMRC(misses=values, unit=1, accesses=max(int(values[0]), 1))


@st.composite
def convex_curves(draw):
    """A list of tenants with convex (decreasing-gain) discretized miss curves."""
    num_tenants = draw(st.integers(min_value=1, max_value=4))
    curves = []
    for _ in range(num_tenants):
        length = draw(st.integers(min_value=1, max_value=12))
        gains = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=length,
                max_size=length,
            )
        )
        gains = sorted(gains, reverse=True)  # non-increasing gains == convex curve
        start = float(sum(gains)) + draw(st.floats(min_value=0.0, max_value=100.0))
        misses = [start]
        for gain in gains:
            misses.append(misses[-1] - gain)
        curves.append(curve_from_misses(misses))
    return curves


@st.composite
def monotone_curves(draw):
    """Arbitrary non-increasing (possibly wildly non-convex) miss curves."""
    num_tenants = draw(st.integers(min_value=1, max_value=4))
    curves = []
    for _ in range(num_tenants):
        length = draw(st.integers(min_value=1, max_value=12))
        gains = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=length,
                max_size=length,
            )
        )
        start = float(sum(gains)) + 1.0
        misses = [start]
        for gain in gains:
            misses.append(misses[-1] - gain)
        curves.append(curve_from_misses(misses))
    return curves


class TestGreedyEqualsDPOnConvex:
    @settings(max_examples=200, deadline=None)
    @given(curves=convex_curves(), budget=st.integers(min_value=0, max_value=40))
    def test_greedy_matches_dp_total_misses(self, curves, budget):
        greedy = greedy_allocate(curves, budget)
        exact = dp_allocate(curves, budget)
        assert total_misses(curves, greedy) == pytest.approx(total_misses(curves, exact), abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(curves=convex_curves(), budget=st.integers(min_value=0, max_value=40))
    def test_hull_matches_dp_total_misses_on_convex(self, curves, budget):
        hull = hull_allocate(curves, budget)
        exact = dp_allocate(curves, budget)
        assert total_misses(curves, hull) == pytest.approx(total_misses(curves, exact), abs=1e-6)


class TestDPIsOptimal:
    @settings(max_examples=200, deadline=None)
    @given(curves=monotone_curves(), budget=st.integers(min_value=0, max_value=40))
    def test_dp_never_loses_to_any_other_allocator(self, curves, budget):
        exact = total_misses(curves, dp_allocate(curves, budget))
        for other in (greedy_allocate, hull_allocate):
            assert exact <= total_misses(curves, other(curves, budget)) + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(curves=monotone_curves(), budget=st.integers(min_value=0, max_value=40))
    def test_allocations_respect_the_budget(self, curves, budget):
        for allocator in (greedy_allocate, dp_allocate, hull_allocate):
            allocation = allocator(curves, budget)
            assert int(allocation.sum()) <= budget
            assert np.all(allocation >= 0)
            assert all(a <= c.max_units for a, c in zip(allocation, curves))


class TestCliffCurves:
    def test_hull_and_dp_climb_the_cliff_greedy_cannot(self):
        """One smooth tenant and one pure cliff: greedy starves the cliff even
        when climbing it is globally optimal; the hull and the DP see it."""
        smooth = curve_from_misses([100.0 - 2.0 * j for j in range(11)])  # gain 2/unit
        cliff = curve_from_misses([1000.0] * 10 + [0.0])  # 1000 misses at 10 units
        curves = [smooth, cliff]
        budget = 10
        greedy = greedy_allocate(curves, budget)
        hull = hull_allocate(curves, budget)
        exact = dp_allocate(curves, budget)
        assert greedy.tolist() == [10, 0]  # only sees the 2/unit gains
        assert hull.tolist() == [0, 10]  # hull slope of the cliff is 100/unit
        assert exact.tolist() == [0, 10]
        assert total_misses(curves, hull) < total_misses(curves, greedy)

    def test_hull_never_takes_a_partial_cliff(self):
        """With too little budget for the cliff, the hull skips it whole and
        spends the budget on the smooth tenant instead of stranding it."""
        smooth = curve_from_misses([100.0 - 2.0 * j for j in range(11)])
        cliff = curve_from_misses([1000.0] * 10 + [0.0])
        allocation = hull_allocate([smooth, cliff], 8)
        assert allocation.tolist() == [8, 0]

    def test_lower_convex_hull_of_convex_curve_is_identity(self):
        misses = np.array([10.0, 6.0, 3.0, 1.0, 0.0])
        vertices, values = lower_convex_hull(misses, [0])
        np.testing.assert_array_equal(vertices, np.arange(5))
        np.testing.assert_array_equal(values, misses)


class TestHullVsProportionalOnComposedWorkloads:
    @pytest.mark.parametrize("budget", [256, 1024, 2048, 4096])
    def test_hull_never_loses_to_proportional_split(self, budget):
        tenants = [
            TenantSpec(zipfian_trace(12000, 2048, exponent=0.9, rng=11), name="zipf"),
            TenantSpec(PeriodicTrace.sawtooth(1500).to_trace(), name="saw"),
            TenantSpec(stream_copy(800, repetitions=3), name="stream"),
        ]
        composed = compose_tenants(tenants, seed=11)
        streams = [composed.tenant_trace(t) for t in range(composed.num_tenants)]
        curves = [discretize_curve(mrc_from_trace(s, max_cache_size=budget), budget) for s in streams]
        hull = hull_allocate(curves, budget)
        proportional = proportional_split([int(np.unique(s).size) for s in streams], budget)
        clamped = np.minimum(proportional, [c.max_units for c in curves])
        assert total_misses(curves, hull) <= total_misses(curves, clamped) + 1e-6


class TestProportionalSplit:
    def test_exact_proportions_when_divisible(self):
        assert proportional_split([100, 300], 8).tolist() == [2, 6]

    def test_total_never_exceeds_budget_or_footprints(self):
        allocation = proportional_split([7, 13, 5], 100)
        assert allocation.tolist() == [7, 13, 5]  # capped at footprints
        allocation = proportional_split([7, 13, 5], 10)
        assert int(allocation.sum()) == 10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            proportional_split([], 10)
        with pytest.raises(ValueError):
            proportional_split([0, 5], 10)
        with pytest.raises(ValueError):
            proportional_split([5], -1)


class TestDiscretizeCurve:
    def test_capacity_zero_misses_every_access(self):
        curve = mrc_from_trace([0, 1, 0, 1, 0, 1])
        d = discretize_curve(curve, budget=4)
        assert d.misses[0] == 6.0
        assert d.miss_ratio_at(0) == 1.0

    def test_units_coarsen_the_grid(self):
        curve = mrc_from_trace(zipfian_trace(2000, 128, rng=0).accesses)
        fine = discretize_curve(curve, budget=64, unit=1)
        coarse = discretize_curve(curve, budget=64, unit=16)
        assert coarse.max_units == 4
        assert coarse.misses_at(1) == fine.misses_at(16)

    def test_monotone_even_for_noisy_curves(self):
        from repro.cache.mrc import MissRatioCurve

        noisy = MissRatioCurve(ratios=(0.9, 0.5, 0.6, 0.4), accesses=100)
        d = discretize_curve(noisy, budget=4)
        assert np.all(np.diff(d.misses) <= 0)

    def test_rejects_bad_budget_and_unit(self):
        curve = mrc_from_trace([0, 1, 0, 1])
        with pytest.raises(ValueError):
            discretize_curve(curve, budget=0)
        with pytest.raises(ValueError):
            discretize_curve(curve, budget=4, unit=0)


class TestDiscretizedMRCBoundaries:
    """Explicit boundary behaviour at capacity 0 and beyond the footprint."""

    def test_clamps_beyond_max_units(self):
        d = curve_from_misses([10.0, 4.0, 2.0])
        assert d.misses_at(d.max_units) == d.misses_at(d.max_units + 1) == d.misses_at(10**9) == 2.0
        assert d.miss_ratio_at(10**9) == pytest.approx(0.2)

    def test_capacity_zero_reads_the_empty_partition_point(self):
        d = curve_from_misses([10.0, 4.0, 2.0])
        assert d.misses_at(0) == 10.0
        assert d.miss_ratio_at(0) == 1.0

    def test_negative_units_are_rejected_not_wrapped(self):
        """Regression: a negative allocation used to wrap to the curve's *end*
        (Python negative indexing) and read as a fully-provisioned tenant."""
        d = curve_from_misses([10.0, 4.0, 2.0])
        with pytest.raises(ValueError):
            d.misses_at(-1)
        with pytest.raises(ValueError):
            d.miss_ratio_at(-1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DiscretizedMRC(misses=np.zeros(0), unit=1, accesses=1)
        with pytest.raises(ValueError):
            DiscretizedMRC(misses=np.zeros((2, 2)), unit=1, accesses=1)
        with pytest.raises(ValueError):
            DiscretizedMRC(misses=np.ones(2), unit=0, accesses=1)
        with pytest.raises(ValueError):
            DiscretizedMRC(misses=np.ones(2), unit=1, accesses=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_misses_are_rejected(self, bad):
        """Regression: a NaN point used to allocate silently (the DP, hull and
        greedy each read a different optimum, the hull one over budget)."""
        with pytest.raises(ValueError, match="finite"):
            DiscretizedMRC(misses=np.asarray([10.0, bad, 2.0, 1.0]), unit=1, accesses=10)

    def test_single_point_curve_is_flat_everywhere(self):
        d = DiscretizedMRC(misses=np.asarray([7.0]), unit=1, accesses=7)
        assert d.max_units == 0
        assert d.misses_at(0) == d.misses_at(5) == 7.0


@st.composite
def tie_heavy_curves(draw):
    """0–16 tenants with small integer miss rows: plateaus, cliffs, equal
    tenants, non-monotone rows and single-point (``max_units == 0``) curves."""
    num_tenants = draw(st.integers(min_value=0, max_value=16))
    curves = []
    for _ in range(num_tenants):
        if curves and draw(st.booleans()):
            curves.append(curves[-1])  # an equal-gain twin: ties across tenants
            continue
        length = draw(st.integers(min_value=1, max_value=14))
        if draw(st.booleans()):
            steps = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=length - 1, max_size=length - 1))
            misses = np.concatenate(([20.0], 20.0 - np.cumsum(steps, dtype=np.float64)))
        else:  # a non-monotone user curve
            misses = np.asarray(draw(st.lists(st.integers(0, 6), min_size=length, max_size=length)), dtype=np.float64)
        curves.append(curve_from_misses(misses))
    return curves


def _oracle_top_up(curves, allocation, remaining):
    """The boundary top-up over shifted curve objects and the per-unit DP."""
    shifted = [
        DiscretizedMRC(misses=curve.misses[int(units) : int(units) + remaining + 1], unit=1, accesses=curve.accesses)
        for curve, units in zip(curves, allocation)
    ]
    return allocation + dp_allocate_per_unit(shifted, remaining)


class TestDPMatchesPerUnitOracle:
    """Allocation-for-allocation equality with the per-unit DP, not just equal totals."""

    @settings(max_examples=300, deadline=None)
    @given(curves=tie_heavy_curves(), budget=st.integers(min_value=0, max_value=60))
    def test_window_fold_equals_per_unit_dp(self, curves, budget):
        expected = dp_allocate_per_unit(curves, budget).tolist()
        # One-row blocks, multi-row blocks and the production block size.
        for block in (1, 5, allocators._BLOCK_CANDIDATES):
            with mock.patch.object(allocators, "_BLOCK_CANDIDATES", block):
                assert dp_allocate(curves, budget).tolist() == expected

    @pytest.mark.parametrize("budget", [0, 1, 2, 5, 40])
    def test_degenerate_shapes(self, budget):
        flat = curve_from_misses([9.0])
        cliff = curve_from_misses([9.0, 9.0, 9.0, 0.0])
        for curves in ([], [flat], [flat] * 3, [cliff] * 4, [flat, cliff, flat, cliff]):
            assert dp_allocate(curves, budget).tolist() == dp_allocate_per_unit(curves, budget).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 30), st.integers(1, 4), st.booleans()), min_size=1, max_size=6
        ),
        budget=st.integers(min_value=0, max_value=120),
    )
    def test_hull_top_up_equals_oracle_top_up(self, shapes, budget):
        """Cliff (one drop) and staircase (equal steps) curves through the hull
        allocator, whose leftover the DP resolves."""
        curves = []
        for height, edge, step, staircase in shapes:
            misses = np.full(edge + 1, float(10 * height))
            if staircase:
                misses -= np.minimum(np.arange(edge + 1) // step * step, 10 * height)
            else:
                misses[edge] = 0.0
            curves.append(curve_from_misses(misses))
        with mock.patch.object(allocators, "_dp_top_up", _oracle_top_up):
            expected = hull_allocate(curves, budget).tolist()
        assert hull_allocate(curves, budget).tolist() == expected

    def test_wide_budget_stays_in_row_blocks(self):
        """3 tenants × 4,096 units at budget 4,096: the unblocked candidate
        matrix of the middle tenant alone would be 134 MB."""
        rng = np.random.default_rng(5)
        units = 4096
        curves = []
        for _ in range(3):
            gains = rng.integers(1, 4, size=units) * (rng.random(units) < 0.3)  # plateaus and steps
            gains[-1] = 1  # the first minimum is the last point: full-width windows
            curves.append(curve_from_misses(np.concatenate(([1e6], 1e6 - np.cumsum(gains, dtype=np.float64)))))
        tracemalloc.start()
        try:
            allocation = dp_allocate(curves, units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert allocation.tolist() == dp_allocate_per_unit(curves, units).tolist()
