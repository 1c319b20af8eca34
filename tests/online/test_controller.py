"""Unit tests for the move-cost-aware re-allocation controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc import DiscretizedMRC
from repro.obs import MetricsRegistry, recording
from repro.online import ReallocationController


def linear_curve(footprint: int, accesses: int = 1000) -> DiscretizedMRC:
    """Misses fall linearly until the footprint fits, then flatten at zero."""
    misses = np.maximum(footprint - np.arange(footprint + 1), 0) / footprint * accesses
    return DiscretizedMRC(misses=misses.astype(np.float64), unit=1, accesses=accesses)


def flat_curve(accesses: int = 1000) -> DiscretizedMRC:
    """No capacity helps (e.g. pure streaming): the allocator should starve it."""
    return DiscretizedMRC(misses=np.full(1, float(accesses)), unit=1, accesses=accesses)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReallocationController(budget=100, method="nope", unit=1, move_cost=1.0)
        with pytest.raises(ValueError):
            ReallocationController(budget=100, method="hull", unit=200, move_cost=1.0)
        with pytest.raises(ValueError):
            ReallocationController(budget=100, method="hull", unit=1, move_cost=-1.0)

    def test_decide_checks_tenant_count(self):
        controller = ReallocationController(budget=10, method="hull", unit=1, move_cost=1.0)
        with pytest.raises(ValueError):
            controller.decide([linear_curve(5)], (5, 5), horizon=100)


class TestPropose:
    @pytest.mark.parametrize("method", ["greedy", "dp", "hull"])
    def test_full_budget_is_always_assigned(self, method):
        controller = ReallocationController(budget=100, method=method, unit=1, move_cost=1.0)
        proposal = controller.propose([linear_curve(30), flat_curve()])
        assert sum(proposal) == 100  # leftover topped up, not stranded

    def test_topup_splits_equally_when_nothing_was_allocated(self):
        controller = ReallocationController(budget=10, method="dp", unit=1, move_cost=1.0)
        proposal = controller.propose([flat_curve(), flat_curve()])
        assert proposal == (5, 5)

    def test_steeper_tenant_wins_the_contested_blocks(self):
        controller = ReallocationController(budget=60, method="dp", unit=1, move_cost=1.0)
        # same footprint, 4x the traffic: every block saves 4x the misses
        hot = linear_curve(50, accesses=4000)
        cold = linear_curve(50, accesses=1000)
        proposal = controller.propose([hot, cold])
        assert proposal[0] > proposal[1]

    def test_unit_granularity_respected(self):
        controller = ReallocationController(budget=64, method="hull", unit=16, move_cost=1.0)
        proposal = controller.propose([linear_curve(40), linear_curve(40)])
        assert all(c % 16 == 0 for c in proposal)
        assert sum(proposal) == 64


class TestDecide:
    def test_applies_when_gain_beats_penalty(self):
        controller = ReallocationController(budget=100, method="dp", unit=1, move_cost=1.0)
        curves = [linear_curve(90), flat_curve()]
        decision = controller.decide(curves, (50, 50), horizon=10_000)
        assert decision.applied
        assert decision.allocation == controller.propose(curves)
        assert decision.predicted_gain > decision.penalty

    def test_holds_when_move_cost_dominates(self):
        controller = ReallocationController(budget=100, method="dp", unit=1, move_cost=1e6)
        decision = controller.decide([linear_curve(90), flat_curve()], (50, 50), horizon=100)
        assert not decision.applied
        assert decision.allocation == (50, 50)

    def test_identical_proposal_is_a_cheap_no_move(self):
        controller = ReallocationController(budget=100, method="dp", unit=1, move_cost=1.0)
        curves = [linear_curve(90), flat_curve()]
        settled = controller.propose(curves)
        decision = controller.decide(curves, settled, horizon=10_000)
        assert not decision.applied
        assert decision.moved_blocks == 0 and decision.penalty == 0.0

    def test_zero_move_cost_applies_any_strict_improvement(self):
        controller = ReallocationController(budget=100, method="dp", unit=1, move_cost=0.0)
        decision = controller.decide([linear_curve(90), flat_curve()], (50, 50), horizon=1)
        assert decision.applied

    def test_counters_track_evaluations_and_applications(self):
        controller = ReallocationController(budget=100, method="dp", unit=1, move_cost=1.0)
        curves = [linear_curve(90), flat_curve()]
        with recording(MetricsRegistry()) as registry:
            controller.decide(curves, (50, 50), horizon=10_000)
            controller.decide(curves, controller.propose(curves), horizon=10_000)
        assert registry.counter("controller.evaluations", method="dp").value == 2
        assert registry.counter("controller.applications", method="dp").value == 1

    def test_moved_blocks_count_only_growth(self):
        """Moved blocks are the blocks that must warm up (positive deltas)."""
        controller = ReallocationController(budget=100, method="dp", unit=1, move_cost=0.0)
        decision = controller.decide([linear_curve(90), flat_curve()], (20, 80), horizon=10_000)
        assert decision.applied
        grown = sum(max(new - old, 0) for new, old in zip(decision.allocation, (20, 80)))
        assert decision.moved_blocks == grown
