"""Move-cost-aware re-allocation decisions over fresh windowed profiles.

The static optimizer in :mod:`repro.alloc` answers "what split is best for
this whole trace"; online the question becomes "is the split suggested by the
*current window* worth the cost of moving to it".  Re-partitioning is not
free: every cache block a tenant gains arrives cold and must be re-fetched
(and blocks taken from a tenant destroy its warm contents), so chasing every
wiggle of the windowed profiles churns the cache for nothing.

:class:`ReallocationController` makes the decision deterministic: it re-runs
one of the :mod:`repro.alloc.allocators` (``greedy`` | ``dp`` | ``hull``) on
the fresh per-tenant curves, prices the proposal as

``predicted_gain = (miss_ratio(current) - miss_ratio(proposal)) * horizon``

misses saved over the caller's horizon (typically one epoch), prices the move
as ``move_cost`` warm-up misses per block that changes hands, and applies the
proposal only when the gain strictly exceeds the penalty.  Callers may force
the comparison on a phase-change flag or call it every epoch; either way the
move-cost gate is what keeps the partition stable under stationary traffic.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .._util import check_positive_int
from ..alloc.allocators import _ALLOCATORS
from ..alloc.curves import DiscretizedMRC
from ..engine.job import ALLOC_METHODS, check_choice
from ..obs import get_registry

__all__ = ["ReallocationDecision", "ReallocationController"]

#: Move-size buckets of the ``controller.moved_blocks`` histogram.
_MOVED_BLOCKS_EDGES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class ReallocationDecision:
    """Outcome of one controller evaluation.

    Attributes
    ----------
    applied:
        Whether the proposal should replace the current allocation.
    allocation:
        The allocation to run with next (the proposal if applied, else the
        unchanged current allocation), in blocks per tenant.
    predicted_gain:
        Misses the proposal is predicted to save over the horizon.
    penalty:
        Warm-up miss cost of moving (``move_cost × blocks changing hands``).
    moved_blocks:
        Number of cache blocks the proposal hands to a different tenant.
    """

    __slots__ = ("applied", "allocation", "predicted_gain", "penalty", "moved_blocks")

    def __init__(self, *, applied: bool, allocation: tuple[int, ...], predicted_gain: float, penalty: float,
                 moved_blocks: int):
        self.applied = bool(applied)
        self.allocation = tuple(int(c) for c in allocation)
        self.predicted_gain = float(predicted_gain)
        self.penalty = float(penalty)
        self.moved_blocks = int(moved_blocks)


class ReallocationController:
    """Decide whether fresh windowed profiles justify re-partitioning.

    Parameters
    ----------
    budget:
        Shared cache capacity in blocks.
    method:
        Allocator re-run on every evaluation: ``greedy`` | ``dp`` | ``hull``.
    unit:
        Allocation granularity in blocks (allocators hand out whole units).
    move_cost:
        Warm-up misses charged per block that changes hands; ``0`` makes the
        controller apply any strictly-improving proposal.
    """

    def __init__(self, *, budget: int, method: str = "hull", unit: int = 1, move_cost: float = 1.0):
        check_choice("method", method, ALLOC_METHODS)
        self.budget = check_positive_int(budget, "budget")
        self.unit = check_positive_int(unit, "unit")
        if self.unit > self.budget:
            raise ValueError(f"unit ({unit}) cannot exceed the budget ({budget})")
        if float(move_cost) < 0.0:
            raise ValueError(f"move_cost must be >= 0, got {move_cost}")
        self.method = method
        self.move_cost = float(move_cost)

    def propose(self, curves: Sequence[DiscretizedMRC]) -> tuple[int, ...]:
        """The allocator's preferred split (blocks per tenant) for these curves.

        Allocators stop handing out units once every marginal gain is zero,
        which on *windowed* (sampled, truncated) profiles routinely strands
        part of the budget just below a tenant's true footprint.  Idle cache
        serves nobody, so the leftover is topped up proportionally to the
        allocated shares (largest-remainder rounding; equal split when the
        allocator assigned nothing at all) — headroom against the window
        under-estimating a working set.
        """
        budget_units = self.budget // self.unit
        units = np.asarray(_ALLOCATORS[self.method](curves, budget_units), dtype=np.int64)
        leftover = budget_units - int(units.sum())
        if leftover > 0:
            weights = units.astype(np.float64)
            if weights.sum() == 0.0:
                weights = np.ones(units.size, dtype=np.float64)
            shares = weights / weights.sum() * leftover
            grant = np.floor(shares).astype(np.int64)
            remainder = leftover - int(grant.sum())
            # Largest fractional remainders first; ties break to low indices.
            order = np.argsort(-(shares - np.floor(shares)), kind="stable")
            grant[order[:remainder]] += 1
            units = units + grant
        return tuple(int(u) * self.unit for u in units)

    def decide(
        self,
        curves: Sequence[DiscretizedMRC],
        current: Sequence[int],
        *,
        horizon: int,
    ) -> ReallocationDecision:
        """Evaluate a re-partition of ``current`` against the fresh ``curves``.

        ``horizon`` is the number of accesses the new partition is expected to
        serve before the next evaluation (typically the epoch length); the
        predicted miss-ratio gap between the current and proposed allocations
        is scaled by it to compare against the one-off move penalty.
        """
        current = tuple(int(c) for c in current)
        if len(current) != len(curves):
            raise ValueError(f"current allocation has {len(current)} entries for {len(curves)} tenants")
        horizon = check_positive_int(horizon, "horizon")
        registry = get_registry()
        registry.counter("controller.evaluations", method=self.method).inc()
        proposal = self.propose(curves)
        if proposal == current:
            return ReallocationDecision(
                applied=False, allocation=current, predicted_gain=0.0, penalty=0.0, moved_blocks=0
            )
        # Weight each tenant's predicted ratio by its share of the windowed
        # accesses so the gain is in expected misses over the shared stream.
        total_accesses = float(sum(curve.accesses for curve in curves))
        current_misses = 0.0
        proposed_misses = 0.0
        for curve, old, new in zip(curves, current, proposal):
            share = curve.accesses / total_accesses
            current_misses += share * curve.miss_ratio_at(old // self.unit)
            proposed_misses += share * curve.miss_ratio_at(new // self.unit)
        gain = (current_misses - proposed_misses) * horizon
        moved = int(sum(max(new - old, 0) for old, new in zip(current, proposal)))
        penalty = self.move_cost * moved
        applied = gain > penalty
        if applied:
            registry.counter("controller.applications", method=self.method).inc()
            registry.histogram("controller.moved_blocks", _MOVED_BLOCKS_EDGES, method=self.method).observe(moved)
        return ReallocationDecision(
            applied=applied,
            allocation=proposal if applied else current,
            predicted_gain=gain,
            penalty=penalty,
            moved_blocks=moved,
        )
