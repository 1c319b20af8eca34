"""Capacity allocators over per-tenant discretized miss curves.

Three allocation strategies divide a shared budget of cache units among
tenants, plus the naive baseline they are measured against:

:func:`greedy_allocate`
    Marginal-miss-gain greedy: repeatedly hand the next unit to the tenant
    whose miss count drops the most.  Optimal when every curve is convex
    (equal to the DP, asserted by the property tests); blind to cliffs —
    a capacity step that only pays off ``k`` units ahead contributes zero
    one-unit marginal gain, so greedy never climbs it.
:func:`dp_allocate`
    Exact dynamic program over the discretized curves: minimises total
    misses over *all* integral splits of the budget.  Handles arbitrary
    non-convex curves at ``O(tenants × budget × units-per-tenant)`` cost,
    one loop-free window step per tenant.
:func:`hull_allocate`
    Talus-style: allocate steepest-hull-segment-first over the lower convex
    hulls of the curves (:func:`~repro.alloc.curves.lower_convex_hull`).
    Hull segments are taken whole — landing mid-segment of a non-convex
    region would realise the raw curve, not the hull — and any leftover
    budget is spent by raw marginal-gain greedy.  Near-optimal like the DP
    on cliff curves at near-greedy cost.
:func:`proportional_split`
    The no-curve baseline: split the budget in proportion to tenant
    footprints (what an operator without MRCs would configure).

All allocators return an integer array of per-tenant unit allocations with
``sum(alloc) <= budget_units``; ties break deterministically toward the
lower tenant index, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from .curves import DiscretizedMRC, lower_convex_hull

__all__ = [
    "greedy_allocate",
    "dp_allocate",
    "hull_allocate",
    "proportional_split",
    "total_misses",
]


def total_misses(curves: Sequence[DiscretizedMRC], allocation: Sequence[int] | np.ndarray) -> float:
    """Total expected misses of an allocation under the tenants' (raw) curves.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.alloc.curves import DiscretizedMRC
    >>> curve = DiscretizedMRC(misses=np.array([10.0, 4.0, 2.0]), unit=1, accesses=10)
    >>> total_misses([curve, curve], [1, 2])
    6.0
    """
    alloc = np.asarray(allocation, dtype=np.int64)
    if alloc.size != len(curves):
        raise ValueError(f"allocation has {alloc.size} entries for {len(curves)} tenants")
    return float(sum(curve.misses_at(int(a)) for curve, a in zip(curves, alloc)))


def _check_budget(budget_units: int) -> int:
    budget_units = int(budget_units)
    if budget_units < 0:
        raise ValueError(f"budget_units must be >= 0, got {budget_units}")
    return budget_units


def greedy_allocate(curves: Sequence[DiscretizedMRC], budget_units: int) -> np.ndarray:
    """Marginal-miss-gain greedy allocation of ``budget_units`` cache units.

    A max-heap keyed on the miss reduction of each tenant's *next* unit; the
    winner takes one unit and re-queues its following gain.  Exactly optimal
    when all curves are convex; on non-convex curves it can stall at zero
    marginal gain (see :func:`hull_allocate`).  Units with zero gain
    everywhere are not handed out.
    """
    budget_units = _check_budget(budget_units)
    allocation = np.zeros(len(curves), dtype=np.int64)
    # Heap entries: (-gain, tenant index, next unit index).  Negated gain for
    # a max-heap; tenant index doubles as the deterministic tie-break.
    heap: list[tuple[float, int, int]] = []
    for t, curve in enumerate(curves):
        if curve.max_units >= 1:
            gain = float(curve.misses[0] - curve.misses[1])
            heapq.heappush(heap, (-gain, t, 1))
    remaining = budget_units
    while remaining > 0 and heap:
        neg_gain, t, next_unit = heapq.heappop(heap)
        if neg_gain >= 0.0:
            break  # no tenant gains anything from another unit
        allocation[t] = next_unit
        remaining -= 1
        curve = curves[t]
        if next_unit < curve.max_units:
            gain = float(curve.misses[next_unit] - curve.misses[next_unit + 1])
            heapq.heappush(heap, (-gain, t, next_unit + 1))
    return allocation


def dp_allocate(curves: Sequence[DiscretizedMRC], budget_units: int) -> np.ndarray:
    """Exact minimum-total-miss allocation by dynamic programming.

    ``dp[b]`` is the least total misses of the tenants so far in ``b`` units or fewer.  A tenant
    folds in by one (min, +) window step: a reversed sliding window over ``dp`` (left-padded with
    ``inf``) puts ``dp[b - x]`` in column ``x`` of row ``b``; plus ``misses[x]``, each row's *first*
    ``argmin`` is the choice, so ties go to the smallest allocation.  Rows fold in blocks of
    ~``_BLOCK_CANDIDATES`` candidates, the window ends at the row's first minimum (no larger ``x``
    beats a non-increasing ``dp``), and the last tenant folds only the row ``b = budget`` the
    traceback reads.
    """
    return _dp_fold([curve.misses for curve in curves], _check_budget(budget_units))


# Candidates (rows × columns) per block of the DP fold: its scratch matrix stays at 512 KB at any budget.
_BLOCK_CANDIDATES = 1 << 16


def _dp_fold(misses: Sequence[np.ndarray], budget_units: int) -> np.ndarray:
    """The allocation of :func:`dp_allocate` over raw miss rows (each row's tail past the budget is ignored)."""
    dp, choices = np.zeros(budget_units + 1), []
    for t, row in enumerate(misses):
        limit = int(row[: dp.size].argmin())
        window = np.lib.stride_tricks.sliding_window_view(np.concatenate((np.full(limit, np.inf), dp)), limit + 1)
        dp, choice = np.empty(dp.size), np.empty(dp.size, dtype=np.int64)
        step = max(1, _BLOCK_CANDIDATES // (limit + 1))
        # The traceback reads only the last tenant's full-budget row.
        for lo in range(budget_units if t == len(misses) - 1 else 0, dp.size, step):
            candidates = window[lo : lo + step, ::-1] + row[: limit + 1]
            choice[lo : lo + step] = picks = candidates.argmin(axis=1)
            dp[lo : lo + step] = candidates[np.arange(picks.size), picks]
        choices.append(choice)
    allocation, b = np.zeros(len(misses), dtype=np.int64), budget_units
    for t in range(len(misses) - 1, -1, -1):
        allocation[t] = choices[t][b]
        b -= int(allocation[t])
    return allocation


def hull_allocate(curves: Sequence[DiscretizedMRC], budget_units: int) -> np.ndarray:
    """Talus-style convex-hull allocation of ``budget_units`` cache units.

    Every tenant's curve is replaced by its lower convex hull; the hull
    segments of all tenants are then consumed steepest-slope-first (the
    classic water-filling argument: on convex curves this is optimal).  When
    the remaining budget is smaller than a segment, the partial take is
    accepted only if the *raw* curve delivers the hull's promised gain there
    (a convex region, where raw and hull coincide); otherwise the segment is
    skipped whole and blocks its tenant — an allocation stranded mid-cliff
    would realise the flat raw curve, not the hull's interpolation.
    Whatever budget survives the hull pass is resolved *exactly* by a
    dynamic program over the raw curves restricted to the leftover (see
    :func:`dp_allocate`): the leftover is small whenever the hulls did their
    job, so the boundary DP keeps near-greedy cost while staircase-shaped
    (e.g. sampled) curves and cliffs both land correctly.
    """
    budget_units = _check_budget(budget_units)
    num_tenants = len(curves)
    allocation = np.zeros(num_tenants, dtype=np.int64)
    if num_tenants == 0 or budget_units == 0:
        return allocation

    # Collect every hull segment: (slope, tenant, start unit, end unit).
    # Slopes are negative; steeper (more negative) segments remove more
    # misses per unit and go first.  Within a tenant, hull slopes strictly
    # increase, so sorting by slope preserves each tenant's segment order;
    # the (tenant, start) tie-break keeps equal-slope ordering deterministic.
    segments: list[tuple[float, int, int, int]] = []
    for t, curve in enumerate(curves):
        vertices, values = lower_convex_hull(curve.misses)
        for (u0, u1), (m0, m1) in zip(zip(vertices, vertices[1:]), zip(values, values[1:])):
            slope = (float(m1) - float(m0)) / float(u1 - u0)
            if slope < 0.0:
                segments.append((slope, t, int(u0), int(u1)))
    segments.sort()

    remaining = budget_units
    blocked = np.zeros(num_tenants, dtype=bool)
    for slope, t, start, end in segments:
        if remaining == 0:
            break
        if blocked[t]:
            continue
        span = end - start
        if span <= remaining:
            allocation[t] = end
            remaining -= span
            continue
        # Partial take: safe exactly when the raw curve follows the hull up
        # to start + remaining (then the water-filling optimality argument
        # still applies); on a cliff the raw gain collapses to ~0 and the
        # tenant is skipped instead of stranded mid-segment.
        curve = curves[t]
        raw_gain = float(curve.misses[start] - curve.misses[start + remaining])
        hull_gain = -slope * remaining
        if raw_gain + 1e-9 * max(1.0, hull_gain) >= hull_gain:
            allocation[t] = start + remaining
            remaining = 0
            break
        blocked[t] = True
    if remaining > 0:
        # Resolve the budget boundary exactly: a DP over the raw curves past
        # the hull allocations, bounded by the (small) leftover.
        return _dp_top_up(curves, allocation, remaining)
    return allocation


def _dp_top_up(curves: Sequence[DiscretizedMRC], allocation: np.ndarray, remaining: int) -> np.ndarray:
    """Spend ``remaining`` more units optimally: :func:`dp_allocate`'s fold over each row from its allocation on."""
    return allocation + _dp_fold([curve.misses[int(units) :] for curve, units in zip(curves, allocation)], remaining)


# The allocator behind each ``ALLOC_METHODS`` name (partition and online replay).
_ALLOCATORS = {"greedy": greedy_allocate, "dp": dp_allocate, "hull": hull_allocate}


def proportional_split(footprints: Sequence[int], budget_units: int) -> np.ndarray:
    """Split the budget proportionally to tenant footprints (the naive baseline).

    Largest-remainder rounding keeps the total at exactly
    ``min(budget_units, sum(footprints))``; no tenant receives more units
    than its footprint (the excess is re-shared proportionally).

    Examples
    --------
    >>> proportional_split([100, 300], 8).tolist()
    [2, 6]
    """
    budget_units = _check_budget(budget_units)
    sizes = np.asarray(footprints, dtype=np.float64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("footprints must be a non-empty 1-D sequence")
    if np.any(sizes <= 0):
        raise ValueError("every tenant footprint must be positive")
    caps = sizes.astype(np.int64)
    allocation = np.zeros(sizes.size, dtype=np.int64)
    remaining = min(budget_units, int(caps.sum()))
    active = np.ones(sizes.size, dtype=bool)
    while remaining > 0 and active.any():
        weights = np.where(active, sizes, 0.0)
        shares = weights / weights.sum() * remaining
        grant = np.minimum(np.floor(shares).astype(np.int64), caps - allocation)
        if grant.sum() == 0:
            # Largest remainders first, one unit each, among uncapped tenants.
            order = np.argsort(-(shares - np.floor(shares)), kind="stable")
            for t in order:
                if remaining == 0:
                    break
                if active[t] and allocation[t] < caps[t]:
                    allocation[t] += 1
                    remaining -= 1
            active &= allocation < caps
            continue
        allocation += grant
        remaining -= int(grant.sum())
        active &= allocation < caps
    return allocation
