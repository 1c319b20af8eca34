"""Poset-level statistics of the locality order on ``S_m``.

Complements :mod:`repro.core.covering_graph` with the aggregate quantities the
appendix discusses: the rank generating function (whose coefficients are the
Mahonian numbers), per-rank cover-degree statistics (how much branching
ChainFind faces at each level), and the distribution of hit-vector partitions
across ranks.
"""

from __future__ import annotations

import numpy as np

from ..core.bruhat import covers
from .._util import ensure_rng
from ..core.inversions import _ranked_permutations, max_inversions
from ..core.mahonian import mahonian_row
from ..core.permutation import Permutation, random_permutation

__all__ = [
    "rank_generating_function",
    "cover_degree_by_rank",
    "expected_cover_degree",
    "whitney_numbers",
]


def rank_generating_function(m: int) -> np.polynomial.Polynomial:
    """The rank generating function ``Σ_k M(m, k) q^k`` of the Bruhat-graded poset.

    Evaluating at ``q = 1`` gives ``m!``; the coefficient sequence is symmetric
    (Poincaré duality of the poset) and unimodal.
    """
    return np.polynomial.Polynomial(list(mahonian_row(m)))


def whitney_numbers(m: int) -> list[int]:
    """The Whitney numbers of the second kind of the locality poset (= Mahonian row)."""
    return list(mahonian_row(m))


def cover_degree_by_rank(m: int) -> dict[int, dict[str, float]]:
    """Min/mean/max number of Bruhat covers per permutation, grouped by rank.

    The cover degree bounds the branching of ChainFind at each step; the paper
    bounds it by ``O(m)`` reflections times feasibility, and the top element
    has no covers at all.
    """
    stats: dict[int, list[int]] = {}
    for sigma, rank in _ranked_permutations(m):
        stats.setdefault(rank, []).append(len(covers(sigma)))
    out: dict[int, dict[str, float]] = {}
    for rank in sorted(stats):
        values = np.asarray(stats[rank])
        out[rank] = {
            "count": int(values.size),
            "min": int(values.min()),
            "mean": float(values.mean()),
            "max": int(values.max()),
        }
    return out


def expected_cover_degree(m: int, *, samples: int = 200, rng=0) -> float:
    """Monte-Carlo estimate of the average cover degree over ``S_m`` (for large ``m``)."""
    generator = ensure_rng(rng)
    total = 0
    for _ in range(samples):
        total += len(covers(random_permutation(m, generator)))
    return total / samples


def saturated_chain_count_identity_to_top(m: int) -> int:
    """Number of saturated chains from the identity to the reverse permutation in Bruhat order.

    This counts chains through *all* covering relations (not just adjacent
    swaps, whose chains are the reduced words of the longest element and are
    counted by staircase standard Young tableaux).  The Bruhat count is larger
    and grows super-exponentially — which is why ChainFind's greedy selection
    (not enumeration) matters.  Computed by dynamic programming over ranks for
    ``m <= 7``.
    """
    if m > 7:
        raise ValueError("chain counting is limited to m <= 7 (the count grows super-exponentially)")
    counts: dict[Permutation, int] = {Permutation.identity(m): 1}
    total_ranks = max_inversions(m)
    frontier = [Permutation.identity(m)]
    for _ in range(total_ranks):
        nxt: dict[Permutation, int] = {}
        for sigma in frontier:
            ways = counts[sigma]
            for tau in covers(sigma):
                nxt[tau] = nxt.get(tau, 0) + ways
        counts.update(nxt)
        frontier = list(nxt)
    return counts[Permutation.reverse(m)]
