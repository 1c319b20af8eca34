"""Alternative locality orderings: timescale (footprint) and data-movement labelings.

Problem 3 of the paper asks whether an EL-labeling "dependent precisely on
locality" exists, and reports that the authors experimented with labelings
built from *timescale locality* (the relational theory of locality, reference
[1]) and *data movement complexity* (reference [10]).  This module provides
those candidate labelings so the experiment can be reproduced and extended:

``TimescaleLabeling``
    Labels an edge by the (negated, truncated) footprint curve of the
    destination re-traversal — permutations whose windows touch fewer distinct
    items compare higher.
``DataMovementLabeling``
    Labels an edge by the negated data-movement distance of the destination
    re-traversal (√-of-stack-distance cost model).
``TotalReuseLabeling``
    The simplest aggregate: the negated total reuse (sum of stack distances).
    By Theorem 2 this is equivalent to comparing inversion numbers, so along a
    covering edge it is constant +1 — a deliberately *useless* labeling that
    demonstrates why aggregate measures cannot be good labelings.

``compare_labelings`` runs ChainFind under a set of labelings and reports the
tie statistics of each, which is the experiment behind the paper's conclusion
that none of the attempted orderings yields a good labeling.

The cache-level metrics are imported lazily inside the methods to keep the
package dependency direction (``repro.cache`` builds on ``repro.core``)
acyclic at import time.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .chainfind import chain_find
from .labelings import EdgeLabeling, MissRatioLabeling, RankedMissRatioLabeling
from .permutation import Permutation

__all__ = [
    "TimescaleLabeling",
    "DataMovementLabeling",
    "TotalReuseLabeling",
    "compare_labelings",
]


def _periodic_trace_array(sigma: Permutation) -> np.ndarray:
    return np.concatenate([np.arange(sigma.size, dtype=np.intp), sigma.to_array()])


class TimescaleLabeling(EdgeLabeling):
    """Label edges by the footprint curve of the destination's periodic trace.

    The footprint curve is sampled at ``num_windows`` window lengths spread
    over the trace; smaller footprints (fewer distinct items per window, i.e.
    more reuse within the window) compare *higher*, so the values are negated
    before lexicographic comparison.
    """

    def __init__(self, num_windows: int = 8):
        if num_windows < 1:
            raise ValueError(f"num_windows must be >= 1, got {num_windows}")
        self.num_windows = int(num_windows)

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """Negated footprint curve of ``tau`` sampled at the tracked windows."""
        from ..cache.footprint import footprint_curve

        trace = _periodic_trace_array(tau)
        curve = footprint_curve(trace)
        windows = np.linspace(1, curve.size - 1, num=min(self.num_windows, curve.size - 1), dtype=int)
        return tuple(-float(curve[w]) for w in windows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimescaleLabeling(num_windows={self.num_windows})"


class DataMovementLabeling(EdgeLabeling):
    """Label edges by the negated data-movement distance of the destination."""

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """Negated data-movement distance of ``tau``."""
        from ..cache.footprint import data_movement_distance

        return (-float(data_movement_distance(_periodic_trace_array(tau))),)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DataMovementLabeling()"


class TotalReuseLabeling(EdgeLabeling):
    """Label edges by the negated total reuse of the destination.

    Along any Bruhat covering edge the total reuse decreases by exactly one
    (Theorem 2), so every cover of a node receives the same label — the
    extreme case of a labeling that can never break a tie.  Useful as the
    control in labeling comparisons.
    """

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """Negated total reuse of ``tau`` (constant across covers, by Theorem 2)."""
        from .hits import total_reuse

        return (-int(total_reuse(tau)),)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TotalReuseLabeling()"


def compare_labelings(
    m: int,
    labelings: Mapping[str, EdgeLabeling] | None = None,
    *,
    start: Permutation | None = None,
    moves: str = "bruhat",
) -> list[dict]:
    """Run ChainFind under several labelings and report their tie statistics.

    The default set reproduces the paper's Problem-3 exploration: the
    miss-ratio labeling λ_e, a ranked variant, the timescale (footprint)
    labeling, the data-movement labeling and the total-reuse control.
    Returns one row per labeling with the chain length, the number of
    arbitrary choices and the number of distinct chains the greedy rule
    admits.
    """
    if labelings is None:
        psi = Permutation([m - 2] + list(range(m - 2)) + [m - 1]) if m >= 2 else Permutation.identity(m)
        labelings = {
            "miss_ratio (λ_e)": MissRatioLabeling(),
            "ranked (λ_ψ)": RankedMissRatioLabeling(psi),
            "timescale (footprint)": TimescaleLabeling(),
            "data_movement": DataMovementLabeling(),
            "total_reuse (control)": TotalReuseLabeling(),
        }
    start = start if start is not None else Permutation.identity(m)
    rows = []
    for name, labeling in labelings.items():
        result = chain_find(start, labeling, moves=moves)
        rows.append(
            {
                "labeling": name,
                "chain_length": result.length,
                "arbitrary_choices": result.arbitrary_choice_count,
                "chain_multiplicity": result.chain_multiplicity,
                "reaches_top": result.end.is_reverse(),
            }
        )
    return rows
