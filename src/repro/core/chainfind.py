"""ChainFind — the greedy chain-construction algorithm of Section V (Algorithm 2).

Starting from a permutation ``τ_0`` (by default the identity / cyclic order),
ChainFind repeatedly moves to a Bruhat cover of the current permutation whose
edge label is maximal, producing a saturated chain that ends at the reverse
permutation (the sawtooth order, which is the unique maximum of the Bruhat
order).  Every step improves the miss ratio at exactly one cache size
(Theorem 3), so the chain is a schedule of progressively better re-orderings.

Two practical aspects the paper studies are captured here:

* **Ties** — when several covers share the maximal label, the greedy choice is
  arbitrary.  :class:`ChainFindResult` records every tie event and the number
  of equally good options at each, from which Figure 2's "count of arbitrary
  choices" and the "factor of different chains" of the ``S_11`` example are
  both derived.
* **Feasibility** — a predicate ``Y(τ)`` (Definition 7) restricts the covers
  that may be chosen, modelling program-dependence constraints.  When the
  feasible region has no upward cover the chain simply stops early.

The number of covering steps from the identity to the reverse permutation is
``m (m - 1) / 2`` (the maximal inversion number).  The paper's pseudocode
writes the bound as ``m (m + 1) / 2``; we use the former, mathematically
consistent value and note the discrepancy in ``DESIGN.md``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .._util import ensure_rng
from .bruhat import covers, weak_covers
from .hits import _hit_vectors
from .inversions import _retraversal_distances, max_inversions
from .labelings import EdgeLabeling, MissRatioLabeling
from .permutation import Permutation

__all__ = [
    "ChainFindResult",
    "chain_find",
    "chain_hit_matrix",
    "count_tie_events",
]

FeasibilityPredicate = Callable[[Permutation], bool]


@dataclass
class ChainFindResult:
    """Everything ChainFind produces for one run.

    Attributes
    ----------
    chain:
        The saturated chain, starting at ``tau_0``.  ``chain[k]`` has
        ``k + ℓ(tau_0)`` inversions.
    labels:
        The edge label chosen at each step (length ``len(chain) - 1``).
    tie_multiplicities:
        For each step, how many covers shared the maximal label (``1`` means
        the choice was forced).
    stopped_reason:
        ``"top"`` when the reverse permutation was reached, ``"no_feasible_cover"``
        when the feasibility predicate blocked every upward move, ``"max_steps"``
        when the step budget ran out.
    """

    chain: list[Permutation]
    labels: list[tuple]
    tie_multiplicities: list[int]
    stopped_reason: str
    labeling: EdgeLabeling = field(repr=False, default=None)

    @property
    def length(self) -> int:
        """Number of covering steps taken."""
        return len(self.chain) - 1

    @property
    def start(self) -> Permutation:
        """First permutation of the chain (the starting point)."""
        return self.chain[0]

    @property
    def end(self) -> Permutation:
        """Last permutation of the chain."""
        return self.chain[-1]

    @property
    def arbitrary_choice_count(self) -> int:
        """Number of steps where the greedy choice was not unique (Figure 2 metric)."""
        return sum(1 for k in self.tie_multiplicities if k > 1)

    @property
    def chain_multiplicity(self) -> int:
        """Product of tie multiplicities: how many distinct chains the greedy rule allows.

        The ``S_11`` example in Section V-B.2 reports this as the "factor of
        different chains that could be made".
        """
        return math.prod(self.tie_multiplicities)

    def inversion_numbers(self) -> list[int]:
        """``ℓ`` along the chain (consecutive integers when the chain is saturated)."""
        distances = _chain_distances(self.chain)
        return (distances.shape[1] ** 2 - distances.sum(axis=1)).tolist()

    def is_saturated(self) -> bool:
        """Whether each step increases the inversion number by exactly one."""
        ells = self.inversion_numbers()
        return all(b == a + 1 for a, b in zip(ells, ells[1:]))


def chain_find(
    start: Permutation,
    labeling: EdgeLabeling | None = None,
    *,
    feasibility: FeasibilityPredicate | None = None,
    max_steps: int | None = None,
    tie_break: str = "first",
    moves: str = "bruhat",
    rng: np.random.Generator | int | None = None,
) -> ChainFindResult:
    """Run Algorithm 2 from ``start`` and return the constructed chain.

    Parameters
    ----------
    start:
        The initial permutation ``τ_0`` (``Permutation.identity(m)`` for the
        cyclic order the paper starts from).
    labeling:
        The edge labeler ``λ``; defaults to the miss-ratio labeling ``λ_e``.
    feasibility:
        Optional predicate ``Y``; covers for which it returns ``False`` are
        never chosen.  ``None`` means every re-ordering is feasible
        (the paper's simplifying assumption for the theory sections).
    max_steps:
        Optional cap on the number of covering steps; defaults to the number
        of steps needed to reach the top, ``m(m-1)/2 - ℓ(start)``.
    tie_break:
        ``"first"`` picks the first maximal cover in enumeration order
        (deterministic), ``"random"`` picks uniformly among maximal covers
        using ``rng``.
    moves:
        ``"bruhat"`` (the paper's Algorithm 2) allows every covering
        transposition; ``"weak"`` restricts the moves to adjacent swaps
        (weak-order covers).  The weak restriction is the regime in which the
        pointwise miss-ratio dominance of Theorem 3 provably holds at every
        step (see ``theorem3_compare``), and it models schedulers that may
        only exchange *neighbouring* accesses.
    rng:
        Seed or generator for the random tie-break.

    Returns
    -------
    ChainFindResult
    """
    if labeling is None:
        labeling = MissRatioLabeling()
    if tie_break not in ("first", "random"):
        raise ValueError(f"tie_break must be 'first' or 'random', got {tie_break!r}")
    if moves not in ("bruhat", "weak"):
        raise ValueError(f"moves must be 'bruhat' or 'weak', got {moves!r}")
    generator = ensure_rng(rng) if tie_break == "random" else None

    m = start.size
    budget = max_inversions(m) - start.inversions()
    if max_steps is not None:
        budget = min(budget, int(max_steps))

    chain = [start]
    labels: list[tuple] = []
    multiplicities: list[int] = []
    reason = "top"

    step_candidates = covers if moves == "bruhat" else weak_covers

    current = start
    for _ in range(budget):
        candidates = step_candidates(current)
        if feasibility is not None:
            candidates = [tau for tau in candidates if feasibility(tau)]
        if not candidates:
            reason = "no_feasible_cover"
            break
        best, best_label = labeling.best_covers(current, candidates)
        multiplicities.append(len(best))
        labels.append(best_label)
        if tie_break == "random" and len(best) > 1:
            current = best[int(generator.integers(len(best)))]
        else:
            current = best[0]
        chain.append(current)
    else:
        reason = "top" if current.inversions() == max_inversions(m) else "max_steps"

    return ChainFindResult(
        chain=chain,
        labels=labels,
        tie_multiplicities=multiplicities,
        stopped_reason=reason,
        labeling=labeling,
    )


def chain_hit_matrix(result: ChainFindResult) -> np.ndarray:
    """Stack the cache-hit vectors of every permutation along a chain.

    Row ``k`` is ``hits_C(chain[k])``; Theorem 3 implies each row dominates the
    previous one entrywise and exceeds it by exactly one in a single column.
    Useful both for tests and for visualising the locality ramp of a chain.
    """
    return _hit_vectors(_chain_distances(result.chain))


def _chain_distances(chain: list[Permutation]) -> np.ndarray:
    """Re-traversal distances of every permutation of a chain, one row each, from one distance pass."""
    return _retraversal_distances(np.array([sigma.one_line for sigma in chain], dtype=np.int64))


def count_tie_events(
    m: int,
    labeling: EdgeLabeling | None = None,
    *,
    start: Permutation | None = None,
) -> dict[str, int]:
    """Convenience driver for the Figure 2 experiment at a single group size.

    Runs ChainFind from ``start`` (default: identity of ``S_m``) with the given
    labeling and returns the tie statistics: the number of steps with an
    arbitrary choice, the product of tie multiplicities and the chain length.
    """
    start = start if start is not None else Permutation.identity(m)
    result = chain_find(start, labeling)
    return {
        "m": m,
        "chain_length": result.length,
        "arbitrary_choices": result.arbitrary_choice_count,
        "chain_multiplicity": result.chain_multiplicity,
    }
