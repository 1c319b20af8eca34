"""Edge labelings for the ChainFind algorithm (Section V of the paper).

ChainFind walks up the Bruhat covering graph greedily, choosing at each step
the cover whose *edge label* is maximal with respect to a total order ``Q``.
The paper proposes two concrete labelings and studies how often they leave the
greedy choice ambiguous (Figure 2):

``MissRatioLabeling`` (``λ_e``)
    The lexicographically ordered cache-hit vector ``hits_C(τ)`` of the
    destination node.  Many covers of a low-rank node share the same label
    (the counterexample at the identity in Section V-B.1), so ties are common.

``RankedMissRatioLabeling`` (``λ_ψ``)
    The hit vector permuted by ``ψ`` so that preferred cache sizes are
    compared first — e.g. the ``S_11`` example with ``ψ`` sliding ``hits_10``
    to the front.

``TransposedLabeling`` and ``RandomTiebreakLabeling``
    The tie-breaking strategies the paper sketches (label by the transposition
    that realises the edge, in the standard Coxeter labeling style; or break
    ties uniformly at random).

The module also implements the *good labeling* and *EL-labeling* diagnostics of
Definitions 21 and 22, used by the open-problem exploration (Problem 3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from .._util import ensure_rng
from .bruhat import covers
from .hits import cache_hit_vector
from .permutation import Permutation

__all__ = [
    "EdgeLabeling",
    "MissRatioLabeling",
    "RankedMissRatioLabeling",
    "TransposedLabeling",
    "RandomTiebreakLabeling",
    "CompositeLabeling",
    "is_good_labeling",
    "chain_labels_nondecreasing",
    "count_nondecreasing_chains",
    "is_el_labeling",
]


class EdgeLabeling(ABC):
    """A total-order edge labeler ``λ : {(σ, τ) : σ ◁_B τ} → Q``.

    Labels must be comparable with ``<``/``==`` (tuples of ints/floats work).
    ChainFind picks, among the feasible covers of the current node, one whose
    label is maximal.
    """

    @abstractmethod
    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """The label of the covering edge ``sigma ◁_B tau``."""

    def best_covers(
        self, sigma: Permutation, candidates: Sequence[Permutation]
    ) -> tuple[list[Permutation], tuple | None]:
        """Return the candidates with the maximal label, and that label.

        The length of the returned list minus one is the number of *arbitrary
        choices* the greedy algorithm would have to make at this step — the
        quantity plotted in Figure 2.
        """
        if not candidates:
            return [], None
        labelled = [(self.label(sigma, tau), tau) for tau in candidates]
        best = max(lbl for lbl, _ in labelled)
        return [tau for lbl, tau in labelled if lbl == best], best


class MissRatioLabeling(EdgeLabeling):
    """``λ_e``: label an edge by the destination's cache-hit vector, compared lexicographically.

    Comparing hit vectors lexicographically first compares ``hits_1``, then
    ``hits_2`` and so on — i.e. small cache sizes dominate the decision, which
    is what produces the ties analysed in Section V-B.1.
    """

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """The full hit vector of ``tau``, compared lexicographically."""
        return tuple(int(x) for x in cache_hit_vector(tau))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MissRatioLabeling()"


class RankedMissRatioLabeling(EdgeLabeling):
    """``λ_ψ``: the hit vector permuted by ``ψ`` before lexicographic comparison.

    Parameters
    ----------
    psi:
        A permutation of ``{0, ..., m-1}`` (0-indexed cache-size ranks).  Entry
        ``psi(k)`` selects which cache size is compared ``k``-th:
        ``label_k = hits_{psi(k) + 1}``.  ``psi = identity`` recovers ``λ_e``.
    """

    def __init__(self, psi: Permutation | Sequence[int]):
        self.psi = psi if isinstance(psi, Permutation) else Permutation(psi)

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """The hit vector of ``tau`` permuted by ``psi`` before comparison."""
        vec = cache_hit_vector(tau)
        if vec.size != self.psi.size:
            raise ValueError(f"psi acts on {self.psi.size} cache sizes but the trace has {vec.size}")
        return tuple(int(vec[self.psi(k)]) for k in range(self.psi.size))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankedMissRatioLabeling(psi={list(self.psi.one_line)})"


class TransposedLabeling(EdgeLabeling):
    """Label an edge by the (sorted) pair of *values* exchanged along it.

    This is the standard Coxeter/EL-style labeling of the symmetric group by
    reflections, mentioned in Section V-B.1 as a deterministic tiebreaker.  It
    is a good labeling (edges out of a node get distinct labels) because a
    cover is determined by the value pair it swaps.
    """

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """The sorted pair of values exchanged along the edge."""
        diff = [i for i in range(sigma.size) if sigma[i] != tau[i]]
        if len(diff) != 2:
            raise ValueError("edge does not correspond to a single transposition")
        i, j = diff
        a, b = sorted((sigma[i], sigma[j]))
        # negate so that the lexicographically *largest* label corresponds to
        # swapping the smallest value pair, matching the convention that
        # ChainFind picks max(E); any fixed injective convention works.
        return (-a, -b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TransposedLabeling()"


class RandomTiebreakLabeling(EdgeLabeling):
    """Wrap another labeling and append a random component to break ties.

    The random component is drawn once per (sigma, tau) query from the
    caller-supplied generator, so repeated runs with the same seed reproduce
    the same chain.
    """

    def __init__(self, base: EdgeLabeling, rng=None):
        self.base = base
        self._rng = ensure_rng(rng)

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """The base label with a seeded random tiebreak component appended."""
        return tuple(self.base.label(sigma, tau)) + (float(self._rng.random()),)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomTiebreakLabeling({self.base!r})"


class CompositeLabeling(EdgeLabeling):
    """Compare by a primary labeling, breaking ties with a secondary one.

    E.g. ``CompositeLabeling(MissRatioLabeling(), TransposedLabeling())`` is
    the deterministic-tiebreaker variant discussed in Section V-B.1.
    """

    def __init__(self, primary: EdgeLabeling, secondary: EdgeLabeling):
        self.primary = primary
        self.secondary = secondary

    def label(self, sigma: Permutation, tau: Permutation) -> tuple:
        """The primary label, with the secondary label as a tiebreak."""
        return (
            tuple(self.primary.label(sigma, tau)),
            tuple(self.secondary.label(sigma, tau)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompositeLabeling({self.primary!r}, {self.secondary!r})"


# --------------------------------------------------------------------------- #
# Labeling diagnostics (Definitions 21 & 22)
# --------------------------------------------------------------------------- #
def is_good_labeling(labeling: EdgeLabeling, nodes: Sequence[Permutation]) -> bool:
    """Check Definition 22 on the given nodes: outgoing edge labels are distinct.

    A *good labeling* assigns different labels to the different covers of
    every node, which is exactly the condition for ChainFind to never face an
    arbitrary choice.
    """
    for sigma in nodes:
        ups = covers(sigma)
        labels = [labeling.label(sigma, tau) for tau in ups]
        if len(set(labels)) != len(labels):
            return False
    return True


def chain_labels_nondecreasing(labeling: EdgeLabeling, chain: Sequence[Permutation]) -> bool:
    """Whether the labels along a saturated chain are non-decreasing."""
    labels = [labeling.label(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    return all(labels[k] <= labels[k + 1] for k in range(len(labels) - 1))


def count_nondecreasing_chains(labeling: EdgeLabeling, start: Permutation, end: Permutation) -> int:
    """Count saturated chains from ``start`` to ``end`` whose labels never decrease.

    An EL-labeling requires this count to be exactly one for every interval.
    The search is exponential in the interval length; keep intervals small.
    """
    from .bruhat import bruhat_leq

    if not bruhat_leq(start, end):
        return 0
    if start == end:
        return 1

    def rec(node: Permutation, prev_label: tuple | None) -> int:
        """Count saturated chains from ``node`` whose labels stay increasing."""
        if node == end:
            return 1
        total = 0
        for nxt in covers(node):
            if not bruhat_leq(nxt, end):
                continue
            lbl = labeling.label(node, nxt)
            if prev_label is not None and lbl < prev_label:
                continue
            total += rec(nxt, lbl)
        return total

    return rec(start, None)


def is_el_labeling(
    labeling: EdgeLabeling,
    nodes: Sequence[Permutation],
    *,
    max_interval_length: int = 4,
) -> bool:
    """Check the EL-labeling property (Definition 21) on all short intervals among ``nodes``.

    For every comparable pair ``x < y`` with rank difference at most
    ``max_interval_length`` the number of label-non-decreasing saturated chains
    from ``x`` to ``y`` must be exactly one.  (The full property quantifies
    over all intervals; the bound keeps the diagnostic tractable and is enough
    to *refute* EL-ness, which is how the paper uses it.)
    """
    from .bruhat import bruhat_less

    by_rank = sorted(((p.inversions(), p) for p in nodes), key=lambda ranked: ranked[0])
    for rank_x, x in by_rank:
        for rank_y, y in by_rank:
            gap = rank_y - rank_x
            if gap < 1 or gap > max_interval_length:
                continue
            if not bruhat_less(x, y):
                continue
            if count_nondecreasing_chains(labeling, x, y) != 1:
                return False
    return True
