"""Reuse distance, cache-hit vectors and miss-ratio curves of re-traversals.

This module is the executable form of Section IV of the paper.  For a
periodic trace :math:`T = A\\,\\sigma(A)` over ``m`` distinct items it computes

* the *stack distance* of every access in the re-traversal
  (:func:`stack_distances`, Mattson's LRU stack depth) and the *reuse
  distance* (:func:`reuse_distances`, one less: the number of **distinct**
  items accessed strictly between the two accesses of the same item),
  both read off the one distance pass over ``A σ(A)`` that also counts the
  inversions (:mod:`repro.core.inversions`),
* the reuse-distance histogram and cache-hit vector of Algorithm 1
  (:func:`reuse_distance_histogram`, :func:`cache_hit_vector`): one
  ``bincount`` of those distances, checked against a line-by-line faithful
  transcription of the paper's pseudocode (:func:`algorithm1_paper`),
* miss-ratio curves (:func:`miss_ratio_curve`) under the two conventions
  described in ``DESIGN.md``,
* executable checks of Theorem 2, Corollary 1 and Theorem 3
  (:func:`theorem2_deficit`, :func:`corollary1_deficit`,
  :func:`theorem3_compare`).

Conventions
-----------
``hits_c`` (for cache size ``c``) counts the accesses of the re-traversal
whose stack distance is at most ``c`` — exactly the accesses that hit in a
fully-associative LRU cache of capacity ``c``.  The first traversal ``A`` is
cold and never hits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .inversions import _retraversal_distances, max_inversions
from .permutation import Permutation

__all__ = [
    "LocalityProfile",
    "reuse_distances",
    "stack_distances",
    "reuse_distance_histogram",
    "cache_hit_vector",
    "algorithm1_paper",
    "hits",
    "miss_ratio",
    "miss_ratio_curve",
    "total_reuse",
    "locality_profile",
    "theorem2_deficit",
    "corollary1_deficit",
    "theorem3_compare",
]


def _as_permutation(sigma: Permutation | Sequence[int]) -> Permutation:
    return sigma if isinstance(sigma, Permutation) else Permutation(sigma)


# --------------------------------------------------------------------------- #
# Reuse / stack distances
# --------------------------------------------------------------------------- #
def reuse_distances(sigma: Permutation | Sequence[int]) -> np.ndarray:
    """Reuse distance of each access of the re-traversal ``B = sigma(A)``.

    ``result[i]`` is the number of distinct items accessed strictly between the
    first-traversal access of item ``sigma(i)`` and its re-access at position
    ``i`` of ``B``.  With the canonical first traversal ``A = (0, 1, ..., m-1)``
    this is

    .. math::

        rd(i) = (m - 1 - \\sigma(i)) + \\#\\{j < i : \\sigma(j) < \\sigma(i)\\}

    the first term counting the tail of ``A`` after the item and the second the
    *new* (smaller-valued) items seen in ``B`` before position ``i``.  Items
    larger than ``sigma(i)`` seen in ``B`` are not new — they already occurred
    in the tail of ``A`` — which is exactly the "repeats" subtraction of the
    paper's Algorithm 1.
    """
    return stack_distances(sigma) - 1


def stack_distances(sigma: Permutation | Sequence[int]) -> np.ndarray:
    """Mattson LRU stack distance (reuse distance + 1) of each re-traversal access: one pass over ``A sigma(A)``."""
    return _retraversal_distances(_as_permutation(sigma).to_array())


def _histograms(distances: np.ndarray) -> np.ndarray:
    """Per-row stack-distance histograms of re-traversal distances: one ``bincount`` over ``row * m + d - 1``."""
    rows = np.atleast_2d(distances)
    offsets = np.arange(rows.shape[0])[:, None] * rows.shape[1]
    return np.bincount((offsets + rows - 1).ravel(), minlength=rows.size).reshape(distances.shape)


def _hit_vectors(distances: np.ndarray) -> np.ndarray:
    """Per-row cache-hit vectors: the row-wise ``cumsum`` of :func:`_histograms`."""
    return _histograms(distances).cumsum(axis=-1)


def reuse_distance_histogram(sigma: Permutation | Sequence[int]) -> np.ndarray:
    """Histogram of stack distances of the re-traversal.

    ``result[d - 1]`` is the number of accesses of ``B = sigma(A)`` whose stack
    distance equals ``d`` (``d`` runs from 1 to ``m``).  The histogram sums to
    ``m``.
    """
    return _histograms(stack_distances(sigma))


def cache_hit_vector(sigma: Permutation | Sequence[int]) -> np.ndarray:
    """The cache-hit vector ``hits_C = (hits_1, ..., hits_m)``.

    ``hits_c`` is the number of re-traversal accesses that hit in a
    fully-associative LRU cache of size ``c`` — equivalently the number of
    accesses with stack distance at most ``c``.  It is the cumulative sum of
    the reuse-distance histogram, exactly as in the last line of Algorithm 1.

    >>> cache_hit_vector(Permutation.reverse(4))          # sawtooth4
    array([1, 2, 3, 4])
    >>> cache_hit_vector(Permutation.identity(4))          # cyclic4
    array([0, 0, 0, 4])
    """
    return _hit_vectors(stack_distances(sigma))


def algorithm1_paper(sigma: Permutation | Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line transcription of the paper's Algorithm 1 (1-indexed ranks).

    Returns ``(rdh, chv)``: the reuse-distance histogram and the cache-hit
    vector.  The implementation mirrors the pseudocode — rank
    ``r(a) = m - a + 1`` for 1-indexed item ``a``, a running binary "seen"
    vector ``c`` indexed by rank, and the increment index
    ``r - 1 + i - repeats`` — so that the vectorised
    :func:`reuse_distance_histogram` / :func:`cache_hit_vector` pair can be
    validated against the published algorithm in the tests.
    """
    sigma = _as_permutation(sigma)
    m = sigma.size
    rdh = np.zeros(m, dtype=np.int64)
    chv = np.zeros(m, dtype=np.int64)
    seen_by_rank = np.zeros(m + 2, dtype=np.int64)  # 1-indexed ranks
    word_one_indexed = [v + 1 for v in sigma.one_line]
    for i, k in enumerate(word_one_indexed, start=1):  # i is the 1-indexed position in sigma(A)
        r = m - k + 1
        seen_by_rank[r] = 1
        repeats = int(seen_by_rank[1:r].sum())
        index = r - 1 + i - repeats  # stack distance, 1-indexed
        rdh[index - 1] += 1
        chv[index - 1] += 1
    # hits at size c include hits at smaller sizes
    chv = np.cumsum(chv)
    return rdh, chv


# --------------------------------------------------------------------------- #
# Hits / miss ratios
# --------------------------------------------------------------------------- #
def hits(sigma: Permutation | Sequence[int], cache_size: int) -> int:
    """Number of re-traversal accesses hitting in an LRU cache of ``cache_size``."""
    vec = cache_hit_vector(sigma)
    return int(vec[min(cache_size, vec.size) - 1]) if cache_size > 0 and vec.size else 0


def miss_ratio(
    sigma: Permutation | Sequence[int],
    cache_size: int,
    *,
    convention: str = "full",
) -> float:
    """Miss ratio of the periodic trace ``A sigma(A)`` at one cache size.

    Parameters
    ----------
    convention:
        ``"full"`` divides misses by all ``2m`` accesses (the cold first
        traversal always misses); ``"retraversal"`` divides by the ``m``
        re-traversal accesses only.
    """
    curve = _miss_ratio_curves(stack_distances(sigma), convention=convention, max_cache_size=None)
    return float(curve[min(cache_size, curve.size) - 1]) if cache_size > 0 else 1.0


def miss_ratio_curve(
    sigma: Permutation | Sequence[int],
    *,
    convention: str = "full",
    max_cache_size: int | None = None,
) -> np.ndarray:
    """Miss-ratio curve ``mr(c)`` for ``c = 1 .. max_cache_size`` (default ``m``).

    This is the ``MRC(T)`` of Definition 2, restricted to the interesting
    range ``1 <= c <= m`` (beyond ``m`` the curve is flat).
    """
    return _miss_ratio_curves(stack_distances(sigma), convention=convention, max_cache_size=max_cache_size)


def _miss_ratio_curves(distances: np.ndarray, *, convention: str, max_cache_size: int | None) -> np.ndarray:
    """:func:`miss_ratio_curve` of each row of re-traversal distances (one row, or a ``(k, m)`` block)."""
    m = distances.shape[-1]
    if m == 0:
        raise ValueError("miss ratio curve undefined for the empty trace")
    limit = m if max_cache_size is None else min(int(max_cache_size), m)
    if limit < 1:
        raise ValueError(f"max_cache_size must be at least 1, got {max_cache_size}")
    vec = _hit_vectors(distances)[..., :limit].astype(np.float64)
    if convention == "full":
        return 1.0 - vec / (2 * m)
    if convention == "retraversal":
        return 1.0 - vec / m
    raise ValueError(f"unknown convention {convention!r}; use 'full' or 'retraversal'")


def total_reuse(sigma: Permutation | Sequence[int]) -> int:
    """Total reuse (sum of stack distances) of the re-traversal.

    This is the cost measure used in Section VI-A2: the cyclic order of an
    ``n x m`` matrix costs ``(nm)^2`` while sawtooth costs ``nm(nm+1)/2``.
    Smaller is better.
    """
    # m^2 - ℓ(sigma), read off the one distance pass that counts ℓ
    return int(stack_distances(sigma).sum())


# --------------------------------------------------------------------------- #
# Aggregated profile
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LocalityProfile:
    """All locality statistics of one re-traversal, bundled for reporting.

    Attributes
    ----------
    sigma:
        The re-traversal permutation.
    inversions:
        The Bruhat length ``ℓ(sigma)``.
    hit_vector:
        ``hits_C`` for cache sizes ``1..m``.
    histogram:
        Stack-distance histogram.
    mrc_full, mrc_retraversal:
        Miss-ratio curves under the two denominators.
    total_reuse:
        Sum of stack distances.
    """

    sigma: Permutation
    inversions: int
    hit_vector: tuple[int, ...]
    histogram: tuple[int, ...]
    mrc_full: tuple[float, ...]
    mrc_retraversal: tuple[float, ...]
    total_reuse: int

    @property
    def size(self) -> int:
        """Number of distinct data items ``m``."""
        return self.sigma.size

    def normalized_locality(self) -> float:
        """``ℓ(sigma) / max_inversions(m)`` in ``[0, 1]``; 1 is sawtooth (best)."""
        top = max_inversions(self.size)
        return self.inversions / top if top else 0.0


def locality_profile(sigma: Permutation | Sequence[int]) -> LocalityProfile:
    """Compute the full :class:`LocalityProfile` of a re-traversal."""
    sigma = _as_permutation(sigma)
    distances = stack_distances(sigma)
    hist = _histograms(distances)
    vec = np.cumsum(hist)
    m = sigma.size
    ell = m * m - int(distances.sum())
    mrc_full = tuple(float(x) for x in (1.0 - vec / (2 * m)))
    mrc_re = tuple(float(x) for x in (1.0 - vec / m))
    return LocalityProfile(
        sigma=sigma,
        inversions=ell,
        hit_vector=tuple(int(x) for x in vec),
        histogram=tuple(int(x) for x in hist),
        mrc_full=mrc_full,
        mrc_retraversal=mrc_re,
        total_reuse=m * m - ell,
    )


# --------------------------------------------------------------------------- #
# Theorem checks
# --------------------------------------------------------------------------- #
def theorem2_deficit(sigma: Permutation | Sequence[int]) -> int:
    """Difference between the two sides of Theorem 2 (zero when the theorem holds).

    Theorem 2: :math:`\\sum_{c=1}^{m-1} hits_c(\\sigma) = \\ell(\\sigma)`.

    Both sides come from one distance pass (``Σ_{c<m} hits_c = Σ(m - d) = m^2 - Σd = ℓ``), so this
    checks the code, not the theorem; the tests check that against an independent pairwise count.
    """
    distances = stack_distances(sigma)
    m = distances.size
    lhs = int(_hit_vectors(distances)[:-1].sum())
    return lhs - (m * m - int(distances.sum()))


def corollary1_deficit(sigma: Permutation | Sequence[int]) -> int:
    """Difference between the two sides of Corollary 1 (zero when it holds).

    Corollary 1: :math:`\\sum_{c=1}^{m} hits_c(\\sigma) = m + \\ell(\\sigma)`.
    Like :func:`theorem2_deficit`, both sides come from one distance pass.
    """
    distances = stack_distances(sigma)
    m = distances.size
    lhs = int(_hit_vectors(distances).sum())
    return lhs - (m + m * m - int(distances.sum()))


def theorem3_compare(sigma: Permutation, tau: Permutation) -> dict[str, object]:
    """Compare the miss-ratio curves of a covering pair, as Theorem 3 predicts.

    For ``sigma ◁_B tau`` the paper's Theorem 3 states the miss ratio of
    ``tau`` is no worse at every cache size and strictly better at exactly
    one.  **Reproduction note**: this is true when the covering step swaps
    *adjacent* positions (a weak-order cover — one stack distance shrinks by
    exactly one), but it fails for general Bruhat covers that swap distant
    positions: the swapped pair's stack distances can move in opposite
    directions, e.g. ``(2,1,4,3) ◁_B (4,1,2,3)`` in ``S_4`` where ``hits_3``
    drops from 2 to 1 while ``hits_1`` and ``hits_2`` each gain 1.  What does
    survive for every Bruhat cover is Theorem 2's aggregate form: the *summed*
    hit vector below cache size ``m`` grows by exactly one (``hit_gain == 1``).
    The test-suite and ``EXPERIMENTS.md`` record this discrepancy.

    The return value reports, for the given pair (covering or not):

    ``dominates``
        ``True`` when ``mr(c; tau) <= mr(c; sigma)`` for all ``c <= m``.
    ``improved_sizes``
        Cache sizes where ``tau`` strictly improves.
    ``hit_gain``
        Total extra hits of ``tau`` over ``sigma`` across ``c = 1..m-1``.
    """
    if sigma.size != tau.size:
        raise ValueError("permutations must act on the same number of items")
    vec_s = cache_hit_vector(sigma)
    vec_t = cache_hit_vector(tau)
    diff = vec_t - vec_s
    improved = [int(c) for c in (np.nonzero(diff > 0)[0] + 1)]
    return {
        "dominates": bool(np.all(diff >= 0)),
        "improved_sizes": improved,
        "hit_gain": int(diff[:-1].sum()) if sigma.size else 0,
    }
