"""Inversions by the paper's identity: one distance pass over ``A σ(A)``.

The inversion number :math:`\\ell(\\sigma)` is the central quantity of the
paper: Theorem 2 shows it equals the truncated sum of the cache-hit vector of
the re-traversal :math:`A\\,\\sigma(A)`, so counting inversions *is* measuring
symmetric locality.  This module counts them exactly that way.

Rank the input stably (``r[argsort(a, kind="stable")] = arange(m)``, so
equal values keep their order and a tie is never an inversion) and run the
one stack-distance pass of :mod:`repro.cache.stack_distance` over the trace
``(0, ..., m-1, r_0, ..., r_{m-1})``.  The re-access of ``r_i`` has stack
distance

.. math::

    d_i = m - r_i + \\#\\{j < i : r_j < r_i\\}

(the tail of the first traversal after ``r_i``, plus the smaller items
already re-touched), so every per-position count is a subtraction:

* the Lehmer code (:func:`inversion_vector`) is ``m - d``;
* the left inversion counts (:func:`left_inversion_counts`) are
  ``i + m - d - r``;
* the inversion number (:func:`count_inversions`) is ``m^2 - sum(d)``.

The pass is the C kernel where it builds and its numpy fallback elsewhere, in
:math:`O(m \\log m)` either way; :mod:`repro.core.hits` reads the same
distances as the re-traversal's stack distances.

Many re-traversals share one pass over ``A P_0 A P_1 ... A P_{k-1}``, so the
drivers that sweep :math:`S_m` measure ``_BLOCK_ROWS`` permutations at a time.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .._util import as_int_array, check_nonnegative_int
from ..cache.stack_distance import stack_distances_vectorized
from .permutation import Permutation

__all__ = [
    "count_inversions",
    "inversion_vector",
    "left_inversion_counts",
    "max_inversions",
]


def max_inversions(m: int) -> int:
    """The maximum inversion number in ``S_m``: ``m * (m - 1) / 2``.

    Attained only by the reverse (sawtooth) permutation, which is the top of
    the Bruhat order and has the best symmetric locality.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return m * (m - 1) // 2


def _stable_ranks(sequence: Permutation | Sequence[int]) -> np.ndarray:
    """Rank of each element, ties broken by position: a permutation with the input's strict inversions."""
    if isinstance(sequence, Permutation):
        return sequence.to_array()  # one-line notation is its own ranks
    arr = np.asarray(sequence)
    as_int_array(arr, "sequence")  # validation only: its intp cast would wrap uint64 labels at or above 2**63
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[np.argsort(arr, kind="stable")] = np.arange(arr.size)
    return ranks


# Permutations per distance pass when sweeping S_m: bounds peak memory for m >= 9.
_BLOCK_ROWS = 8192


def _retraversal_distances(perms: np.ndarray) -> np.ndarray:
    """Stack distance ``d_i`` of each access of the re-traversal ``σ(A)`` of ``A = (0, ..., m-1)``.

    ``perms`` is a one-line permutation ``σ`` or a ``(k, m)`` block of them, one per row;
    ``d_i = m - σ_i + #{j < i : σ_j < σ_i}`` row by row.  A block is one pass over
    ``A P_0 A P_1 ...``: after a full traversal of ``A`` the LRU stack is ``A`` reversed
    whatever came before, so each ``P_r`` gets exactly the distances of its own ``A P_r``.
    """
    m = perms.shape[-1]
    trace = np.empty(perms.shape[:-1] + (2 * m,), dtype=np.int64)
    trace[..., :m] = np.arange(m)
    trace[..., m:] = perms
    return stack_distances_vectorized(trace.ravel()).reshape(trace.shape)[..., m:]


def _distance_blocks(rows: Iterable[Sequence[int]], m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(block, distances)`` for the one-line permutations ``rows`` of ``S_m``, ``_BLOCK_ROWS`` at a time."""
    rows = iter(rows)
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        block = np.array(block, dtype=np.int64).reshape(len(block), m)
        yield block, _retraversal_distances(block)


def _symmetric_group_blocks(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_distance_blocks` of all of ``S_m`` in lexicographic order."""
    m = check_nonnegative_int(m, "m")
    return _distance_blocks(itertools.permutations(range(m)), m)


def _ranked_permutations(m: int) -> Iterator[tuple[Permutation, int]]:
    """Every permutation of ``S_m`` with its inversion number, in lexicographic order."""
    for block, distances in _symmetric_group_blocks(m):
        yield from zip(map(Permutation, block.tolist()), (block.shape[1] ** 2 - distances.sum(axis=1)).tolist())


def count_inversions(sequence: Permutation | Sequence[int]) -> int:
    """Number of pairs ``i < j`` with ``sequence[i] > sequence[j]``: ``m^2`` minus the summed re-traversal distances."""
    ranks = _stable_ranks(sequence)
    return ranks.size**2 - int(_retraversal_distances(ranks).sum())


def inversion_vector(sequence: Permutation | Sequence[int]) -> np.ndarray:
    """Per-position right inversion counts (the Lehmer code of the sequence).

    ``result[i] = #{j > i : sequence[j] < sequence[i]}``; the total number of
    inversions is ``result.sum()``.
    """
    ranks = _stable_ranks(sequence)
    return ranks.size - _retraversal_distances(ranks)


def left_inversion_counts(sequence: Permutation | Sequence[int]) -> np.ndarray:
    """Per-position left inversion counts.

    ``result[j] = #{i < j : sequence[i] > sequence[j]}`` — the number of larger
    elements that appear *before* position ``j``.  This is the quantity the
    Snyder proof of Theorem 2 calls :math:`\\ell_a(\\sigma)` (indexed by value),
    and it is also what Algorithm 1 subtracts when converting a reuse interval
    into a reuse distance.
    """
    ranks = _stable_ranks(sequence)
    m = ranks.size
    return np.arange(m) + m - _retraversal_distances(ranks) - ranks
