"""Mahonian combinatorics and the appendix VIII-F characterisations.

The appendix of the paper observes three facts about the rank structure of the
locality poset, all reproduced here as executable functions:

1. The number of permutations of :math:`S_m` with exactly ``n`` inversions is
   the Mahonian number ``M(m, n)`` (:func:`mahonian_number`,
   :func:`mahonian_row`).
2. The cache-hit vectors attainable at inversion level ``n`` correspond to the
   integer partitions of ``n`` into at most ``m - 1`` parts of size at most
   ``m - 1`` (:func:`hit_vector_partition`, :func:`partitions_at_level`).
3. The integral of the *normalised truncated miss vector* is the same for all
   permutations with equal inversion number and decreases linearly from 1 at
   the identity to 1/2 at the sawtooth, with slope ``1 / (m (m - 1))`` per
   inversion (:func:`truncated_miss_integral`).

The module also provides direct samplers/enumerators of permutations with a
prescribed inversion number, used by the figure-1 benchmark for sizes where
full enumeration of :math:`S_m` is too large.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache

import numpy as np

from .._util import check_nonnegative_int, ensure_rng
from .hits import _miss_ratio_curves, stack_distances
from .inversions import _distance_blocks, max_inversions
from .permutation import Permutation

__all__ = [
    "mahonian_number",
    "mahonian_row",
    "mahonian_triangle",
    "permutations_with_inversions",
    "random_permutation_with_inversions",
    "hit_vector_partition",
    "partitions_at_level",
    "partition_counts_at_level",
    "integer_partitions",
    "truncated_miss_integral",
    "truncated_miss_integral_by_level",
]


# --------------------------------------------------------------------------- #
# Mahonian numbers
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _mahonian_row_cached(m: int) -> tuple[int, ...]:
    """Row ``m`` of the Mahonian triangle computed by polynomial convolution.

    The generating function is the Gaussian factorial
    :math:`\\prod_{k=1}^{m} (1 + q + \\dots + q^{k-1})`.
    """
    row = np.array([1], dtype=object)
    for k in range(2, m + 1):
        factor = np.ones(k, dtype=object)
        row = np.convolve(row, factor)
    return tuple(int(x) for x in row)


def mahonian_row(m: int) -> tuple[int, ...]:
    """All Mahonian numbers ``M(m, 0), ..., M(m, m(m-1)/2)`` for ``S_m``.

    The entries sum to ``m!`` and the sequence is symmetric and unimodal.
    """
    m = check_nonnegative_int(m, "m")
    if m == 0:
        return (1,)
    return _mahonian_row_cached(m)


def mahonian_number(m: int, n: int) -> int:
    """Number of permutations of ``S_m`` with exactly ``n`` inversions."""
    m = check_nonnegative_int(m, "m")
    n = check_nonnegative_int(n, "n")
    row = mahonian_row(m)
    return row[n] if n < len(row) else 0


def mahonian_triangle(max_m: int) -> list[tuple[int, ...]]:
    """Rows ``1 .. max_m`` of the Mahonian triangle."""
    max_m = check_nonnegative_int(max_m, "max_m")
    return [mahonian_row(m) for m in range(1, max_m + 1)]


# --------------------------------------------------------------------------- #
# Enumeration / sampling at fixed inversion number
# --------------------------------------------------------------------------- #
def permutations_with_inversions(m: int, n: int) -> Iterator[Permutation]:
    """Yield every permutation of ``S_m`` with exactly ``n`` inversions.

    Enumerates Lehmer codes ``(c_0, ..., c_{m-1})`` with ``0 <= c_i <= m-1-i``
    summing to ``n`` — avoiding a full ``m!`` sweep, so the cost is
    proportional to ``M(m, n)`` times ``m``.
    """
    m = check_nonnegative_int(m, "m")
    n = check_nonnegative_int(n, "n")
    if n > max_inversions(m):
        return

    code = [0] * m

    def rec(i: int, remaining: int) -> Iterator[Permutation]:
        """Yield permutations extending ``code`` with ``remaining`` inversions."""
        if i == m:
            if remaining == 0:
                yield Permutation.from_lehmer(code)
            return
        # maximum inversions still placeable from position i+1 onwards
        tail_max = max_inversions(m - i - 1)
        hi = min(m - 1 - i, remaining)
        lo = max(0, remaining - tail_max)
        for c in range(lo, hi + 1):
            code[i] = c
            yield from rec(i + 1, remaining - c)
        code[i] = 0

    yield from rec(0, n)


def _randint_below(generator: np.random.Generator, n: int) -> int:
    """A uniform integer in ``[0, n)`` for arbitrarily large ``n``.

    Mahonian counts overflow 64-bit integers already around ``m ≈ 30``, so the
    weighted Lehmer-digit sampler cannot use ``Generator.integers`` directly;
    this helper assembles the value from 63-bit chunks with rejection
    sampling, staying exactly uniform.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n <= (1 << 63) - 1:
        return int(generator.integers(n))
    bits = n.bit_length()
    while True:
        value = 0
        remaining = bits
        while remaining > 0:
            take = min(remaining, 63)
            value = (value << take) | int(generator.integers(1 << take))
            remaining -= take
        if value < n:
            return value


def random_permutation_with_inversions(m: int, n: int, rng: np.random.Generator | int | None = None) -> Permutation:
    """Draw a uniformly random permutation of ``S_m`` with exactly ``n`` inversions.

    Samples the Lehmer code left to right; the conditional weight of choosing
    ``c`` at position ``i`` is the number of completions, which is a Mahonian
    number of the remaining suffix — so the draw is exactly uniform over the
    ``M(m, n)`` permutations at that level.
    """
    m = check_nonnegative_int(m, "m")
    n = check_nonnegative_int(n, "n")
    if n > max_inversions(m):
        raise ValueError(f"S_{m} has no permutation with {n} inversions")
    generator = ensure_rng(rng)
    code = []
    remaining = n
    for i in range(m):
        suffix_size = m - 1 - i  # also the largest value of this Lehmer digit
        # completions of each digit c; a digit with none has weight 0 and is never picked
        digits = range(min(suffix_size, remaining) + 1)
        cumulative = list(itertools.accumulate(mahonian_number(suffix_size, remaining - c) for c in digits))
        code.append(bisect.bisect_right(cumulative, _randint_below(generator, cumulative[-1])))
        remaining -= code[-1]
    return Permutation.from_lehmer(code)


# --------------------------------------------------------------------------- #
# Hit vectors as integer partitions
# --------------------------------------------------------------------------- #
def integer_partitions(
    n: int, *, max_part: int | None = None, max_parts: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the integer partitions of ``n`` in decreasing-part canonical form.

    Optional bounds restrict the largest part and the number of parts, which is
    what the hit-vector characterisation needs (parts ≤ m-1, at most m-1
    parts — a part of size ``p`` is an access with stack distance ``m - p``...
    see :func:`hit_vector_partition`).
    """
    n = check_nonnegative_int(n, "n")
    cap = n if max_part is None else min(max_part, n)

    def rec(remaining: int, largest: int, length: int) -> Iterator[tuple[int, ...]]:
        """Yield partitions of ``remaining`` with parts at most ``largest``."""
        if remaining == 0:
            yield ()
            return
        if max_parts is not None and length >= max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - part, part, length + 1):
                yield (part,) + rest

    yield from rec(n, cap, 0)


def hit_vector_partition(sigma: Permutation | Sequence[int]) -> tuple[int, ...]:
    """The integer partition associated with a re-traversal's hit vector.

    Each re-traversal access with stack distance ``d < m`` contributes a part
    of size ``m - d`` (the number of cache sizes at which that access hits
    below the trivially-hitting size ``m``).  The parts sum to
    :math:`\\sum_{c=1}^{m-1} hits_c = \\ell(\\sigma)` (Theorem 2), so the hit
    vector of a permutation at inversion level ``n`` *is* an integer partition
    of ``n`` with parts at most ``m - 1`` — the appendix VIII-F observation.
    """
    return _partitions(stack_distances(sigma))[0]


def _partitions(distances: np.ndarray) -> list[tuple[int, ...]]:
    """:func:`hit_vector_partition` of each row of re-traversal distances: ``m - d`` over ``d < m``, descending."""
    rows = distances.shape[-1] - np.sort(np.atleast_2d(distances), axis=1)
    return [tuple(row[:parts]) for row, parts in zip(rows.tolist(), (rows > 0).sum(axis=1).tolist())]


def _level_partitions(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """The hit-vector partition of each permutation of ``S_m`` with ``n`` inversions, in enumeration order."""
    for _, distances in _distance_blocks((sigma.one_line for sigma in permutations_with_inversions(m, n)), m):
        yield from _partitions(distances)


def partitions_at_level(m: int, n: int) -> set[tuple[int, ...]]:
    """Distinct hit-vector partitions realised by permutations of ``S_m`` at level ``n``.

    Enumerates the permutations with ``n`` inversions (not the whole group),
    maps each to its partition, and returns the distinct set.
    """
    return set(_level_partitions(m, n))


def partition_counts_at_level(m: int, n: int) -> dict[tuple[int, ...], int]:
    """How many permutations at inversion level ``n`` realise each partition.

    Counting these per-partition multiplicities in closed form is the open
    problem stated at the end of the appendix; this function provides the
    empirical counts.  The values sum to the Mahonian number ``M(m, n)``.
    """
    return dict(Counter(_level_partitions(m, n)))  # keys in first-seen order


# --------------------------------------------------------------------------- #
# Integral of the normalised truncated miss vector
# --------------------------------------------------------------------------- #
def truncated_miss_integral(sigma: Permutation | Sequence[int]) -> float:
    """Mean of the normalised truncated miss vector of a re-traversal.

    The *truncated* miss vector drops the last entry (cache size ``m``, where
    every re-traversal access hits); each remaining entry is the re-traversal
    miss ratio ``1 - hits_c / m`` for ``c = 1 .. m-1``.  Averaging (a discrete
    integral over the normalised cache-size axis) gives

    .. math::

       1 - \\frac{\\ell(\\sigma)}{m (m - 1)}

    which equals 1 for the identity and 1/2 for the sawtooth and drops by
    ``1 / (m (m - 1))`` per inversion — the appendix VIII-F claim.
    """
    return float(_truncated_miss_integrals(stack_distances(sigma)))


def _truncated_miss_integrals(distances: np.ndarray) -> np.ndarray:
    """:func:`truncated_miss_integral` of each row of re-traversal distances (one row, or a ``(k, m)`` block)."""
    m = distances.shape[-1]
    if m < 2:
        raise ValueError("truncated miss integral requires at least two items")
    return _miss_ratio_curves(distances, convention="retraversal", max_cache_size=m - 1).mean(axis=-1)


def truncated_miss_integral_by_level(m: int) -> dict[int, float]:
    """The (constant) truncated-miss integral at every inversion level of ``S_m``.

    Uses the closed form implied by Theorem 2; the experiment benchmark checks
    the enumerated values agree with this.
    """
    m = check_nonnegative_int(m, "m")
    if m < 2:
        raise ValueError("requires m >= 2")
    return {n: 1.0 - n / (m * (m - 1)) for n in range(max_inversions(m) + 1)}
