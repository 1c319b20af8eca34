"""The (strong) Bruhat order on the symmetric group.

The paper orders re-traversals by locality through the Bruhat order
:math:`\\leq_B` on :math:`S_m`: moving up one covering step
:math:`\\sigma \\lhd_B \\tau` adds exactly one inversion and (Theorem 3)
improves the miss ratio at exactly one cache size.  This module provides

* the comparison :func:`bruhat_leq` via the Ehresmann tableau criterion,
* the covering relation :func:`is_covering` and the enumeration of covers /
  cocovers used by the covering graph and by ChainFind,
* the left *weak* order for comparison experiments (the weak order only allows
  adjacent transpositions on the right, i.e. swapping neighbouring accesses).

All functions accept :class:`~repro.core.permutation.Permutation` objects.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .permutation import Permutation

__all__ = [
    "bruhat_leq",
    "bruhat_less",
    "is_covering",
    "covers",
    "cocovers",
    "covering_transpositions",
    "weak_order_leq",
    "weak_covers",
    "interval",
]


def bruhat_leq(sigma: Permutation, tau: Permutation) -> bool:
    """Return ``True`` when ``sigma <=_B tau`` in the (strong) Bruhat order.

    Implements the Ehresmann tableau criterion: for every prefix length ``k``,
    sort the first ``k`` entries of each one-line word increasingly; then
    ``sigma <= tau`` iff every entry of the sorted ``sigma``-prefix is ``<=``
    the corresponding entry of the sorted ``tau``-prefix.

    Complexity ``O(m^2 log m)`` — fine for the group sizes the covering graph
    is enumerated at.
    """
    if sigma.size != tau.size:
        raise ValueError(f"permutations act on different sizes ({sigma.size} vs {tau.size})")
    m = sigma.size
    if m == 0:
        return True
    a = sigma.to_array()
    b = tau.to_array()
    for k in range(1, m):
        pa = np.sort(a[:k])
        pb = np.sort(b[:k])
        if np.any(pa > pb):
            return False
    return True


def bruhat_less(sigma: Permutation, tau: Permutation) -> bool:
    """Strict Bruhat comparison ``sigma <_B tau``."""
    return sigma != tau and bruhat_leq(sigma, tau)


def is_covering(sigma: Permutation, tau: Permutation) -> bool:
    """Return ``True`` when ``sigma ◁_B tau`` (``tau`` covers ``sigma``).

    Equivalent characterisation used here: ``tau`` is obtained from ``sigma``
    by swapping the values at two positions ``i < j`` with
    ``sigma(i) < sigma(j)`` and ``ℓ(tau) = ℓ(sigma) + 1`` — i.e. no position
    ``k`` strictly between ``i`` and ``j`` holds a value strictly between
    ``sigma(i)`` and ``sigma(j)``.
    """
    if sigma.size != tau.size:
        raise ValueError(f"permutations act on different sizes ({sigma.size} vs {tau.size})")
    diff = [i for i in range(sigma.size) if sigma[i] != tau[i]]
    if len(diff) != 2:
        return False
    i, j = diff
    if sigma[i] != tau[j] or sigma[j] != tau[i]:
        return False
    lo, hi = (i, j) if i < j else (j, i)
    if sigma[lo] > sigma[hi]:
        return False  # the swap removes an inversion; it moves down, not up
    a, b = sigma[lo], sigma[hi]
    return not any(a < sigma[k] < b for k in range(lo + 1, hi))


def covering_transpositions(sigma: Permutation) -> Iterator[tuple[int, int]]:
    """Yield position pairs ``(i, j)``, ``i < j``, whose swap covers ``sigma``.

    Swapping the values at such a pair yields ``tau`` with
    ``sigma ◁_B tau``.  There are at most ``O(m^2)`` candidates but the number
    of actual covers is bounded by the number of non-inversions.
    """
    m = sigma.size
    word = sigma.one_line
    for i in range(m):
        for j in range(i + 1, m):
            if word[i] >= word[j]:
                continue
            a, b = word[i], word[j]
            if any(a < word[k] < b for k in range(i + 1, j)):
                continue
            yield (i, j)


def covers(sigma: Permutation) -> list[Permutation]:
    """All permutations ``tau`` with ``sigma ◁_B tau`` (one Bruhat step up).

    These are exactly the re-orderings reachable by ChainFind from ``sigma``
    in a single move; each has one more inversion and, by Theorem 3, a miss
    ratio curve that is pointwise no worse and strictly better at exactly one
    cache size.
    """
    return [sigma.swap_positions(i, j) for i, j in covering_transpositions(sigma)]


def cocovers(sigma: Permutation) -> list[Permutation]:
    """All permutations ``tau`` with ``tau ◁_B sigma`` (one Bruhat step down).

    Complementing the values (``v -> m - 1 - v``) turns the down-swaps of
    ``sigma`` into the up-swaps of the complement, at the same positions.
    """
    complement = Permutation([sigma.size - 1 - v for v in sigma.one_line])
    return [sigma.swap_positions(i, j) for i, j in covering_transpositions(complement)]


def weak_order_leq(sigma: Permutation, tau: Permutation) -> bool:
    """Right weak order comparison ``sigma <=_R tau``.

    ``sigma <=_R tau`` iff the inversion *set* of ``sigma`` (as pairs of
    values) is contained in that of ``tau``.  The weak order is a subrelation
    of the Bruhat order; it is included for ablation experiments on restricted
    reordering moves (only adjacent accesses may be exchanged).
    """
    if sigma.size != tau.size:
        raise ValueError(f"permutations act on different sizes ({sigma.size} vs {tau.size})")

    def value_inversions(p: Permutation) -> set[tuple[int, int]]:
        """The value-space inversion set ``{(a, b) : a < b, a after b}`` of ``p``."""
        inv = p.inverse()
        return {(a, b) for a in range(p.size) for b in range(a + 1, p.size) if inv[a] > inv[b]}

    return value_inversions(sigma) <= value_inversions(tau)


def weak_covers(sigma: Permutation) -> list[Permutation]:
    """Permutations one step up in the right weak order (adjacent swaps only)."""
    return [sigma.swap_positions(i, i + 1) for i in range(sigma.size - 1) if sigma[i] < sigma[i + 1]]


def interval(sigma: Permutation, tau: Permutation) -> list[Permutation]:
    """All permutations ``x`` with ``sigma <=_B x <=_B tau``.

    Enumerated by breadth-first search through covers, filtered by the
    comparison criterion.  Intended for small intervals (the poset-complex
    analyses of the appendix); cost grows with the interval size.
    """
    if not bruhat_leq(sigma, tau):
        return []
    found = {sigma}
    frontier = [sigma]
    top = tau.inversions()
    while frontier:
        nxt = []
        for x in frontier:
            if x.inversions() >= top:
                continue
            for y in covers(x):
                if y not in found and bruhat_leq(y, tau):
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(found, key=lambda p: (p.inversions(), p.one_line))
