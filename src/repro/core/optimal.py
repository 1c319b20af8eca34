"""Optimal re-ordering and repeated-traversal scheduling (Theorem 4, Section VI-A2).

The unconstrained answer to Problem 2 is simple: the sawtooth (reverse)
permutation maximises the inversion number and therefore the locality of a
single re-traversal.  The interesting content is

* **Theorem 4** — if ``σ`` is the best re-ordering of ``A`` then the best
  schedule for traversing the data ``k`` times is the alternation
  ``A σ(A) A σ(A) …``: permute on every other traversal and return to the
  original order in between.  :func:`alternating_schedule` builds that
  schedule, :func:`schedule_trace` materialises its access trace, and
  :func:`schedule_total_reuse` evaluates it.
* the **matrix traversal comparison** of Section VI-A2 —
  :func:`matrix_traversal_costs` reproduces the ``(nm)²`` vs ``nm(nm+1)/2``
  total-reuse comparison between cyclic and sawtooth re-traversal of an
  ``n × m`` weight matrix.
* **constrained optimality** — when only a subset of permutations is feasible
  the best re-ordering is the feasible permutation of maximal inversion
  number; see :mod:`repro.core.feasibility` for the search and
  :func:`best_reordering` here for the dispatch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from .._util import check_positive_int
from .hits import total_reuse
from .permutation import Permutation

__all__ = [
    "optimal_reordering",
    "best_reordering",
    "alternating_schedule",
    "schedule_trace",
    "schedule_total_reuse",
    "naive_schedule_total_reuse",
    "matrix_traversal_costs",
]


def optimal_reordering(m: int) -> Permutation:
    """The unconstrained optimal re-ordering of ``m`` items: the sawtooth permutation."""
    m = check_positive_int(m, "m")
    return Permutation.reverse(m)


def best_reordering(
    m: int,
    *,
    feasible: Iterable[Permutation] | None = None,
    feasibility: Callable[[Permutation], bool] | None = None,
) -> Permutation:
    """The feasible re-ordering with the largest inversion number.

    Parameters
    ----------
    m:
        Number of data items.
    feasible:
        Explicit collection of feasible permutations to choose from.  When
        given, the best of these is returned.
    feasibility:
        Alternatively, a predicate; the unconstrained optimum (sawtooth) is
        returned when it is feasible, otherwise the caller should use
        :func:`repro.core.feasibility.best_feasible_extension`, which searches
        dependency-constrained spaces efficiently.

    Raises
    ------
    ValueError
        If no feasible permutation is supplied or found.
    """
    if feasible is not None:
        candidates = list(feasible)
        if not candidates:
            raise ValueError("no feasible permutations supplied")
        return max(candidates, key=lambda p: p.inversions())
    sawtooth = optimal_reordering(m)
    if feasibility is None or feasibility(sawtooth):
        return sawtooth
    raise ValueError(
        "sawtooth is infeasible; use repro.core.feasibility.best_feasible_extension "
        "to search a dependency-constrained space"
    )


def alternating_schedule(sigma: Permutation, traversals: int) -> list[Permutation]:
    """The Theorem-4 schedule for ``traversals`` passes over the data.

    Returns the permutation applied on each traversal: the identity on pass 0,
    ``σ`` on pass 1, identity on pass 2, and so on.  By Theorem 4 this
    alternation is optimal when ``σ`` is the optimal single re-ordering,
    because reuse distance is symmetric under reversal of the trace — the
    locality of ``σ(A) A`` equals that of ``A σ(A)``.
    """
    traversals = check_positive_int(traversals, "traversals")
    identity = Permutation.identity(sigma.size)
    return [identity if k % 2 == 0 else sigma for k in range(traversals)]


def schedule_trace(schedule: Sequence[Permutation], *, items: Sequence[int] | None = None) -> np.ndarray:
    """Materialise the access trace of a multi-traversal schedule.

    Each traversal accesses every item once, in the order given by that
    traversal's permutation applied to the canonical order ``0..m-1`` (or to
    the supplied ``items`` labels).
    """
    if not schedule:
        return np.zeros(0, dtype=np.intp)
    m = schedule[0].size
    if any(p.size != m for p in schedule):
        raise ValueError("all schedule entries must act on the same number of items")
    base = np.arange(m, dtype=np.intp) if items is None else np.asarray(items, dtype=np.intp)
    if base.size != m:
        raise ValueError(f"items has length {base.size}, expected {m}")
    return np.concatenate([base[p.to_array()] for p in schedule])


def schedule_total_reuse(schedule: Sequence[Permutation]) -> int:
    """Total reuse (sum of stack distances) across consecutive traversal pairs.

    Between traversal ``k`` (ordered by ``π_k``) and traversal ``k+1`` (ordered
    by ``π_{k+1}``) the relative re-traversal permutation is
    ``π_{k+1} ∘ π_k^{-1}`` after relabelling, so the pair contributes
    ``total_reuse(π_{k+1} π_k^{-1})``.  The first traversal is cold and
    contributes ``m`` compulsory misses, not counted here.
    """
    return sum(total_reuse(nxt * prev.inverse()) for prev, nxt in zip(schedule, schedule[1:]))


def naive_schedule_total_reuse(m: int, traversals: int) -> int:
    """Total reuse of the naive cyclic schedule (identity on every traversal)."""
    m = check_positive_int(m, "m")
    traversals = check_positive_int(traversals, "traversals")
    return (traversals - 1) * m * m


def matrix_traversal_costs(n: int, m: int) -> dict[str, int]:
    """Reproduce the Section VI-A2 matrix-access comparison.

    An ``n × m`` weight matrix (e.g. an MLP linear layer) of ``nm`` elements is
    traversed twice.  The cyclic order gives every element a stack distance of
    ``nm`` for a total reuse of ``(nm)²``; the sawtooth order gives stack
    distances ``1, 2, ..., nm`` for a total of ``nm(nm+1)/2`` — the leading
    term is halved.

    Returns
    -------
    dict with keys ``elements``, ``cyclic``, ``sawtooth``, ``savings_ratio``.
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    elements = n * m
    cyclic = total_reuse(Permutation.identity(elements))
    sawtooth = total_reuse(Permutation.reverse(elements))
    assert cyclic == elements * elements
    assert sawtooth == elements * (elements + 1) // 2
    return {
        "elements": elements,
        "cyclic": cyclic,
        "sawtooth": sawtooth,
        "savings_ratio": cyclic / sawtooth,
    }
