"""Feasibility-constrained re-ordering (Definition 7 and Section VI-A2).

Real programs cannot re-order accesses arbitrarily: data and control
dependences restrict the feasible traces to the linear extensions of a partial
order.  The paper models this with a boolean predicate ``Y(T)`` and notes that
ChainFind must stay inside the feasible region; the deep-learning discussion
similarly distinguishes unordered data (sets), totally ordered data (novels)
and partially ordered data (sentences whose internal word order is fixed).

This module provides

* :class:`DependencyDAG` — a partial order over the ``m`` data items, with
  constructors for the common shapes (chains, blocks, random DAGs, layered
  orders),
* feasibility checks and a predicate factory usable directly as the ``Y``
  argument of :func:`repro.core.chainfind.chain_find`,
* exact and greedy maximisation of the inversion number over linear
  extensions (the constrained form of Problem 2):
  :func:`best_feasible_extension` (bitmask DP, exact for ``m ≲ 20``) and
  :func:`greedy_feasible_extension` (linear-time heuristic),
* linear-extension counting and uniform sampling for the ablation benchmarks.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .._util import check_nonnegative_int, check_positive_int, ensure_rng
from .permutation import Permutation

__all__ = [
    "DependencyDAG",
    "is_feasible",
    "feasibility_predicate",
    "best_feasible_extension",
    "greedy_feasible_extension",
    "count_linear_extensions",
    "random_linear_extension",
]


@dataclass(frozen=True)
class DependencyDAG:
    """A partial order over ``m`` data items given by precedence edges.

    An edge ``(u, v)`` means item ``u`` must be accessed before item ``v`` in
    any feasible re-traversal.  The canonical first traversal accesses items in
    increasing label order, so a DAG whose edges all satisfy ``u < v`` keeps
    the original program order feasible.

    The class is immutable; predecessor/successor sets are precomputed for
    cheap feasibility checks.
    """

    size: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, size: int, edges: Iterable[tuple[int, int]] = ()):
        size = check_nonnegative_int(size, "size")
        normalised = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < size and 0 <= v < size):
                raise ValueError(f"edge ({u}, {v}) references items outside 0..{size - 1}")
            if u == v:
                raise ValueError(f"self-dependency ({u}, {v}) is not allowed")
            normalised.add((u, v))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "edges", frozenset(normalised))
        self._check_acyclic()

    # -------------------------------------------------------------- #
    # Constructors for common dependence shapes
    # -------------------------------------------------------------- #
    @classmethod
    def unconstrained(cls, size: int) -> "DependencyDAG":
        """No dependences: every permutation is feasible (unordered data / a set)."""
        return cls(size, ())

    @classmethod
    def total_order(cls, size: int) -> "DependencyDAG":
        """A chain ``0 → 1 → … → m-1``: only the identity re-traversal is feasible."""
        return cls(size, [(i, i + 1) for i in range(size - 1)])

    @classmethod
    def blocks(cls, block_sizes: Sequence[int]) -> "DependencyDAG":
        """Fixed internal order within each block, free order across blocks.

        Models the paper's "sentences may be permuted but the words within a
        sentence may not" example.  Items are numbered consecutively block by
        block.
        """
        edges = []
        start = 0
        for b in block_sizes:
            b = check_positive_int(b, "block size")
            edges.extend((i, i + 1) for i in range(start, start + b - 1))
            start += b
        return cls(start, edges)

    @classmethod
    def layered(cls, layer_sizes: Sequence[int]) -> "DependencyDAG":
        """Every item of layer ``k`` must precede every item of layer ``k+1``.

        Models partially ordered data such as time-stamped particle samples:
        the time steps are ordered, the particles within a step are not.
        """
        edges = []
        start = 0
        prev_layer: list[int] = []
        for size_k in layer_sizes:
            size_k = check_positive_int(size_k, "layer size")
            layer = list(range(start, start + size_k))
            edges.extend((u, v) for u in prev_layer for v in layer)
            prev_layer = layer
            start += size_k
        return cls(start, edges)

    @classmethod
    def random(
        cls,
        size: int,
        edge_probability: float,
        rng: np.random.Generator | int | None = None,
    ) -> "DependencyDAG":
        """Random DAG whose edges respect the original program order (``u < v``).

        Each forward pair ``(u, v)``, ``u < v``, becomes a dependence with the
        given probability, so the identity is always feasible and the expected
        edge count is ``p · m(m-1)/2``.
        """
        size = check_nonnegative_int(size, "size")
        if not 0.0 <= edge_probability <= 1.0:
            raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
        generator = ensure_rng(rng)
        edges = [(u, v) for u in range(size) for v in range(u + 1, size) if generator.random() < edge_probability]
        return cls(size, edges)

    # -------------------------------------------------------------- #
    # Structure
    # -------------------------------------------------------------- #
    def _check_acyclic(self) -> None:
        order = self._topological_order()
        if order is None:
            raise ValueError("dependency edges contain a cycle; no feasible trace exists")

    def _topological_order(self) -> list[int] | None:
        indegree = [0] * self.size
        succ = self.successors()
        for _, v in self.edges:
            indegree[v] += 1
        ready = [i for i in range(self.size) if indegree[i] == 0]
        out = []
        while ready:
            node = ready.pop()
            out.append(node)
            for nxt in succ[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        return out if len(out) == self.size else None

    def predecessors(self) -> list[set[int]]:
        """``predecessors()[v]`` is the set of items that must precede item ``v``."""
        preds: list[set[int]] = [set() for _ in range(self.size)]
        for u, v in self.edges:
            preds[v].add(u)
        return preds

    def successors(self) -> list[set[int]]:
        """``successors()[u]`` is the set of items that must follow item ``u``."""
        succs: list[set[int]] = [set() for _ in range(self.size)]
        for u, v in self.edges:
            succs[u].add(v)
        return succs

    def predecessor_masks(self) -> list[int]:
        """Predecessor sets as bitmasks (used by the exact DP)."""
        masks = [0] * self.size
        for u, v in self.edges:
            masks[v] |= 1 << u
        return masks

    def to_networkx(self):
        """The DAG as a :class:`networkx.DiGraph` (for visualisation / analysis)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.size))
        graph.add_edges_from(self.edges)
        return graph


# ------------------------------------------------------------------ #
# Feasibility checks
# ------------------------------------------------------------------ #
def is_feasible(sigma: Permutation, dag: DependencyDAG) -> bool:
    """Whether the re-traversal ``B = sigma(A)`` respects every dependence.

    ``sigma(i)`` is the item accessed at re-traversal position ``i``, so the
    dependence ``u → v`` requires ``sigma^{-1}(u) < sigma^{-1}(v)`` — i.e.
    ``sigma`` must be a linear extension of the partial order.
    """
    if sigma.size != dag.size:
        raise ValueError(f"permutation size {sigma.size} does not match DAG size {dag.size}")
    position = sigma.inverse()
    return all(position[u] < position[v] for u, v in dag.edges)


def feasibility_predicate(dag: DependencyDAG):
    """A predicate ``Y(sigma)`` suitable for :func:`repro.core.chainfind.chain_find`."""

    def predicate(sigma: Permutation) -> bool:
        """Whether ``sigma`` respects every dependency of the DAG."""
        return is_feasible(sigma, dag)

    return predicate


# ------------------------------------------------------------------ #
# Optimisation over linear extensions
# ------------------------------------------------------------------ #
_EXACT_DP_LIMIT = 22


def best_feasible_extension(dag: DependencyDAG) -> tuple[Permutation, int]:
    """The feasible re-ordering with maximal inversion number (exact, bitmask DP).

    The DP state is the set ``S`` of items already scheduled; placing item
    ``v`` next adds ``#{u ∈ S : u > v}`` inversions, and ``v`` may be placed
    only when all its predecessors are in ``S``.  The recurrence visits each
    of the ``2^m`` states once, so the exact search is limited to
    ``m <= 22``; use :func:`greedy_feasible_extension` beyond that.

    Returns the optimal permutation and its inversion number.
    """
    m = dag.size
    if m > _EXACT_DP_LIMIT:
        raise ValueError(
            f"exact search limited to m <= {_EXACT_DP_LIMIT} items (got {m}); "
            "use greedy_feasible_extension for larger instances"
        )
    if m == 0:
        return Permutation([]), 0
    pred_masks = dag.predecessor_masks()
    full = (1 << m) - 1

    # best[S] = max inversions achievable by a feasible arrangement of exactly
    # the items in S placed in the first |S| positions; choice[S] = last item.
    best = np.full(1 << m, -1, dtype=np.int64)
    choice = np.full(1 << m, -1, dtype=np.int16)
    best[0] = 0

    # popcount table for "how many scheduled items are greater than v"
    for state in range(1 << m):
        if best[state] < 0:
            continue
        base = int(best[state])
        for v in range(m):
            bit = 1 << v
            if state & bit:
                continue
            if (pred_masks[v] & state) != pred_masks[v]:
                continue
            # items already scheduled with a larger label than v
            higher = state >> (v + 1)
            gain = bin(higher).count("1")
            nxt = state | bit
            if base + gain > best[nxt]:
                best[nxt] = base + gain
                choice[nxt] = v

    if best[full] < 0:
        raise RuntimeError("no linear extension found; the DAG validation should prevent this")

    # reconstruct
    order: list[int] = []
    state = full
    while state:
        v = int(choice[state])
        order.append(v)
        state &= ~(1 << v)
    order.reverse()
    sigma = Permutation(order)
    return sigma, int(best[full])


def greedy_feasible_extension(dag: DependencyDAG) -> Permutation:
    """Greedy heuristic: always schedule the largest-labelled available item.

    Placing large labels early maximises the immediate inversion gain against
    the smaller labels that must still follow.  The result is always feasible;
    on unconstrained inputs it recovers the sawtooth optimum, and the
    feasibility ablation benchmark measures its gap to the exact DP on random
    DAGs.
    """
    m = dag.size
    preds = dag.predecessors()
    remaining_pred_counts = [len(p) for p in preds]
    succs = dag.successors()
    order: list[int] = []
    heap = [-v for v in range(m) if remaining_pred_counts[v] == 0]
    heapq.heapify(heap)
    while heap:
        v = -heapq.heappop(heap)
        order.append(v)
        for w in succs[v]:
            remaining_pred_counts[w] -= 1
            if remaining_pred_counts[w] == 0:
                heapq.heappush(heap, -w)
    if len(order) != m:
        raise RuntimeError("greedy scheduling failed to place every item")
    return Permutation(order)


def count_linear_extensions(dag: DependencyDAG) -> int:
    """Number of feasible re-orderings (linear extensions), by bitmask DP.

    Exponential in ``m``; limited to the same size as the exact optimiser.
    """
    m = dag.size
    if m > _EXACT_DP_LIMIT:
        raise ValueError(f"counting limited to m <= {_EXACT_DP_LIMIT} items (got {m})")
    if m == 0:
        return 1
    pred_masks = dag.predecessor_masks()
    counts = np.zeros(1 << m, dtype=np.int64)
    counts[0] = 1
    for state in range(1 << m):
        c = int(counts[state])
        if c == 0:
            continue
        for v in range(m):
            bit = 1 << v
            if state & bit or (pred_masks[v] & state) != pred_masks[v]:
                continue
            counts[state | bit] += c
    return int(counts[(1 << m) - 1])


def random_linear_extension(dag: DependencyDAG, rng: np.random.Generator | int | None = None) -> Permutation:
    """A random feasible re-ordering (not exactly uniform; each step picks uniformly among available items)."""
    generator = ensure_rng(rng)
    m = dag.size
    preds = dag.predecessors()
    succs = dag.successors()
    remaining = [len(p) for p in preds]
    available = [v for v in range(m) if remaining[v] == 0]
    order: list[int] = []
    while available:
        idx = int(generator.integers(len(available)))
        v = available.pop(idx)
        order.append(v)
        for w in succs[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                available.append(w)
    if len(order) != m:
        raise RuntimeError("random extension failed; DAG should be acyclic")
    return Permutation(order)
