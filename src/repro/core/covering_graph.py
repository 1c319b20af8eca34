"""The Bruhat covering graph ``H = (S_m, ◁_B)`` as an explicit graded DAG.

Section III-C of the paper defines the digraph ``H`` whose vertices are the
permutations of :math:`S_m` and whose edges are the Bruhat covering relations.
ChainFind (Algorithm 2) walks this graph greedily; Figure 2 measures how often
its edge labeling leaves the greedy choice ambiguous.

For moderate ``m`` (the paper evaluates up to :math:`S_{11}` for single chains
and :math:`S_5` for full enumeration) the graph can be materialised explicitly;
this module builds it as a :class:`networkx.DiGraph` with useful annotations
and provides graded-poset utilities (rank levels, saturated/maximal chains,
rank generating function).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import networkx as nx

from .._util import check_nonnegative_int
from .bruhat import covers, covering_transpositions
from .inversions import _ranked_permutations, max_inversions
from .permutation import Permutation

__all__ = [
    "build_covering_graph",
    "rank_levels",
    "rank_sizes",
    "saturated_chains",
    "count_maximal_chains",
    "is_graded",
    "random_saturated_chain",
]


def build_covering_graph(m: int, *, include_transposition_labels: bool = True) -> nx.DiGraph:
    """Materialise the covering graph of ``S_m``.

    Nodes are :class:`~repro.core.permutation.Permutation` objects carrying a
    ``rank`` attribute (their inversion number).  Edges point *up* the order
    (from ``sigma`` to each ``tau`` covering it) and, when requested, carry a
    ``positions`` attribute with the swapped position pair.

    The graph has ``m!`` nodes; callers should keep ``m <= 7`` or so for full
    enumeration (5040 nodes for ``m = 7``).
    """
    m = check_nonnegative_int(m, "m")
    if m > 9:
        raise ValueError(
            f"refusing to materialise S_{m} ({math.factorial(m)} nodes); "
            "use the lazy covers() enumeration instead"
        )
    graph = nx.DiGraph(m=m)
    for sigma, rank in _ranked_permutations(m):
        graph.add_node(sigma, rank=rank)
    for sigma in list(graph.nodes):
        for i, j in covering_transpositions(sigma):
            labels = {"positions": (i, j)} if include_transposition_labels else {}
            graph.add_edge(sigma, sigma.swap_positions(i, j), **labels)
    return graph


def rank_levels(graph: nx.DiGraph) -> dict[int, list[Permutation]]:
    """Group the nodes of a covering graph by rank (inversion number)."""
    levels: dict[int, list[Permutation]] = {}
    for node, data in graph.nodes(data=True):
        levels.setdefault(data["rank"], []).append(node)
    return {rank: sorted(nodes, key=lambda p: p.one_line) for rank, nodes in sorted(levels.items())}


def rank_sizes(graph: nx.DiGraph) -> dict[int, int]:
    """Number of permutations at each rank — the Mahonian numbers ``M(m, k)``."""
    return {rank: len(nodes) for rank, nodes in rank_levels(graph).items()}


def is_graded(graph: nx.DiGraph) -> bool:
    """Check the graded-poset property: every edge increases rank by exactly one."""
    return all(graph.nodes[v]["rank"] == graph.nodes[u]["rank"] + 1 for u, v in graph.edges)


def saturated_chains(
    graph: nx.DiGraph,
    start: Permutation,
    end: Permutation,
    *,
    limit: int | None = None,
) -> Iterator[list[Permutation]]:
    """Yield saturated chains from ``start`` to ``end`` following covering edges.

    A saturated chain visits one node per rank between the two endpoints.  The
    number of such chains can be enormous (for the full interval of ``S_m`` it
    is counted by the Stanley hook-length style formulas), so an optional
    ``limit`` caps the enumeration.
    """
    if start not in graph or end not in graph:
        raise KeyError("start and end must be nodes of the covering graph")
    count = 0
    stack: list[tuple[Permutation, list[Permutation]]] = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == end:
            yield path
            count += 1
            if limit is not None and count >= limit:
                return
            continue
        for nxt in graph.successors(node):
            stack.append((nxt, path + [nxt]))


def count_maximal_chains(graph: nx.DiGraph, start: Permutation, end: Permutation) -> int:
    """Count saturated chains from ``start`` to ``end`` by dynamic programming.

    Runs in time linear in the number of edges of the interval, unlike the
    explicit enumeration of :func:`saturated_chains`.
    """
    if start not in graph or end not in graph:
        raise KeyError("start and end must be nodes of the covering graph")
    # process nodes by decreasing distance from end using rank order
    memo: dict[Permutation, int] = {end: 1}

    def chains_from(node: Permutation) -> int:
        """Number of saturated chains from ``node`` to ``end`` (memoised)."""
        if node in memo:
            return memo[node]
        total = sum(chains_from(nxt) for nxt in graph.successors(node))
        memo[node] = total
        return total

    return chains_from(start)


def random_saturated_chain(
    m: int,
    rng,
    *,
    start: Permutation | None = None,
) -> list[Permutation]:
    """Sample a saturated chain from ``start`` (default: identity) to the top.

    Each step picks a uniformly random cover; no explicit graph is built, so
    this works for large ``m`` (cost ``O(m^4)`` in the worst case: ``O(m^2)``
    steps each enumerating ``O(m^2)`` candidate covers).
    """
    from .._util import ensure_rng

    generator = ensure_rng(rng)
    current = start if start is not None else Permutation.identity(m)
    if current.size != m:
        raise ValueError(f"start permutation has size {current.size}, expected {m}")
    chain = [current]
    top = max_inversions(m)
    while current.inversions() < top:
        options = covers(current)
        current = options[int(generator.integers(len(options)))]
        chain.append(current)
    return chain
