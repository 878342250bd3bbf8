"""Centralized breadth-first-search utilities.

These are the sequential counterparts of the distributed primitives in
:mod:`repro.primitives`; the centralized reference engine of the spanner
algorithm and all verification code are built on them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .graph import Graph


class BFSResult:
    """Result of a (multi-source) BFS: distances, parents and source labels.

    Attributes
    ----------
    dist:
        ``dist[v]`` is the distance from the closest source, or ``None`` if
        ``v`` was not reached (beyond ``max_depth`` or disconnected).
    parent:
        ``parent[v]`` is the BFS-tree parent of ``v`` (``None`` for sources and
        unreached vertices).
    source:
        ``source[v]`` is the source vertex whose BFS tree contains ``v``.
    """

    __slots__ = ("dist", "parent", "source")

    def __init__(
        self,
        dist: List[Optional[int]],
        parent: List[Optional[int]],
        source: List[Optional[int]],
    ) -> None:
        self.dist = dist
        self.parent = parent
        self.source = source

    def reached(self, v: int) -> bool:
        """Return whether vertex ``v`` was reached by the exploration."""
        return self.dist[v] is not None

    def path_to_source(self, v: int) -> List[int]:
        """Return the BFS-tree path from ``v`` up to its source (inclusive)."""
        if self.dist[v] is None:
            raise ValueError(f"vertex {v} was not reached by the BFS")
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def tree_edges(self) -> List[Tuple[int, int]]:
        """Return all BFS-tree edges (child, parent) pairs, canonicalized."""
        edges = []
        for v, p in enumerate(self.parent):
            if p is not None:
                edges.append((v, p) if v <= p else (p, v))
        return edges


def bfs(graph: Graph, source: int, max_depth: Optional[int] = None) -> BFSResult:
    """Single-source BFS, optionally truncated at ``max_depth``."""
    return multi_source_bfs(graph, [source], max_depth=max_depth)


def multi_source_bfs(
    graph: Graph,
    sources: Iterable[int],
    max_depth: Optional[int] = None,
) -> BFSResult:
    """Multi-source BFS from ``sources``, optionally truncated at ``max_depth``.

    Ties between sources are broken by BFS order: the first source to reach a
    vertex claims it; among same-round arrivals, the source listed first (and
    then the lower parent ID) wins, which keeps the procedure deterministic.

    The sweep runs over the graph's frozen CSR snapshot (sorted flat-array
    rows) with dense level-synchronous frontiers, which visits neighbours in
    exactly the same order as the historical ``sorted(neighbors(u))`` queue
    implementation while skipping the per-visit sort and set iteration.
    """
    n = graph.num_vertices
    dist: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    source_of: List[Optional[int]] = [None] * n

    frontier: List[int] = []
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"source {s} is out of range [0, {n})")
        if dist[s] is None:
            dist[s] = 0
            source_of[s] = s
            frontier.append(s)

    rows = graph.csr().rows()
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            su = source_of[u]
            for v in rows[u]:
                if dist[v] is None:
                    dist[v] = depth
                    parent[v] = u
                    source_of[v] = su
                    push(v)
        frontier = next_frontier

    return BFSResult(dist, parent, source_of)


def _flat_bfs_distances(
    graph: Graph, sources: Iterable[int], max_depth: Optional[int] = None
) -> Tuple[List[int], List[int]]:
    """Dense distance-only (multi-source) BFS kernel over the CSR snapshot.

    Returns ``(dist, order)`` where ``dist[v]`` is an ``int`` distance or
    ``-1`` for unreached vertices and ``order`` lists the reached vertices in
    visit order.  This skips all parent/source bookkeeping and is the kernel
    behind every distance-only query.
    """
    n = graph.num_vertices
    dist = [-1] * n
    frontier: List[int] = []
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"source {s} is out of range [0, {n})")
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    order = list(frontier)
    rows = graph.csr().rows()
    depth = 0
    extend = order.extend
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            for v in rows[u]:
                if dist[v] < 0:
                    dist[v] = depth
                    push(v)
        extend(next_frontier)
        frontier = next_frontier
    return dist, order


def bfs_distances(
    graph: Graph, source: int, max_depth: Optional[int] = None
) -> Dict[int, int]:
    """Return ``{v: dist(source, v)}`` for all reached vertices (ascending ``v``)."""
    dist, order = _flat_bfs_distances(graph, (source,), max_depth=max_depth)
    return {v: dist[v] for v in sorted(order)}


def ball(graph: Graph, center: int, radius: int) -> List[int]:
    """Return the sorted list of vertices at distance at most ``radius``."""
    return sorted(bfs_distances(graph, center, max_depth=radius).keys())


def shortest_path(graph: Graph, u: int, v: int) -> Optional[List[int]]:
    """Return one shortest ``u``-``v`` path (as a vertex list) or ``None``."""
    result = bfs(graph, u)
    if result.dist[v] is None:
        return None
    path = result.path_to_source(v)
    path.reverse()
    return path


def bfs_tree_edges(graph: Graph, source: int, max_depth: Optional[int] = None) -> List[Tuple[int, int]]:
    """Return the edges of a BFS tree rooted at ``source``."""
    return bfs(graph, source, max_depth=max_depth).tree_edges()
