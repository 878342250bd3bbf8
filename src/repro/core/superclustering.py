"""Engine-agnostic helpers for the superclustering step (paper Section 2.2).

The superclustering step of phase ``i``:

1. detect the popular cluster centers ``W_i`` (Algorithm 1);
2. compute a ``(2 delta_i + 1, c * 2 delta_i)``-ruling set ``RS_i`` for ``W_i``;
3. grow a BFS forest ``F_i`` of depth ``c * 2 delta_i`` rooted at ``RS_i``;
4. every cluster whose center is spanned by ``F_i`` is merged into the
   supercluster of its tree's root, and the forest path from the root to that
   center is added to the spanner.

This module provides the forest-side helpers shared by the centralized and
distributed engines -- a centralized forest construction that uses exactly
the same deterministic tie-breaking as the distributed protocol (so both
engines agree on the forest), the root-assignment restriction and the
forest-path edge collection.  The cluster merge/retire bookkeeping itself is
a single batched sweep on the flat-array
:class:`~repro.core.cluster_table.ClusterTable`
(:meth:`~repro.core.cluster_table.ClusterTable.supercluster`);
:func:`build_superclusters` below is the legacy frozenset-based reference of
that step, kept for tests and API-boundary use.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from .clusters import Cluster, ClusterCollection


def deterministic_forest(
    graph: Graph, sources: Iterable[int], depth: int
) -> Tuple[List[Optional[int]], List[Optional[int]], List[Optional[int]]]:
    """Depth-bounded multi-source BFS forest with the distributed tie-breaking.

    Returns ``(root, dist, parent)`` lists.  A vertex at distance ``d`` adopts
    the lexicographically smallest ``(root, parent)`` among its neighbours at
    distance ``d - 1`` -- exactly the rule of the distributed protocol in
    :mod:`repro.primitives.bfs_forest`, so the two produce identical forests.
    """
    n = graph.num_vertices
    source_list = sorted(set(sources))
    root: List[Optional[int]] = [None] * n
    dist: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    for s in source_list:
        root[s] = s
        dist[s] = 0

    rows = graph.csr().rows()
    # Single BFS sweep.  A vertex at distance ``d`` must adopt the
    # lexicographically smallest ``(root[u], u)`` among its
    # distance-``(d-1)`` neighbours; expanding each level in ascending
    # ``(root, u)`` order and letting the first toucher win assigns exactly
    # that minimum -- no per-candidate tuple comparisons, no separate
    # distance pass.  Level 0 (the sorted sources, root[s] == s) is already
    # in that order; every later level is sorted before it expands.
    frontier: List[int] = source_list
    d = 0
    while frontier and d < depth:
        d += 1
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            ru = root[u]
            for v in rows[u]:
                if dist[v] is None:
                    dist[v] = d
                    root[v] = ru
                    parent[v] = u
                    push(v)
        # Order the level by (root[v], v) without a per-element lambda tuple:
        # plain sort by id, then a stable sort on the root alone (a C-level
        # key).  Vertices were pushed grouped by their parent's root, which is
        # non-decreasing along the expanded frontier, so the second pass runs
        # over an almost-sorted key sequence.
        next_frontier.sort()
        next_frontier.sort(key=root.__getitem__)
        frontier = next_frontier
    return root, dist, parent


def forest_path_edges(
    parent: List[Optional[int]], targets: Iterable[int]
) -> Set[Tuple[int, int]]:
    """Union of the forest paths from each target up to its root."""
    edges: Set[Tuple[int, int]] = set()
    add = edges.add
    for target in targets:
        current = target
        nxt = parent[current]
        while nxt is not None:
            add((current, nxt) if current <= nxt else (nxt, current))
            current = nxt
            nxt = parent[current]
    return edges


def build_superclusters(
    collection: ClusterCollection,
    center_root: Dict[int, int],
) -> Tuple[ClusterCollection, ClusterCollection]:
    """Split ``P_i`` into the new superclusters ``P_{i+1}`` and the leftovers ``U_i``.

    ``center_root`` maps every *spanned* cluster center to the root of its
    forest tree; the new supercluster centered at a root is the union of the
    vertex sets of all its spanned constituent clusters (the forest path
    itself is **not** part of the cluster -- it only enters the spanner).
    """
    clusters_by_root: Dict[int, List[Cluster]] = {}
    unclustered = ClusterCollection()
    for cluster in collection:
        root = center_root.get(cluster.center)
        if root is None:
            unclustered.add(cluster)
        else:
            clusters_by_root.setdefault(root, []).append(cluster)
    next_collection = ClusterCollection()
    for root in sorted(clusters_by_root.keys()):
        next_collection.add(Cluster.merge(root, clusters_by_root[root]))
    return next_collection, unclustered


def spanned_center_roots(
    centers: Iterable[int],
    root: List[Optional[int]],
) -> Dict[int, int]:
    """Restrict a forest's root assignment to the cluster centers it spans."""
    assignment: Dict[int, int] = {}
    for center in centers:
        r = root[center]
        if r is not None:
            assignment[center] = r
    return assignment
