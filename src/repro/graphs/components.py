"""Connected-component utilities.

Spanners must preserve connectivity component-by-component; the verification
code uses these helpers to compare the component structure of a graph and of a
candidate spanner.
"""

from __future__ import annotations

from typing import List

from .bfs import bfs_distances
from .graph import Graph


def connected_components(graph: Graph) -> List[List[int]]:
    """Return connected components as sorted vertex lists, ordered by minimum vertex."""
    seen = [False] * graph.num_vertices
    components: List[List[int]] = []
    for v in graph.vertices():
        if seen[v]:
            continue
        members = sorted(bfs_distances(graph, v).keys())
        for u in members:
            seen[u] = True
        components.append(members)
    return components


def is_connected(graph: Graph) -> bool:
    """Return whether the graph is connected (graphs with <2 vertices count as connected)."""
    if graph.num_vertices <= 1:
        return True
    return len(connected_components(graph)) == 1


def num_components(graph: Graph) -> int:
    """Return the number of connected components."""
    return len(connected_components(graph))


def same_component_structure(graph: Graph, subgraph: Graph) -> bool:
    """Return whether ``subgraph`` has exactly the same components as ``graph``.

    This is the connectivity-preservation requirement for spanners: a
    ``(1+eps, beta)``-spanner keeps every connected pair connected.
    """
    if graph.num_vertices != subgraph.num_vertices:
        return False
    return component_labels_as_partition(graph) == component_labels_as_partition(subgraph)


def component_labels_as_partition(graph: Graph) -> List[frozenset]:
    """Return the component structure as a sorted list of frozensets."""
    return sorted(
        (frozenset(members) for members in connected_components(graph)),
        key=lambda s: min(s) if s else -1,
    )
