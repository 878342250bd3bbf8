"""Cross-check of the single-source distances against networkx."""

from __future__ import annotations

import pytest

networkx = pytest.importorskip("networkx")

from repro.graphs import gnp_random_graph, single_source_distances


def test_distances_agree_with_networkx():
    g = gnp_random_graph(30, 0.15, seed=9)
    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(range(g.num_vertices))
    nx_graph.add_edges_from(g.edges())
    ours = [single_source_distances(g, s) for s in g.vertices()]
    theirs = dict(networkx.all_pairs_shortest_path_length(nx_graph))
    for u in range(30):
        for v in range(30):
            if v in theirs.get(u, {}):
                assert ours[u][v] == theirs[u][v]
            else:
                assert ours[u][v] == float("inf")
