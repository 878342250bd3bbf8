"""Unit tests for centralized BFS utilities."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    ball,
    bfs,
    bfs_distances,
    bfs_tree_edges,
    gnp_random_graph,
    multi_source_bfs,
    path_graph,
    shortest_path,
)


def relaxed_distances(graph, source, max_depth):
    """Hop distances by relaxing every edge to a fixpoint (no BFS queue)."""
    dist = {source: 0}
    changed = True
    while changed:
        changed = False
        for u, v in graph.edges():
            for a, b in ((u, v), (v, u)):
                if a in dist and dist[a] + 1 < dist.get(b, graph.num_vertices):
                    dist[b] = dist[a] + 1
                    changed = True
    if max_depth is None:
        return dist
    return {v: d for v, d in dist.items() if d <= max_depth}


class TestSingleSource:
    def test_distances_on_path(self, path_6):
        dist = bfs_distances(path_6, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}

    def test_max_depth_truncates(self, path_6):
        dist = bfs_distances(path_6, 0, max_depth=2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_unreachable_vertices_missing(self):
        g = Graph(4, [(0, 1)])
        dist = bfs_distances(g, 0)
        assert 2 not in dist and 3 not in dist

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_distances_match_edge_relaxation(self, seed, max_depth):
        graph = gnp_random_graph(90, 0.03, seed=seed)  # sparse enough to leave stragglers
        for source in (0, 7, 41):
            assert bfs_distances(graph, source, max_depth=max_depth) == relaxed_distances(
                graph, source, max_depth
            )

    def test_parents_form_a_tree(self, grid_5x5):
        result = bfs(grid_5x5, 0)
        for v in range(1, 25):
            parent = result.parent[v]
            assert parent is not None
            assert result.dist[parent] == result.dist[v] - 1
            assert grid_5x5.has_edge(v, parent)

    def test_path_to_source(self, grid_5x5):
        result = bfs(grid_5x5, 0)
        path = result.path_to_source(24)
        assert path[0] == 24 and path[-1] == 0
        assert len(path) == result.dist[24] + 1

    def test_path_to_unreached_raises(self):
        g = Graph(3, [(0, 1)])
        result = bfs(g, 0)
        with pytest.raises(ValueError):
            result.path_to_source(2)

    def test_invalid_source_rejected(self, path_6):
        with pytest.raises(ValueError):
            bfs(path_6, 10)

    def test_tree_edges_count(self, grid_5x5):
        edges = bfs_tree_edges(grid_5x5, 0)
        assert len(edges) == 24
        assert all(grid_5x5.has_edge(u, v) for u, v in edges)


class TestMultiSource:
    def test_two_sources_split_a_path(self):
        g = path_graph(7)
        result = multi_source_bfs(g, [0, 6])
        assert result.dist == [0, 1, 2, 3, 2, 1, 0]
        assert result.source[1] == 0
        assert result.source[5] == 6

    def test_source_tie_break_is_deterministic(self):
        g = path_graph(5)
        first = multi_source_bfs(g, [0, 4])
        second = multi_source_bfs(g, [4, 0])
        assert first.dist == second.dist

    def test_duplicate_sources_tolerated(self, cycle_8):
        result = multi_source_bfs(cycle_8, [3, 3])
        assert result.dist[3] == 0

    def test_no_sources(self, path_6):
        result = multi_source_bfs(path_6, [])
        assert all(d is None for d in result.dist)

    def test_depth_zero_reaches_only_sources(self, cycle_8):
        result = multi_source_bfs(cycle_8, [0, 4], max_depth=0)
        assert [v for v in range(8) if result.reached(v)] == [0, 4]


class TestNeighbourhoods:
    def test_layers(self, cycle_8):
        dist = bfs(cycle_8, 0).dist
        layers = {}
        for v, d in enumerate(dist):
            layers.setdefault(d, []).append(v)
        assert layers[0] == [0]
        assert layers[1] == [1, 7]
        assert layers[4] == [4]

    def test_ball(self, grid_5x5):
        assert ball(grid_5x5, 12, 1) == [7, 11, 12, 13, 17]

    def test_vertices_within_filters_targets(self, grid_5x5):
        targets = [0, 7, 13, 24]
        assert [v for v in ball(grid_5x5, 12, 1) if v in targets] == [7, 13]
        assert ball(grid_5x5, 12, 0) == [12]

    def test_shortest_path(self, grid_5x5):
        path = shortest_path(grid_5x5, 0, 24)
        assert path[0] == 0 and path[-1] == 24
        assert len(path) == 9
        for a, b in zip(path, path[1:]):
            assert grid_5x5.has_edge(a, b)

    def test_shortest_path_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None
