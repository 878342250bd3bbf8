"""Tests for the engine-agnostic superclustering / interconnection helpers."""

from __future__ import annotations

import pytest

from repro.congest import Simulator
from repro.core import (
    deterministic_forest,
    forest_path_edges,
    interconnection_requests,
    spanned_center_roots,
)
from repro.core.cluster_table import ClusterTable
from repro.core.interconnection import (
    count_interconnection_paths,
    interconnection_requests_from_near,
)
from repro.graphs import gnp_random_graph, path_graph
from repro.primitives import run_bfs_forest
from repro.primitives.exploration import centralized_engine_exploration
from repro.primitives.ruling_set import centralized_ruling_set
from repro.primitives.traceback import centralized_traceback_flat

from reference_programs import centralized_bounded_exploration


class TestDeterministicForest:
    def test_matches_distributed_protocol(self, community_graph):
        sources = [0, 25, 40]
        depth = 5
        root_c, dist_c, parent_c = deterministic_forest(community_graph, sources, depth)
        sim = Simulator(community_graph)
        forest = run_bfs_forest(sim, sources, depth=depth)
        assert root_c == forest.root
        assert dist_c == forest.dist
        assert parent_c == forest.parent

    def test_depth_limits_reach(self, path_6):
        root, dist, parent = deterministic_forest(path_6, [0], 2)
        assert root[:3] == [0, 0, 0]
        assert root[3:] == [None, None, None]

    def test_tie_break_prefers_smaller_root(self):
        graph = path_graph(5)
        root, _dist, _parent = deterministic_forest(graph, [0, 4], 10)
        assert root[2] == 0


class TestForestPathEdges:
    def test_path_edges_to_root(self, grid_5x5):
        root, dist, parent = deterministic_forest(grid_5x5, [0], 20)
        edges = forest_path_edges(parent, [24])
        assert len(edges) == dist[24]
        assert all(grid_5x5.has_edge(u, v) for u, v in edges)

    def test_overlapping_paths_share_edges(self, path_6):
        _root, _dist, parent = deterministic_forest(path_6, [0], 10)
        edges = forest_path_edges(parent, [3, 5])
        assert edges == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}


class TestSpannedCenterRoots:
    def test_spanned_center_roots_filters_unspanned(self):
        roots = [0, 0, None, 3, None]
        assert spanned_center_roots([0, 1, 2, 3, 4], roots) == {0: 0, 1: 0, 3: 3}


class TestInterconnectionRequests:
    def test_requests_exclude_self_and_cover_known(self, grid_5x5):
        exploration = centralized_bounded_exploration(grid_5x5, [0, 2, 12], depth=4, cap=10)
        requests = interconnection_requests([0], exploration)
        assert 0 not in requests[0]
        assert set(requests[0]) == {2, 12}

    def test_path_count(self):
        assert count_interconnection_paths({0: [1, 2], 5: [6]}) == 3


class TestPhaseZeroDrivers:
    """Superclustering and interconnection driven directly, in the phase-0
    shape: every vertex a singleton center, depth 1, cap 5."""

    N = 400
    DEPTH = 1

    @pytest.fixture(scope="class")
    def phase(self):
        graph = gnp_random_graph(self.N, 0.02, seed=11)
        exploration = centralized_engine_exploration(graph, range(self.N), depth=self.DEPTH, cap=5)
        return graph, exploration

    def test_superclustering_accounts_for_every_center(self, phase):
        graph, exploration = phase
        table = ClusterTable.singletons(self.N)
        centers = table.centers()
        rs = centralized_ruling_set(graph, exploration.popular, q=2 * self.DEPTH + 1, c=2)
        root, _dist, parent = deterministic_forest(graph, rs.ruling_set, depth=4 * self.DEPTH)
        center_root = spanned_center_roots(centers, root)
        edges = forest_path_edges(parent, sorted(center_root))
        unclustered = table.supercluster(center_root)
        assert table.num_active + len(unclustered) <= self.N
        assert len(center_root) + len(unclustered) == self.N
        assert all(graph.has_edge(u, v) for u, v in edges)

    def test_interconnection_traces_paths(self, phase):
        _graph, exploration = phase
        unclustered_centers = sorted(set(range(self.N)) - exploration.popular)
        requests = interconnection_requests_from_near(
            unclustered_centers, exploration.near_centers
        )
        assert centralized_traceback_flat(exploration, requests)
