"""Tests for the distributed depth-bounded Bellman-Ford exploration."""

from __future__ import annotations

import pytest

from repro.congest import Simulator
from repro.graphs import bfs_distances, path_graph
from repro.primitives import run_bellman_ford, run_bfs_forest


def test_matches_bfs_on_single_source(grid_5x5):
    sim = Simulator(grid_5x5)
    result = run_bellman_ford(sim, [0], depth=20)
    reference = bfs_distances(grid_5x5, 0)
    for v in range(25):
        assert result.dist[v] == reference[v]


def test_depth_bound_respected(path_6):
    sim = Simulator(path_6)
    result = run_bellman_ford(sim, [0], depth=3)
    assert result.dist[3] == 3
    assert result.dist[4] is None


def test_multi_source_assigns_nearest_source():
    graph = path_graph(9)
    sim = Simulator(graph)
    result = run_bellman_ford(sim, [0, 8], depth=10)
    assert result.source[1] == 0
    assert result.source[7] == 8


def test_agrees_with_bfs_forest_distances(medium_random):
    sources = [0, 5, 11]
    sim1 = Simulator(medium_random)
    bf = run_bellman_ford(sim1, sources, depth=6)
    sim2 = Simulator(medium_random)
    forest = run_bfs_forest(sim2, sources, depth=6)
    assert bf.dist == forest.dist


def test_parents_are_edges(cycle_8):
    sim = Simulator(cycle_8)
    result = run_bellman_ford(sim, [0], depth=8)
    for v in range(8):
        if result.parent[v] is not None:
            assert cycle_8.has_edge(v, result.parent[v])


def test_invalid_inputs_rejected(path_6):
    sim = Simulator(path_6)
    with pytest.raises(ValueError):
        run_bellman_ford(sim, [99], depth=1)
    with pytest.raises(ValueError):
        run_bellman_ford(sim, [0], depth=-2)


def test_nominal_rounds_are_depth(grid_5x5):
    sim = Simulator(grid_5x5)
    result = run_bellman_ford(sim, [0], depth=12)
    assert result.nominal_rounds == 12
    assert sim.ledger.nominal_rounds == 12
