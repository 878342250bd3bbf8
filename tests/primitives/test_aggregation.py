"""Tests for broadcast / convergecast primitives."""

from __future__ import annotations

from repro.congest import Simulator
from repro.graphs import Graph, path_graph, star_graph
from repro.primitives import count_vertices, run_broadcast, run_convergecast


def test_broadcast_reaches_component_only():
    graph = Graph(5, [(0, 1), (1, 2)])
    sim = Simulator(graph)
    result = run_broadcast(sim, 0, value=42)
    assert result.received == [True, True, True, False, False]


def test_broadcast_value_propagates(star_graph_fixture=None):
    graph = star_graph(4)
    sim = Simulator(graph)
    result = run_broadcast(sim, 2, value="hello")
    assert all(result.received)


def test_broadcast_invalid_source():
    import pytest

    sim = Simulator(path_graph(3))
    with pytest.raises(ValueError):
        run_broadcast(sim, 7, value=1)


def test_convergecast_sum(grid_5x5):
    sim = Simulator(grid_5x5)
    result = run_convergecast(sim, root=0, local_values=[1] * 25, combine=lambda a, b: a + b)
    assert result.value == 25


def test_convergecast_max(cycle_8):
    sim = Simulator(cycle_8)
    values = list(range(8))
    result = run_convergecast(sim, root=3, local_values=values, combine=max)
    assert result.value == 7


def test_convergecast_only_counts_roots_component():
    graph = Graph(6, [(0, 1), (1, 2), (3, 4)])
    sim = Simulator(graph)
    result = run_convergecast(sim, root=0, local_values=[1] * 6, combine=lambda a, b: a + b)
    assert result.value == 3


def test_convergecast_requires_value_per_vertex():
    import pytest

    sim = Simulator(path_graph(4))
    with pytest.raises(ValueError):
        run_convergecast(sim, 0, [1, 2], combine=max)


def test_count_vertices_helper(grid_5x5):
    sim = Simulator(grid_5x5)
    assert count_vertices(sim, 12) == 25


def test_count_vertices_on_disconnected_graph():
    graph = Graph(7, [(0, 1), (2, 3), (3, 4)])
    sim = Simulator(graph)
    assert count_vertices(sim, 2) == 3
    sim2 = Simulator(graph)
    assert count_vertices(sim2, 6) == 1
