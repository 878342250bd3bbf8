"""Unit tests for connected-component utilities."""

from __future__ import annotations

from repro.graphs import (
    Graph,
    connected_components,
    is_connected,
    num_components,
    same_component_structure,
)


def test_single_component(grid_5x5):
    assert is_connected(grid_5x5)
    assert num_components(grid_5x5) == 1
    assert connected_components(grid_5x5) == [list(range(25))]


def test_isolated_vertices_are_their_own_components(empty_graph_5):
    assert num_components(empty_graph_5) == 5
    assert not is_connected(empty_graph_5)


def test_trivial_graphs_count_as_connected():
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))


def test_component_membership():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    components = connected_components(g)
    assert [0, 1, 2] in components
    assert [3, 4] in components
    assert [5] in components


def test_component_labels_consistent():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    label = {v: i for i, members in enumerate(connected_components(g)) for v in members}
    assert label[0] == label[1] == label[2]
    assert label[3] == label[4]
    assert label[5] not in (label[0], label[3])


def test_largest_component():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert max(connected_components(g), key=len) == [0, 1, 2]


def test_component_sizes():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert sorted(len(members) for members in connected_components(g)) == [1, 2, 3]
    assert num_components(g) == 3


def test_same_component_structure_for_spanning_tree(grid_5x5):
    from repro.graphs import bfs_tree_edges

    tree = grid_5x5.subgraph_from_edges(bfs_tree_edges(grid_5x5, 0))
    assert same_component_structure(grid_5x5, tree)


def test_component_structure_differs_when_an_isolated_bridge_is_dropped():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sub = g.subgraph_from_edges([(0, 1), (2, 3)])
    assert not same_component_structure(g, sub)


def test_component_structure_requires_same_vertex_count():
    assert not same_component_structure(Graph(3), Graph(4))
