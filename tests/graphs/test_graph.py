"""Unit tests for the core Graph data structure."""

from __future__ import annotations

import pytest

from repro.graphs import Graph, normalize_edge


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_vertices_range(self):
        g = Graph(4)
        assert list(g.vertices()) == [0, 1, 2, 3]

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_construct_with_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 1)

    def test_duplicate_edges_collapsed(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edge_list_helper(self):
        # Any one-shot iterable of edges builds the graph, in either orientation.
        g = Graph(4, iter([(3, 0), (1, 2)]))
        assert g.num_edges == 2
        assert list(g.edges()) == [(0, 3), (1, 2)]

    def test_union_of_edges(self):
        g = Graph(4)
        batches = [[(0, 1)], [(1, 2), (0, 1)], [(2, 3)]]
        assert [g.add_edges(batch) for batch in batches] == [1, 1, 1]
        assert g.num_edges == 3


class TestMutation:
    def test_add_edge_returns_true_when_new(self):
        g = Graph(3)
        assert g.add_edge(0, 1) is True
        assert g.add_edge(0, 1) is False

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_out_of_range_vertex_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            g.add_edge(-1, 0)

    def test_add_edges_counts_new_only(self):
        g = Graph(4)
        assert g.add_edges([(0, 1), (1, 2), (0, 1)]) == 2

    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.remove_edge(0, 1) is True
        assert g.remove_edge(0, 1) is False
        assert g.num_edges == 1
        assert not g.has_edge(0, 1)

    def test_adjacency_and_rows_share_one_object_per_vertex_id(self):
        # int("...") yields fresh objects above the small-int cache; both
        # insertion paths must store the shared id instead.
        a = Graph(5000)
        a.add_edge(int("1000"), int("4321"))
        b = Graph(4500)
        b.add_edges([(int("4321"), int("2000"))])
        (in_a,) = a.neighbors(1000)
        (in_b,) = b.neighbors(2000)
        assert in_a == 4321 and in_a is in_b
        assert a.csr().rows()[1000][0] is in_a
        assert b.csr().rows()[2000][0] is in_a
        (back_a,) = a.neighbors(4321)
        (back_b,) = b.neighbors(4321)
        assert back_a == 1000 and back_a is a.csr().rows()[4321][0]
        assert back_b == 2000 and back_b is b.csr().rows()[4321][0]

    def test_degree_updates(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert g.degree(0) == 2
        assert g.degree(3) == 0
        g.remove_edge(0, 1)
        assert g.degree(0) == 1


class TestAccessors:
    def test_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2)])
        assert g.neighbors(0) == {1, 2}
        assert g.neighbors(3) == set()

    def test_edges_canonical_order(self):
        g = Graph(4, [(3, 1), (2, 0)])
        assert sorted(g.edges()) == [(0, 2), (1, 3)]

    def test_edge_set(self):
        g = Graph(3, [(2, 1)])
        assert g.edge_set() == {(1, 2)}

    def test_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree() == 3
        assert Graph(0).max_degree() == 0

    def test_density(self):
        assert Graph(1).density() == 0.0
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.density() == pytest.approx(1.0)

    def test_adjacency_is_a_copy(self):
        g = Graph(3, [(0, 1)])
        adj = g.adjacency()
        adj[0].add(2)
        assert not g.has_edge(0, 2)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert h.has_edge(0, 1)

    def test_subgraph_from_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.subgraph_from_edges([(1, 2)])
        assert sub.num_vertices == 4
        assert sub.num_edges == 1

    def test_subgraph_rejects_foreign_edges(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph_from_edges([(2, 3)])

    def test_is_subgraph_of(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.subgraph_from_edges([(0, 1), (2, 3)])
        assert sub.is_subgraph_of(g)
        assert not g.is_subgraph_of(sub)

    def test_is_subgraph_requires_same_vertex_count(self):
        assert not Graph(2).is_subgraph_of(Graph(3))


class TestDunder:
    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(3) != Graph(4)

    def test_equality_with_non_graph(self):
        assert Graph(2).__eq__(42) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(2))

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)
    assert normalize_edge(2, 2) == (2, 2)
