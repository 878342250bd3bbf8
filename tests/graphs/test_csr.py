"""Property tests for the frozen CSR adjacency snapshot."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.graphs.csr as csr_module
from repro.graphs.csr import vertex_ids
from repro.graphs import (
    CSRGraph,
    Graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)


def _random_graphs():
    graphs = [
        Graph(0),
        Graph(5),
        path_graph(7),
        star_graph(6),
        grid_graph(4, 5),
        random_tree(33, seed=7),
    ]
    for seed in range(6):
        graphs.append(gnp_random_graph(40, 0.12, seed=seed))
    return graphs


class TestRoundTrip:
    @pytest.mark.parametrize("graph", _random_graphs(), ids=repr)
    def test_edges_degree_neighbors_round_trip(self, graph):
        csr = graph.csr()
        assert csr.num_vertices == graph.num_vertices
        assert csr.num_edges == graph.num_edges
        assert sorted(csr.edges()) == sorted(graph.edges())
        for v in graph.vertices():
            assert csr.degree(v) == graph.degree(v)
            assert list(csr.neighbors(v)) == sorted(graph.neighbors(v))

    @pytest.mark.parametrize("graph", _random_graphs(), ids=repr)
    def test_structure_invariants(self, graph):
        csr = graph.csr()
        n = graph.num_vertices
        assert len(csr.indptr) == n + 1
        assert csr.indptr[0] == 0
        assert csr.indptr[-1] == len(csr.adj) == 2 * graph.num_edges
        for v in range(n):
            row = csr.adj[csr.indptr[v] : csr.indptr[v + 1]]
            assert list(row) == sorted(row), f"row {v} is not sorted"
            assert len(set(row)) == len(row), f"row {v} has duplicates"

    def test_has_edge_matches_graph(self):
        graph = gnp_random_graph(30, 0.2, seed=3)
        csr = graph.csr()
        for u in range(30):
            for v in range(30):
                if u != v:
                    assert csr.has_edge(u, v) == graph.has_edge(u, v)

    def test_rows_share_one_object_per_vertex_id(self):
        # Ids above CPython's small-int cache are where interning matters.
        graph = Graph(1000, [(500, 600), (500, 700), (600, 700), (700, 999)])
        rows = graph.csr().rows()
        assert rows[600] == (500, 700) and rows[999] == (700,)
        assert rows[600][0] is rows[700][0]  # vertex 500
        assert rows[500][1] is rows[600][1] is rows[999][0]  # vertex 700
        assert rows[0] == ()


    def test_vertex_ids_grow_consistently_under_racing_threads(self, monkeypatch):
        monkeypatch.setattr(csr_module, "_vertex_ids", [])
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sizes = [37 * k for k in range(1, 200)]
            threads = [
                threading.Thread(target=lambda s=sizes[i::12]: [vertex_ids(n) for n in s])
                for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        ids = vertex_ids(0)
        assert ids == list(range(max(sizes)))


class TestSnapshotContract:
    def test_snapshot_is_cached_until_mutation(self):
        graph = path_graph(5)
        first = graph.csr()
        assert graph.csr() is first

    def test_mutation_invalidates_and_bumps_version(self):
        graph = path_graph(5)
        before = graph.csr()
        version = graph.version
        assert graph.add_edge(0, 4)
        assert graph.version == version + 1
        after = graph.csr()
        assert after is not before
        assert after.has_edge(0, 4)
        # The old snapshot is frozen: it still shows the pre-mutation topology.
        assert not before.has_edge(0, 4)
        assert before.num_edges == after.num_edges - 1

    def test_remove_edge_invalidates(self):
        graph = path_graph(5)
        graph.csr()
        version = graph.version
        assert graph.remove_edge(0, 1)
        assert graph.version == version + 1
        assert not graph.csr().has_edge(0, 1)
        assert sorted(graph.csr().edges()) == sorted(graph.edges())

    def test_noop_mutations_do_not_invalidate(self):
        graph = path_graph(5)
        snapshot = graph.csr()
        assert not graph.add_edge(0, 1)  # already present
        assert not graph.remove_edge(0, 3)  # never existed
        assert graph.csr() is snapshot

    def test_copy_shares_the_immutable_snapshot(self):
        graph = path_graph(6)
        snapshot = graph.csr()
        clone = graph.copy()
        assert clone.csr() is snapshot
        # Mutating the clone must not disturb the original's snapshot.
        clone.add_edge(0, 5)
        assert graph.csr() is snapshot
        assert clone.csr() is not snapshot

    def test_malformed_csr_rejected(self):
        from array import array

        with pytest.raises(ValueError):
            CSRGraph(array("q", [1, 2]), array("q", [0, 1]))
