"""Tests for the GraphDelta value type and its apply helpers."""

from __future__ import annotations

import json

import pytest

from repro.dynamic import GraphDelta, apply_delta
from repro.graphs import Graph


class TestCanonicalForm:
    def test_edges_are_normalized_deduped_and_sorted(self):
        delta = GraphDelta.make(add=[(3, 1), (1, 3), (0, 2)], remove=[(5, 4)])
        assert delta.add == ((0, 2), (1, 3))
        assert delta.remove == ((4, 5),)

    def test_self_loops_rejected_at_build_time(self):
        with pytest.raises(ValueError):
            GraphDelta.make(add=[(2, 2)])

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            GraphDelta.make(add=[(0, 1)], remove=[(1, 0)])

    def test_counters_and_emptiness(self):
        delta = GraphDelta.make(add=[(0, 1), (1, 2)], remove=[(2, 3)])
        assert (delta.num_add, delta.num_remove, delta.num_edges) == (2, 1, 3)
        assert not delta.is_empty
        assert GraphDelta.make().is_empty

    def test_touched_vertices_sorted_union(self):
        delta = GraphDelta.make(add=[(4, 1)], remove=[(2, 0)])
        assert delta.touched_vertices() == (0, 1, 2, 4)

    def test_value_semantics(self):
        a = GraphDelta.make(add=[(1, 0)])
        b = GraphDelta.make(add=[(0, 1)])
        assert a == b
        assert hash(a) == hash(b)


class TestJsonRoundTrip:
    def test_to_dict_is_json_safe_and_round_trips(self):
        delta = GraphDelta.make(add=[(0, 1), (2, 3)], remove=[(4, 5)])
        payload = json.loads(json.dumps(delta.to_dict()))
        assert GraphDelta.from_dict(payload) == delta


class TestApply:
    def test_apply_removes_then_adds_in_batches(self):
        g = Graph(5, [(0, 1), (1, 2)])
        version = g.version
        delta = GraphDelta.make(add=[(2, 3), (3, 4)], remove=[(0, 1)])
        added, removed = apply_delta(g, delta)
        assert (added, removed) == (2, 1)
        assert g.edge_set() == {(1, 2), (2, 3), (3, 4)}
        # One invalidation per non-empty side, not per edge.
        assert g.version == version + 2

    def test_noop_delta_does_not_invalidate(self):
        g = Graph(4, [(0, 1)])
        csr = g.csr()
        version = g.version
        added, removed = apply_delta(
            g, GraphDelta.make(add=[(0, 1)], remove=[(2, 3)])
        )
        assert (added, removed) == (0, 0)
        assert g.version == version
        assert g.csr() is csr

    def test_replay_copies_the_input_graph(self):
        g = Graph(4, [(0, 1)])
        final = g.copy()
        for delta in [GraphDelta.make(add=[(1, 2)])]:
            apply_delta(final, delta)
        assert g.edge_set() == {(0, 1)}
        assert final.edge_set() == {(0, 1), (1, 2)}

    def test_delta_summary_counts(self):
        deltas = [
            GraphDelta.make(add=[(0, 1), (1, 2)]),
            GraphDelta.make(remove=[(0, 1)]),
        ]
        assert sum(d.num_add for d in deltas) == 2
        assert sum(d.num_remove for d in deltas) == 1
        assert [d.num_edges for d in deltas] == [2, 1]
        g = Graph(3)
        applied = [apply_delta(g, d) for d in deltas]
        assert applied == [(2, 0), (0, 1)]
        assert g.edge_set() == {(1, 2)}
