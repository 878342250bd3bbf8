"""Tests for the churn traces: determinism, purity and per-kind shape."""

from __future__ import annotations

import pytest

from repro.dynamic import ChurnTrace, TRACE_KINDS, trace_from_params


def trace(kind, **overrides):
    kwargs = dict(kind=kind, family="sparse_gnp", size=48, steps=4, batch_size=3, seed=7)
    kwargs.update(overrides)
    return ChurnTrace(**kwargs)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChurnTrace(kind="avalanche")

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            ChurnTrace(kind="growth", steps=0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_iterating_twice_is_byte_identical(self, kind):
        t = trace(kind)
        first = [d.to_dict() for d in t.deltas()]
        second = [d.to_dict() for d in t.deltas()]
        assert first == second
        assert len(first) == t.steps

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_equal_traces_share_fingerprint(self, kind):
        assert trace(kind).fingerprint() == trace(kind).fingerprint()

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_seed_changes_the_trace(self, kind):
        assert trace(kind).fingerprint() != trace(kind, seed=8).fingerprint()

    def test_kinds_diverge_on_the_same_seed(self):
        prints = {trace(kind).fingerprint() for kind in TRACE_KINDS}
        assert len(prints) == len(TRACE_KINDS)


class TestKindShapes:
    def test_growth_is_insert_only_and_ends_at_the_base_graph(self):
        t = trace("growth")
        assert all(d.num_remove == 0 for d in t.deltas())
        assert t.final_graph() == t.base_graph()
        assert t.initial_graph().num_edges < t.base_graph().num_edges

    def test_uniform_keeps_the_edge_count_balanced(self):
        t = trace("uniform")
        initial = t.initial_graph()
        assert initial == t.base_graph()
        final = t.final_graph()
        # Every step removes and adds the same batch size (up to bounded
        # rejection-sampling shortfalls), so the count stays in a tight band.
        assert abs(final.num_edges - initial.num_edges) <= t.steps * t.batch_size

    def test_sliding_window_keeps_a_fixed_live_window(self):
        t = trace("sliding-window")
        graph = t.initial_graph()
        window = graph.num_edges
        base_edges = t.base_graph().edge_set()
        for delta in t.deltas():
            from repro.dynamic import apply_delta

            apply_delta(graph, delta)
            assert graph.num_edges == window
            assert graph.edge_set() <= base_edges

    def test_hotspot_additions_touch_the_hot_set(self):
        t = trace("hotspot")
        hot = set(t._hot_vertices(t.base_graph().num_vertices))
        for delta in t.deltas():
            for u, v in delta.add:
                assert u in hot or v in hot


class TestHelpers:
    def test_make_trace_forwards_kwargs(self):
        t = ChurnTrace(kind="growth", size=32, steps=2, batch_size=2, seed=3)
        assert (t.kind, t.size, t.steps) == ("growth", 32, 2)
        deltas = list(t.deltas())
        assert len(deltas) == 2
        assert all(d.num_add == 2 and d.num_remove == 0 for d in deltas)

    def test_trace_from_params_matches_explicit_construction(self):
        params = {
            "kind": "uniform",
            "family": "sparse_gnp",
            "size": 48,
            "steps": 4,
            "batch_size": 3,
            "workload_seed": 7,
        }
        assert trace_from_params(params) == trace("uniform")

    def test_describe_is_json_safe(self):
        import json

        for kind in TRACE_KINDS:
            json.dumps(trace(kind).describe())
