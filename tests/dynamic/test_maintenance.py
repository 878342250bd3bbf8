"""Tests for DynamicSpanner: absorption, repair, certificates, rebuilds.

Includes the PR 8 property test: after a full churn trace, the maintained
spanner satisfies the same declared guarantee as a from-scratch rebuild on
the final graph -- under both the pure-Python and the NumPy kernel pins.
"""

from __future__ import annotations

import json
import time

import pytest

import repro.kernels as kernels
from repro.analysis.stretch import evaluate_stretch
from repro.dynamic import ChurnTrace, DynamicSpanner, GraphDelta
from repro.graphs import Graph

KERNEL_MODES = [
    kernels.KERNEL_PYTHON,
    pytest.param(
        kernels.KERNEL_NUMPY,
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="numpy/scipy not installed"
        ),
    ),
]

#: The maintenance matrix the property test sweeps: one engine, one
#: near-additive baseline, both multiplicative baselines.
ALGORITHMS = ("new-centralized", "elkin-peleg-2001", "baswana-sen", "greedy")


def small_trace(kind, seed=11):
    return ChurnTrace(
        kind=kind, family="sparse_gnp", size=48, steps=4, batch_size=3, seed=seed
    )


def run_trace(algorithm, trace, **kwargs):
    """Build on the trace's initial graph and maintain every delta."""
    dynamic = DynamicSpanner(algorithm, trace.initial_graph(), **kwargs)
    for delta in trace.deltas():
        dynamic.maintain(delta)
    return dynamic


class TestConstruction:
    def test_distributed_engine_is_rejected(self):
        with pytest.raises(ValueError, match="supports_incremental"):
            DynamicSpanner("new-distributed", Graph(4, [(0, 1)]))

    def test_unknown_certificate_mode_rejected(self):
        with pytest.raises(ValueError, match="certificate"):
            DynamicSpanner(
                "baswana-sen", Graph(4, [(0, 1)]), certificate="psychic"
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="rebuild_budget"):
            DynamicSpanner("baswana-sen", Graph(4, [(0, 1)]), rebuild_budget=-1)

    def test_certificate_defaults_follow_the_guarantee(self):
        graph = small_trace("growth").initial_graph()
        assert DynamicSpanner("greedy", graph).certificate == "touched"
        assert DynamicSpanner("new-centralized", graph).certificate == "full"

    def test_caller_graph_is_never_mutated(self):
        graph = small_trace("growth").initial_graph()
        edges = graph.edge_set()
        dynamic = DynamicSpanner("greedy", graph)
        dynamic.maintain(GraphDelta.make(remove=[next(iter(edges))]))
        assert graph.edge_set() == edges


class TestMaintain:
    def test_noop_delta_is_absorbed_for_free(self):
        dynamic = DynamicSpanner("greedy", small_trace("growth").initial_graph())
        present = next(iter(dynamic.graph.edges()))
        version = dynamic.graph.version
        record = dynamic.maintain(GraphDelta.make(add=[present]))
        assert record.decision == "absorbed"
        assert record.distance_queries == 0
        assert record.work_units == 0
        assert dynamic.graph.version == version

    def test_budget_zero_degenerates_to_rebuild_every_step(self):
        trace = small_trace("uniform")
        dynamic = run_trace("baswana-sen", trace, seed=5, rebuild_budget=0)
        assert all(r.decision == "rebuild" for r in dynamic.records)
        assert all(
            r.rebuild_reason in ("budget-exhausted", "certificate-failed")
            for r in dynamic.records
        )
        assert dynamic.rebuild_count == len(dynamic.records)
        assert dynamic.ops_since_rebuild == 0

    def test_growth_on_multiplicative_never_rebuilds(self):
        dynamic = run_trace("greedy", small_trace("growth"), seed=5)
        assert dynamic.rebuild_count == 0
        assert all(not r.rebuilt for r in dynamic.records)

    def test_counters_are_consistent_and_json_safe(self):
        dynamic = run_trace("baswana-sen", small_trace("sliding-window"), seed=5)
        assert len(dynamic.records) == 4
        for record in dynamic.records:
            payload = json.loads(json.dumps(record.to_dict()))
            assert payload["decision"] in ("absorbed", "repaired", "rebuild")
            assert payload["work_units"] == record.work_units
            assert (payload["rebuild_reason"] is not None) == record.rebuilt
        assert dynamic.total_work_units() == sum(
            r.work_units for r in dynamic.records
        )

    def test_spanner_stays_subgraph_throughout(self):
        trace = small_trace("hotspot")
        dynamic = DynamicSpanner("greedy", trace.initial_graph(), seed=5)
        for delta in trace.deltas():
            dynamic.maintain(delta)
            assert dynamic.spanner.is_subgraph_of(dynamic.graph)

    def test_guarantee_holds_after_every_step(self):
        trace = small_trace("uniform")
        dynamic = DynamicSpanner("new-centralized", trace.initial_graph(), seed=5)
        for delta in trace.deltas():
            dynamic.maintain(delta)
            report = evaluate_stretch(
                dynamic.graph, dynamic.spanner, guarantee=dynamic.guarantee
            )
            assert report.satisfies_guarantee


class TestFullTraceProperty:
    """The PR 8 satellite: maintained == rebuilt, guarantee-wise, per kernel."""

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("kind", ("growth", "uniform"))
    def test_full_trace_matches_rebuild_guarantee(self, kernel, mode, algorithm, kind):
        kernel(mode)
        trace = small_trace(kind)
        dynamic = run_trace(algorithm, trace, seed=3)
        maintained = evaluate_stretch(
            dynamic.graph, dynamic.spanner, guarantee=dynamic.guarantee
        )
        assert maintained.satisfies_guarantee
        rebuild = dynamic.rebuild_equivalent()
        rebuilt = evaluate_stretch(
            rebuild.graph, rebuild.spanner, guarantee=dynamic.guarantee
        )
        assert rebuilt.satisfies_guarantee
        assert dynamic.graph == trace.final_graph()

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_maintenance_decisions_match_across_kernels(self, kernel, mode):
        kernel(mode)
        dynamic = run_trace("greedy", small_trace("uniform"), seed=3)
        decisions = [(r.decision, r.edges_inserted, r.repair_edges) for r in dynamic.records]
        # Pinned against the pure-python reference run of the same trace:
        # the kernels must agree on every decision, not merely on validity.
        kernel(kernels.KERNEL_PYTHON)
        reference = run_trace("greedy", small_trace("uniform"), seed=3)
        assert decisions == [
            (r.decision, r.edges_inserted, r.repair_edges) for r in reference.records
        ]


class TestGrowthCrossover:
    """Incremental maintenance against rebuild-every-step on growth churn.

    The same insert-only trace is replayed through a ``DynamicSpanner`` with
    its default (``touched``) certificate and with ``rebuild_budget=0``,
    which re-clusters after every step.  The trace is large enough that a
    per-step rebuild visibly loses.
    """

    TRACE = dict(kind="growth", family="sparse_gnp", size=256, steps=10, batch_size=8, seed=17)

    #: Pinned wall-clock budget of the incremental replay (well under 0.1 s
    #: on a laptop; the budget only catches an accidental quadratic path).
    INCREMENTAL_BUDGET_S = 5.0

    @pytest.fixture(scope="class")
    def replays(self):
        def replay(rebuild_budget):
            start = time.perf_counter()
            dynamic = run_trace(
                "baswana-sen", ChurnTrace(**self.TRACE), seed=7, rebuild_budget=rebuild_budget
            )
            return dynamic, time.perf_counter() - start

        return replay(None), replay(0)

    def test_incremental_replay_never_rebuilds_within_budget(self, replays):
        (incremental, seconds), _ = replays
        assert incremental.rebuild_count == 0
        assert seconds <= self.INCREMENTAL_BUDGET_S, (
            f"incremental growth replay took {seconds:.2f}s "
            f"(budget {self.INCREMENTAL_BUDGET_S}s)"
        )

    def test_strawman_rebuilds_every_step(self, replays):
        _, (strawman, _seconds) = replays
        assert strawman.rebuild_count == len(strawman.records)

    def test_incremental_beats_the_strawman(self, replays):
        (incremental, inc_seconds), (strawman, straw_seconds) = replays
        inc_work = incremental.total_work_units()
        straw_work = strawman.total_work_units()
        assert inc_work < 0.5 * straw_work, (inc_work, straw_work)
        assert inc_seconds < straw_seconds, (
            f"incremental replay ({inc_seconds:.3f}s) slower than "
            f"rebuild-every-step ({straw_seconds:.3f}s)"
        )
