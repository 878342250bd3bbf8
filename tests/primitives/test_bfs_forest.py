"""Tests for the distributed multi-source BFS forest."""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

import repro.congest.simulator as simulator_module
import repro.kernels as kernels
from repro.congest import (
    CongestionViolation,
    FaultPlan,
    Message,
    MessageTooLarge,
    NodeContext,
    NodeProgram,
    ProtocolFault,
    RecordingTracer,
    Simulator,
)
from repro.graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    multi_source_bfs,
    path_graph,
    sparse_gnp_random_graph,
    star_graph,
)
from repro.primitives import run_bfs_forest

from reference_programs import faulted_cases, forest_with_programs


def simulator_for(graph):
    return Simulator(graph, strict_congestion=True)


class TestSingleSource:
    def test_forest_matches_bfs_distances(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=30)
        reference = bfs_distances(grid_5x5, 0)
        for v in range(25):
            assert forest.dist[v] == reference[v]
            assert forest.root[v] == 0

    def test_parents_are_edges_one_level_up(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=30)
        for v in range(1, 25):
            parent = forest.parent[v]
            assert grid_5x5.has_edge(v, parent)
            assert forest.dist[parent] == forest.dist[v] - 1

    def test_depth_limit_respected(self, path_6):
        sim = simulator_for(path_6)
        forest = run_bfs_forest(sim, [0], depth=2)
        assert forest.spanned_vertices() == [0, 1, 2]
        assert forest.dist[2] == 2
        assert not forest.spanned(3)

    def test_depth_zero_spans_only_sources(self, cycle_8):
        sim = simulator_for(cycle_8)
        forest = run_bfs_forest(sim, [3], depth=0)
        assert forest.spanned_vertices() == [3]

    def test_path_to_root(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=30)
        path = forest.tree_path_to_root(24)
        assert path[0] == 24 and path[-1] == 0
        assert len(path) == forest.dist[24] + 1

    def test_path_to_root_unspanned_raises(self, path_6):
        sim = simulator_for(path_6)
        forest = run_bfs_forest(sim, [0], depth=1)
        with pytest.raises(ValueError):
            forest.tree_path_to_root(5)


class TestMultiSource:
    def test_every_vertex_adopts_nearest_source(self):
        graph = path_graph(9)
        sim = simulator_for(graph)
        forest = run_bfs_forest(sim, [0, 8], depth=10)
        assert forest.root[:4] == [0, 0, 0, 0]
        assert forest.root[5:] == [8, 8, 8, 8]
        # the middle vertex ties; the smaller root wins deterministically
        assert forest.root[4] == 0

    def test_membership_grouping(self):
        graph = path_graph(9)
        sim = simulator_for(graph)
        forest = run_bfs_forest(sim, [0, 8], depth=10)
        members = {}
        for v in forest.spanned_vertices():
            members.setdefault(forest.root[v], []).append(v)
        assert members[0] == [0, 1, 2, 3, 4]
        assert members[8] == [5, 6, 7, 8]

    def test_matches_centralized_multi_source(self, community_graph):
        sim = simulator_for(community_graph)
        sources = [0, 15, 33]
        forest = run_bfs_forest(sim, sources, depth=4)
        reference = multi_source_bfs(community_graph, sources, max_depth=4)
        for v in range(community_graph.num_vertices):
            assert forest.dist[v] == reference.dist[v]

    def test_no_congestion_violation(self, community_graph):
        sim = simulator_for(community_graph)
        forest = run_bfs_forest(sim, [0, 1, 2], depth=10)
        assert forest.run.max_edge_congestion <= 1

    def test_nominal_rounds_equal_depth(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=17)
        assert forest.nominal_rounds == 17
        assert sim.ledger.nominal_rounds == 17

    def test_invalid_source_rejected(self, path_6):
        sim = simulator_for(path_6)
        with pytest.raises(ValueError):
            run_bfs_forest(sim, [99], depth=2)

    def test_negative_depth_rejected(self, path_6):
        sim = simulator_for(path_6)
        with pytest.raises(ValueError):
            run_bfs_forest(sim, [0], depth=-1)


def forest_traced(
    graph, sources, depth, *, programs=False, reused=False, simulator=None, plan=None
):
    """One forest with everything observable recorded.

    ``programs=False`` runs :func:`run_bfs_forest` (the broadcast schedule);
    ``programs=True`` runs the per-node reference programs, which the
    schedule must reproduce.  ``labels`` is every vertex's ``(root, dist,
    parent)``: the reference programs' own per-node results, and the
    schedule's ``root`` / ``dist`` / ``parent`` lists (its run carries no
    per-node results).  Either runs under ``plan`` with two attempts; a
    :class:`ProtocolFault` is recorded as the outcome.  Without a
    ``simulator`` it runs on a fresh one, or with ``reused`` on one that
    :func:`used_simulator` made.
    """
    tracer = RecordingTracer()
    sim = simulator
    if sim is None:
        sim = used_simulator(graph, programs) if reused else Simulator(graph)
    sim.tracer = tracer
    grow = forest_with_programs if programs else run_bfs_forest
    try:
        forest = grow(sim, sources, depth, label="forest", fault_plan=plan, max_attempts=2)
    except ProtocolFault as fault:
        outcome = {"fault": (fault.label, fault.reason, fault.attempts)}
    else:
        run = forest.run
        if programs:
            labels = run.results
            run = dataclasses.replace(run, results=[])
        else:
            labels = list(zip(forest.root, forest.dist, forest.parent))
        outcome = {
            "root": forest.root,
            "dist": forest.dist,
            "parent": forest.parent,
            "labels": labels,
            "run": run,
            "attempts": forest.attempts,
        }
    outcome["charges"] = sim.ledger.charges
    outcome["events"] = tracer.events
    return outcome


def used_simulator(graph, programs):
    """A simulator that has already grown another forest on ``graph``.

    The engines grow every forest on a simulator that ran other protocols
    before it (earlier phases, the ruling set's knock-outs); the run must
    not depend on what those left behind.
    """
    simulator = Simulator(graph)
    grow = forest_with_programs if programs else run_bfs_forest
    grow(simulator, [graph.num_vertices - 1], 1)
    return simulator


#: Run each equivalence case on a fresh simulator and on a used one.
REUSED = pytest.mark.parametrize("reused", [False, True], ids=["fresh", "reused"])


def _isolated_source_graph():
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), [0, 6]


EQUIVALENCE_CASES = {
    "sparse-gnp-a": (sparse_gnp_random_graph(120, 0.05, seed=1), range(0, 120, 9), 3),
    "sparse-gnp-b": (sparse_gnp_random_graph(200, 0.03, seed=7), [5, 77, 150, 151], 6),
    "sparse-gnp-c": (sparse_gnp_random_graph(150, 0.06, seed=12), range(0, 150, 4), 2),
    "grid": (grid_graph(6, 7), [0, 20, 41], 5),
    "path-tie": (path_graph(9), [0, 8], 10),
    "star": (star_graph(9), [3, 5, 7], 2),
    "adjacent-sources": (path_graph(6), [2, 3], 3),
    "all-sources": (gnp_random_graph(60, 0.1, seed=4), range(60), 3),
    "depth-0": (grid_graph(4, 4), [0, 5], 0),
    "depth-1": (grid_graph(4, 4), [0, 5], 1),
    "depth-beyond-eccentricity": (path_graph(9), [0], 30),
    "no-sources": (cycle_graph(8), [], 3),
    "isolated-source": (*_isolated_source_graph(), 4),
    "isolated-sole-source": (Graph(3, [(0, 1)]), [2], 3),
    "smaller-root-from-later-sender": (Graph(5, [(4, 1), (1, 3), (3, 2), (2, 0)]), [0, 4], 3),
}


FAULTED_CASES = list(faulted_cases())
FAULTED_IDS = [f"{graph.num_vertices}-{name}" for graph, name, _ in FAULTED_CASES]
FAULTED_CONFIGS = {
    "three-sources": lambda n: ([0, n // 3, (2 * n) // 3], 4),
    "all-sources": lambda n: (range(n), 2),
    "single-deep": lambda n: ([n - 1], n),
}


class TestBroadcastScheduleEquivalence:
    """The schedule reproduces the per-node programs exactly, with or without faults."""

    @REUSED
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_schedule_matches_reference_programs(self, case, reused):
        graph, sources, depth = EQUIVALENCE_CASES[case]
        schedule = forest_traced(graph, sources, depth, reused=reused)
        reference = forest_traced(graph, sources, depth, programs=True, reused=reused)
        assert schedule == reference
        assert len(schedule["labels"]) == graph.num_vertices
        assert schedule["run"].results == []

    @REUSED
    @pytest.mark.parametrize("config", sorted(FAULTED_CONFIGS))
    @pytest.mark.parametrize(
        "graph, plan", [case[::2] for case in FAULTED_CASES], ids=FAULTED_IDS
    )
    def test_schedule_matches_reference_programs_under_faults(
        self, graph, plan, config, reused
    ):
        sources, depth = FAULTED_CONFIGS[config](graph.num_vertices)
        schedule = forest_traced(graph, sources, depth, reused=reused, plan=plan)
        reference = forest_traced(
            graph, sources, depth, programs=True, reused=reused, plan=plan
        )
        assert schedule == reference
        if "fault" not in schedule:
            assert schedule["run"].fault_counters is not None

    def test_path_tie_goes_to_smaller_root(self):
        outcome = forest_traced(*EQUIVALENCE_CASES["path-tie"])
        assert (outcome["root"][4], outcome["parent"][4]) == (0, 3)

    def test_later_sender_with_smaller_root_wins(self):
        # Vertex 3 hears root 4 from vertex 1 before root 0 from vertex 2.
        outcome = forest_traced(*EQUIVALENCE_CASES["smaller-root-from-later-sender"])
        assert (outcome["root"][3], outcome["dist"][3], outcome["parent"][3]) == (0, 2, 2)

    def test_isolated_sole_source_executes_no_round(self):
        outcome = forest_traced(Graph(3, [(0, 1)]), [2], 3)
        assert outcome["run"].rounds_executed == 0
        assert outcome["events"] == []
        assert [(c.nominal_rounds, c.messages) for c in outcome["charges"]] == [(3, 0)]


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
class TestArrayTierEquivalence:
    """The array forest matches the per-broadcast form however it is blocked."""

    @REUSED
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_array_form_matches_per_broadcast_form(self, kernel, monkeypatch, case, reused):
        graph, sources, depth = EQUIVALENCE_CASES[case]
        kernel(kernels.KERNEL_PYTHON)
        expected = forest_traced(graph, sources, depth, reused=reused)
        kernel(kernels.KERNEL_NUMPY)
        monkeypatch.setattr(simulator_module, "BROADCAST_BLOCK", 5)
        blocked = forest_traced(graph, sources, depth, reused=reused)
        assert blocked == expected
        labels = blocked["root"] + blocked["dist"] + blocked["parent"]
        assert all(type(label) in (int, type(None)) for label in labels)

    def test_ties_hold_across_blocks(self, kernel, monkeypatch):
        kernel(kernels.KERNEL_NUMPY)
        # One delivery per block: every offer of a round lands in its own block.
        monkeypatch.setattr(simulator_module, "BROADCAST_BLOCK", 1)
        tie = forest_traced(*EQUIVALENCE_CASES["path-tie"])
        assert (tie["root"][4], tie["parent"][4]) == (0, 3)
        later = forest_traced(*EQUIVALENCE_CASES["smaller-root-from-later-sender"])
        assert (later["root"][3], later["dist"][3], later["parent"][3]) == (0, 2, 2)

    def test_the_schedule_threshold_picks_the_array_form(self, kernel, monkeypatch):
        kernel(kernels.KERNEL_AUTO)
        calls = []
        frontier_arrays = Simulator.run_frontier_arrays

        def spy(self, *args, **kwargs):
            calls.append(self.graph.num_vertices)
            return frontier_arrays(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run_frontier_arrays", spy)
        size = kernels.AUTO_MIN_SCHEDULE_VERTICES
        for n in (size - 1, size):
            run_bfs_forest(Simulator(cycle_graph(n)), [0], depth=2)
        # A fault plan keeps the per-broadcast form at any size.
        plan = FaultPlan(seed=3, drop_rate=0.2)
        run_bfs_forest(Simulator(cycle_graph(size)), [0], depth=2, fault_plan=plan)
        assert calls == [size]


class TestBroadcastScheduleErrorPaths:
    @pytest.mark.parametrize("programs", [False, True])
    def test_oversized_messages_raise_and_charge_nothing(self, programs):
        sim = Simulator(cycle_graph(6), max_words_per_message=2)
        with pytest.raises(MessageTooLarge):
            forest_traced(sim.graph, [0, 3], 2, programs=programs, simulator=sim)
        assert sim.ledger.charges == []

    @pytest.mark.parametrize("sources, depth", [([0, 3], 0), ([], 4)])
    def test_nothing_broadcast_means_nothing_oversized(self, sources, depth):
        # The program form never broadcasts here, so the narrow word limit
        # is never hit; the schedule must not raise either.
        outcomes = []
        for programs in (False, True):
            sim = Simulator(cycle_graph(6), max_words_per_message=2)
            outcomes.append(
                forest_traced(sim.graph, sources, depth, programs=programs, simulator=sim)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["run"].messages_delivered == 0

    def test_forest_after_aborted_run_matches_fresh_simulator(self):
        class SendsTwice(NodeProgram):
            def on_start(self, ctx: NodeContext) -> None:
                for neighbor in ctx.neighbors:
                    ctx.send(neighbor, "spam")
                    ctx.send(neighbor, "spam")

            def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
                return None

        graph = grid_graph(5, 5)
        aborted = Simulator(graph)
        with pytest.raises(CongestionViolation):
            aborted.run_protocol([SendsTwice() for _ in range(25)])
        after_abort = forest_traced(graph, [0, 12, 24], 3, simulator=aborted)
        fresh = forest_traced(graph, [0, 12, 24], 3)
        assert after_abort == fresh
        # The reference programs, which do use the scheduler's buffers, agree too.
        reference = forest_traced(graph, [0, 12, 24], 3, programs=True, simulator=aborted)
        assert reference["run"] == fresh["run"]
        assert reference["root"] == fresh["root"]
