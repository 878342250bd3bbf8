"""Tests for the path trace-back protocols."""

from __future__ import annotations

import pytest

import repro.primitives.traceback as traceback_module
from repro.congest import RecordingTracer, Simulator
from repro.graphs import bfs_distances, grid_graph, path_graph, sparse_gnp_random_graph
from repro.primitives import (
    run_bfs_forest,
    run_bounded_exploration,
    run_forest_path_markup,
    run_traceback,
)
from repro.primitives.exploration import ExplorationResult

from reference_programs import centralized_forest_markup, centralized_traceback


# Every test runs once per kernel backend: the numpy kernel keeps the
# exploration knowledge as arrays, which the trace-back reads in place.
pytestmark = pytest.mark.usefixtures("backend")


def spanner_from_edges(graph, edges):
    return graph.subgraph_from_edges(edges)


class TestExplorationTraceback:
    def setup_exploration(self, graph, centers, depth, cap):
        sim = Simulator(graph, strict_congestion=True)
        exploration = run_bounded_exploration(sim, centers, depth, cap)
        return sim, exploration

    def test_traced_edges_form_shortest_paths(self, grid_5x5):
        centers = [0, 24]
        sim, exploration = self.setup_exploration(grid_5x5, centers, depth=10, cap=3)
        requests = {0: [24]}
        result = run_traceback(sim, exploration, requests)
        spanner = spanner_from_edges(grid_5x5, result.edges)
        assert bfs_distances(spanner, 0).get(24) == bfs_distances(grid_5x5, 0)[24]

    def test_matches_centralized_traceback_lengths(self, grid_5x5):
        centers = [0, 12, 24]
        sim, exploration = self.setup_exploration(grid_5x5, centers, depth=10, cap=3)
        requests = {0: [12, 24], 12: [24]}
        distributed = run_traceback(sim, exploration, requests)
        centralized = centralized_traceback(exploration, requests)
        # Both produce shortest paths for every requested pair (the actual
        # edge sets may differ by tie-breaking).
        for edges in (distributed.edges, centralized):
            spanner = spanner_from_edges(grid_5x5, edges)
            for source, targets in requests.items():
                source_dist = bfs_distances(spanner, source)
                for target in targets:
                    assert source_dist.get(target) == bfs_distances(grid_5x5, source)[target]

    def test_unknown_targets_skipped(self, path_6):
        sim, exploration = self.setup_exploration(path_6, [0], depth=1, cap=2)
        result = run_traceback(sim, exploration, {5: [0]})
        assert result.edges == set()

    def test_many_requests_respect_congestion(self, community_graph):
        n = community_graph.num_vertices
        centers = list(range(n))
        sim, exploration = self.setup_exploration(community_graph, centers, depth=1, cap=4)
        requests = {
            v: [c for c in exploration.known[v] if c != v]
            for v in range(n)
            if v not in exploration.popular
        }
        result = run_traceback(sim, exploration, requests)
        assert sim.ledger.max_edge_congestion <= 1
        assert all(community_graph.has_edge(u, v) for u, v in result.edges)

    def test_self_requests_are_ignored(self, path_6):
        sim, exploration = self.setup_exploration(path_6, [2], depth=2, cap=2)
        result = run_traceback(sim, exploration, {2: [2]})
        assert result.edges == set()


class TestForestMarkup:
    def test_markup_adds_exactly_the_tree_paths(self, grid_5x5):
        sim = Simulator(grid_5x5, strict_congestion=True)
        forest = run_bfs_forest(sim, [0], depth=10)
        targets = [24, 20, 4]
        distributed = run_forest_path_markup(sim, forest, targets)
        centralized = centralized_forest_markup(forest, targets)
        assert distributed.edges == centralized

    def test_markup_paths_reach_roots(self, community_graph):
        sim = Simulator(community_graph, strict_congestion=True)
        sources = [0, 30]
        forest = run_bfs_forest(sim, sources, depth=6)
        targets = [v for v in forest.spanned_vertices() if v not in sources][:10]
        result = run_forest_path_markup(sim, forest, targets)
        spanner = spanner_from_edges(community_graph, result.edges)
        for target in targets:
            root = forest.root[target]
            assert bfs_distances(spanner, target).get(root) is not None

    def test_markup_unspanned_target_rejected(self, path_6):
        sim = Simulator(path_6, strict_congestion=True)
        forest = run_bfs_forest(sim, [0], depth=1)
        with pytest.raises(ValueError):
            run_forest_path_markup(sim, forest, [5])

    def test_markup_out_of_range_target_rejected(self, path_6):
        sim = Simulator(path_6, strict_congestion=True)
        forest = run_bfs_forest(sim, [0], depth=5)
        with pytest.raises(ValueError):
            run_forest_path_markup(sim, forest, [77])

    def test_markup_respects_bandwidth(self, grid_5x5):
        sim = Simulator(grid_5x5, strict_congestion=True)
        forest = run_bfs_forest(sim, [12], depth=10)
        result = run_forest_path_markup(sim, forest, list(range(25)))
        assert sim.ledger.max_edge_congestion <= 1
        # all 24 non-root vertices mark their parent edge exactly once
        assert len(result.edges) == 24


class _EagerSimulator(Simulator):
    """Runs every node's program with no hints where a caller passes a factory."""

    def run_protocol(self, programs, **kwargs):
        if callable(programs):
            programs = [programs(v) for v in range(self.graph.num_vertices)]
            for hint in ("starters", "message_driven"):
                kwargs.pop(hint, None)
        return super().run_protocol(programs, **kwargs)


def _outcome(simulator_class, run, graph, *args):
    """Edges (in iteration order), rounds, ledger charges and tracer events."""
    tracer = RecordingTracer()
    sim = simulator_class(graph, tracer=tracer)
    result = run(sim, *args)
    return {
        "edges": list(result.edges),
        "rounds": (result.nominal_rounds, result.simulated_rounds),
        "charges": sim.ledger.charges,
        "events": tracer.events,
    }


def _count_programs(monkeypatch, name):
    """Record the node id of every ``traceback_module.<name>`` built from now on."""
    built = []
    base = getattr(traceback_module, name)

    class Counted(base):
        __slots__ = ()

        def __init__(self, node_id, *args):
            built.append(node_id)
            super().__init__(node_id, *args)

    monkeypatch.setattr(traceback_module, name, Counted)
    return built


def _exploration(graph, centers, depth, cap):
    return run_bounded_exploration(Simulator(graph), centers, depth, cap)


def _all_known(exploration, initiators):
    return {v: exploration.known_centers(v) for v in initiators}


GRID_64 = grid_graph(64, 64)
SPARSE = sparse_gnp_random_graph(200, 0.03, seed=7)


def _traceback_cases():
    """``name -> (graph, exploration, requests)`` covering the request shapes."""
    sparse = _exploration(SPARSE, range(0, 200, 5), 4, 3)
    path = _exploration(path_graph(6), [0, 2], 2, 2)
    deep = _exploration(path_graph(40), [0, 39], 39, 2)
    # Every vertex a center at depth 1: 4096 initiators, each asking for
    # all its neighbours.
    grid = _exploration(GRID_64, range(64 * 64), 1, 4)
    return {
        "sparse-all-known": (SPARSE, sparse, _all_known(sparse, sparse.centers)),
        "empty": (SPARSE, sparse, {}),
        "unknown-targets": (path_graph(6), path, {5: [0], 4: [2, 0]}),
        "self-requests": (path_graph(6), path, {2: [2], 0: [0, 2]}),
        "out-of-range": (path_graph(6), path, {0: [-1, 6, 7], 9: [0], -2: [2]}),
        "deep-paths": (path_graph(40), deep, {0: [39], 39: [0], 20: [0, 39]}),
        "4096-initiators": (GRID_64, grid, _all_known(grid, range(64 * 64))),
        "one-of-4096": (GRID_64, grid, {0: [1]}),
    }


TRACEBACK_CASES = _traceback_cases()


class TestTracebackMatchesPrograms:
    """Building programs on demand reproduces the run of every vertex's program."""

    @pytest.mark.parametrize("case", sorted(TRACEBACK_CASES))
    def test_on_demand_matches_every_program(self, case):
        graph, exploration, requests = TRACEBACK_CASES[case]
        args = (graph, exploration, requests, "tb", 9)
        on_demand = _outcome(Simulator, run_traceback, *args)
        assert on_demand == _outcome(_EagerSimulator, run_traceback, *args)
        assert on_demand["charges"][0].label == "tb"

    def test_programs_are_built_only_for_acting_vertices(self, monkeypatch):
        graph, exploration, requests = TRACEBACK_CASES["one-of-4096"]
        built = _count_programs(monkeypatch, "_TracebackProgram")
        sim = Simulator(graph)
        result = run_traceback(sim, exploration, requests)
        assert result.edges == {(0, 1)}
        assert built == [0, 1]
        assert sorted(sim._contexts) == [0, 1]

    def test_no_requests_build_no_program_and_read_no_knowledge(self, monkeypatch):
        graph, exploration, _ = TRACEBACK_CASES["empty"]

        def refuse(*_args, **_kwargs):
            raise AssertionError("the trace-back read the knowledge")

        monkeypatch.setattr(ExplorationResult, "via", refuse)
        built = _count_programs(monkeypatch, "_TracebackProgram")
        tracer = RecordingTracer()
        sim = Simulator(graph, tracer=tracer)
        result = run_traceback(sim, exploration, {}, label="tb", nominal_rounds=4)
        assert built == [] and not sim._contexts
        assert result.edges == set() and result.simulated_rounds == 0
        charges = [(c.label, c.nominal_rounds, c.simulated_rounds, c.messages, c.words)
                   for c in sim.ledger.charges]
        assert charges == [("tb", 4, 0, 0, 0)]
        assert tracer.events == []


def _markup_cases():
    """``name -> (graph, forest, targets)``."""
    grid_forest = run_bfs_forest(Simulator(GRID_64), [0, 2080], depth=200)
    deep = run_bfs_forest(Simulator(path_graph(300)), [0], depth=400)
    sparse = run_bfs_forest(Simulator(SPARSE), [5, 77, 150], depth=6)
    return {
        "sparse": (SPARSE, sparse, sparse.spanned_vertices()[::3]),
        "empty": (SPARSE, sparse, []),
        "roots-only": (SPARSE, sparse, [5, 77, 150]),
        "deep-forest": (path_graph(300), deep, [299, 150]),
        "4096-targets": (GRID_64, grid_forest, range(64 * 64)),
    }


MARKUP_CASES = _markup_cases()


class TestMarkupMatchesPrograms:
    """Building programs on demand reproduces the run of every vertex's program."""

    @pytest.mark.parametrize("case", sorted(MARKUP_CASES))
    def test_on_demand_matches_every_program(self, case):
        graph, forest, targets = MARKUP_CASES[case]
        on_demand = _outcome(Simulator, run_forest_path_markup, graph, forest, targets, "mk")
        eager = _outcome(_EagerSimulator, run_forest_path_markup, graph, forest, targets, "mk")
        assert on_demand == eager
        assert len(on_demand["charges"]) == 1

    def test_deep_forest_takes_one_round_per_level(self):
        graph, forest, targets = MARKUP_CASES["deep-forest"]
        outcome = _outcome(Simulator, run_forest_path_markup, graph, forest, targets, "mk")
        assert len(outcome["edges"]) == 299
        # Vertex 150 starts its own climb in round 0, so the climb from 299
        # stops when it reaches 150 in round 149.
        assert outcome["rounds"] == (400, 150)
        assert outcome["events"] == [(r, 2) for r in range(1, 150)] + [(150, 1)]

    def test_programs_are_built_only_on_the_marked_paths(self, monkeypatch):
        graph, forest, _ = MARKUP_CASES["deep-forest"]
        built = _count_programs(monkeypatch, "_ForestMarkupProgram")
        run_forest_path_markup(Simulator(graph), forest, [150])
        assert built == list(range(150, -1, -1))
