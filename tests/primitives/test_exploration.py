"""Tests for Algorithm 1 (bounded multi-source exploration / popular-cluster detection)."""

from __future__ import annotations

from typing import List

import pytest

import repro.congest.simulator as simulator_module
import repro.kernels as kernels
import repro.primitives.exploration as exploration_module
from repro.congest import (
    CongestionViolation,
    Message,
    MessageTooLarge,
    NodeContext,
    NodeProgram,
    RecordingTracer,
    RoundLimitExceeded,
    Simulator,
)
from repro.graphs import (
    Graph,
    bfs_distances,
    complete_graph,
    cycle_graph,
    disjoint_union,
    gnp_random_graph,
    grid_graph,
    path_graph,
    sparse_gnp_random_graph,
    star_graph,
)
from repro.primitives import centralized_bounded_exploration, run_bounded_exploration
from repro.primitives.exploration import _run_exploration_once, centralized_engine_exploration
from repro.primitives.traceback import centralized_traceback_flat

from reference_programs import explore_with_programs, faulted_cases


def run_both(graph, centers, depth, cap):
    """Run the distributed and the centralized variants."""
    sim = Simulator(graph, strict_congestion=True)
    distributed = run_bounded_exploration(sim, centers, depth, cap)
    centralized = centralized_bounded_exploration(graph, centers, depth, cap)
    return distributed, centralized


class TestPopularityDetection:
    def test_star_center_is_popular(self):
        graph = star_graph(6)
        distributed, centralized = run_both(graph, range(7), depth=1, cap=3)
        assert 0 in distributed.popular
        assert distributed.popular == centralized.popular
        # leaves see only the hub within distance 1
        assert all(leaf not in distributed.popular for leaf in range(1, 7))

    def test_popular_matches_true_neighbourhood_counts(self):
        graph = gnp_random_graph(50, 0.1, seed=3)
        centers = list(range(50))
        depth, cap = 2, 6
        distributed, _ = run_both(graph, centers, depth, cap)
        for center in centers:
            true_count = len(
                [v for v, d in bfs_distances(graph, center, max_depth=depth).items() if v != center]
            )
            assert (center in distributed.popular) == (true_count >= cap)

    def test_no_popular_when_cap_exceeds_graph(self):
        graph = cycle_graph(8)
        distributed, _ = run_both(graph, range(8), depth=2, cap=10)
        assert distributed.popular == set()

    def test_popular_sets_agree_between_engines(self, community_graph):
        distributed, centralized = run_both(
            community_graph, range(community_graph.num_vertices), depth=1, cap=4
        )
        assert distributed.popular == centralized.popular


class TestKnowledgeGuarantee:
    def test_non_popular_centers_know_everything_within_depth(self):
        """Theorem 2.1(2): non-popular centers learn all centers within delta, exactly."""
        graph = gnp_random_graph(40, 0.08, seed=5)
        centers = list(range(40))
        depth, cap = 3, 5
        distributed, _ = run_both(graph, centers, depth, cap)
        for center in centers:
            if center in distributed.popular:
                continue
            true_near = {
                v: d
                for v, d in bfs_distances(graph, center, max_depth=depth).items()
                if v in set(centers)
            }
            assert set(distributed.known[center].keys()) == set(true_near.keys())
            for other, entry in distributed.known[center].items():
                assert entry.distance == true_near[other]

    def test_recorded_distances_never_below_true_distance(self):
        graph = gnp_random_graph(40, 0.1, seed=9)
        centers = list(range(0, 40, 2))
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth=3, cap=4)
        for v in range(40):
            true_dist = bfs_distances(graph, v, max_depth=10)
            for center, entry in result.known[v].items():
                assert entry.distance >= true_dist[center]
                assert entry.distance <= 3

    def test_every_vertex_knows_at_least_min_cap_or_all(self):
        """Lemma A.1 on every vertex, not just centers."""
        graph = grid_graph(6, 6)
        centers = list(range(36))
        depth, cap = 2, 4
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth, cap)
        for v in range(36):
            true_count = len(bfs_distances(graph, v, max_depth=depth))
            assert len(result.known[v]) >= min(cap, true_count)

    def test_trace_path_follows_edges_and_has_recorded_length(self):
        graph = grid_graph(5, 5)
        centers = [0, 12, 24]
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth=5, cap=3)
        for v in range(25):
            for center, entry in result.known[v].items():
                path = result.trace_path(v, center)
                assert len(path) - 1 == entry.distance
                for a, b in zip(path, path[1:]):
                    assert graph.has_edge(a, b)

    def test_trace_path_unknown_center_raises(self, path_6):
        sim = Simulator(path_6)
        result = run_bounded_exploration(sim, [0], depth=1, cap=2)
        with pytest.raises(ValueError):
            result.trace_path(5, 0)


class TestSchedulingAndAccounting:
    def test_nominal_rounds_formula(self, grid_5x5):
        sim = Simulator(grid_5x5)
        result = run_bounded_exploration(sim, range(25), depth=4, cap=3)
        assert result.nominal_rounds == 1 + 3 * 4
        # The full schedule is charged to the ledger even if the network went
        # quiet early.
        assert sim.ledger.nominal_rounds == result.nominal_rounds

    def test_respects_congestion_budget(self, community_graph):
        sim = Simulator(community_graph, strict_congestion=True)
        run_bounded_exploration(sim, range(community_graph.num_vertices), depth=2, cap=5)
        assert sim.ledger.max_edge_congestion <= 1

    def test_centers_know_themselves_at_distance_zero(self):
        graph = cycle_graph(6)
        _, centralized = run_both(graph, [2, 4], depth=2, cap=2)
        assert centralized.known[2][2].distance == 0
        assert centralized.known[4][4].distance == 0

    def test_empty_center_set(self, path_6):
        sim = Simulator(path_6)
        result = run_bounded_exploration(sim, [], depth=2, cap=2)
        assert result.popular == set()
        assert all(not known for known in result.known)

    def test_invalid_parameters_rejected(self, path_6):
        sim = Simulator(path_6)
        with pytest.raises(ValueError):
            run_bounded_exploration(sim, [0], depth=-1, cap=1)
        with pytest.raises(ValueError):
            run_bounded_exploration(sim, [0], depth=1, cap=0)
        with pytest.raises(ValueError):
            run_bounded_exploration(sim, [77], depth=1, cap=1)

    def test_known_centers_accessor_sorted(self):
        graph = complete_graph(5)
        _, centralized = run_both(graph, range(5), depth=1, cap=10)
        assert centralized.known_centers(0) == [0, 1, 2, 3, 4]
        assert centralized.distance_to(0, 3) == 1
        assert centralized.distance_to(0, 99) is None


def explore_traced(graph, centers, depth, cap, plan=None, simulator=None, reference=False):
    """One exploration from fresh state with everything observable recorded.

    ``reference=False`` runs :func:`_run_exploration_once` (the broadcast
    schedules); ``reference=True`` runs the per-node reference programs.
    Either runs under ``plan``; a round timeout is recorded as the outcome.
    """
    tracer = RecordingTracer()
    sim = simulator if simulator is not None else Simulator(graph, tracer=tracer)
    if simulator is not None:
        sim.tracer = tracer
    explore = explore_with_programs if reference else _run_exploration_once
    try:
        result = explore(sim, sorted(set(centers)), depth, cap, "exploration", plan, 1)
    except RoundLimitExceeded as error:
        result = None
        outcome = {"timeout": error.max_rounds}
    else:
        outcome = {
            "known_dist": result.known_dist,
            "known_via": result.known_via,
            "popular": result.popular,
            "simulated_rounds": result.simulated_rounds,
            "messages": result.messages,
            "fault_counters": result.fault_counters,
            "attempts": result.attempts,
        }
    outcome["charges"] = sim.ledger.charges
    outcome["events"] = tracer.events
    return outcome, result


def _isolated_center_graph():
    graph = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    return graph, [0, 3, 6]


EQUIVALENCE_CASES = {
    "sparse-gnp-a": (sparse_gnp_random_graph(120, 0.05, seed=1), range(0, 120, 2), 3, 4),
    "sparse-gnp-b": (sparse_gnp_random_graph(200, 0.03, seed=7), range(0, 200, 5), 4, 3),
    "sparse-gnp-c": (sparse_gnp_random_graph(150, 0.06, seed=12), range(150), 2, 6),
    "grid": (grid_graph(6, 7), range(0, 42, 3), 3, 3),
    "star": (star_graph(9), range(10), 2, 3),
    "all-centers-depth-1": (gnp_random_graph(60, 0.1, seed=4), range(60), 1, 5),
    "cap-truncation": (complete_graph(12), range(12), 2, 2),
    "depth-saturates-graph": (path_graph(9), [0, 4, 8], 12, 10),
    "empty-centers": (cycle_graph(8), [], 3, 2),
    "isolated-center": (*_isolated_center_graph(), 3, 2),
}


def _insertion_orders(outcome):
    """Each knowledge dict's items in insertion order (what iteration sees)."""
    return [
        [list(known.items()) for known in outcome[field]]
        for field in ("known_dist", "known_via")
    ]


FAULTED_CASES = list(faulted_cases())
FAULTED_IDS = [f"{graph.num_vertices}-{name}" for graph, name, _ in FAULTED_CASES]
FAULTED_CONFIGS = {
    "every-fourth": lambda n: (range(0, n, 4), 3, 3),
    "all-centers": lambda n: (range(n), 2, 4),
    "deep-sparse": lambda n: (range(0, n, 7), 5, 2),
}


needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy/scipy not installed"
)


class TestBroadcastScheduleEquivalence:
    """The broadcast schedule reproduces the per-node programs exactly, with or without faults."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_schedule_matches_reference_programs(self, backend, case):
        # The python kernel runs the per-broadcast form, numpy the array tier.
        graph, centers, depth, cap = EQUIVALENCE_CASES[case]
        schedule, _ = explore_traced(graph, centers, depth, cap)
        reference, _ = explore_traced(graph, centers, depth, cap, reference=True)
        assert schedule == reference
        assert _insertion_orders(schedule) == _insertion_orders(reference)
        assert schedule["fault_counters"] is None

    @pytest.mark.parametrize("config", sorted(FAULTED_CONFIGS))
    @pytest.mark.parametrize(
        "graph, plan", [case[::2] for case in FAULTED_CASES], ids=FAULTED_IDS
    )
    def test_schedule_matches_reference_programs_under_faults(self, graph, plan, config):
        centers, depth, cap = FAULTED_CONFIGS[config](graph.num_vertices)
        schedule, _ = explore_traced(graph, centers, depth, cap, plan=plan)
        reference, _ = explore_traced(graph, centers, depth, cap, plan=plan, reference=True)
        assert schedule == reference
        if "timeout" not in schedule:
            assert _insertion_orders(schedule) == _insertion_orders(reference)
            assert schedule["fault_counters"] is not None

    def test_cap_truncation_case_truncates(self):
        graph, centers, depth, cap = EQUIVALENCE_CASES["cap-truncation"]
        outcome, _ = explore_traced(graph, centers, depth, cap)
        assert all(len(known) > cap for known in outcome["known_dist"])
        assert outcome["popular"] == set(centers)

    def test_isolated_center_executes_no_extra_round(self):
        graph, centers, depth, cap = EQUIVALENCE_CASES["isolated-center"]
        outcome, _ = explore_traced(graph, centers, depth, cap)
        assert outcome["known_dist"][6] == {6: 0}
        # Phase 1 delivers the connected centers' announcements in one round.
        assert outcome["charges"][0].simulated_rounds == 1

    def test_isolated_sole_center_is_charged_without_executing(self):
        graph = Graph(3, [(0, 1)])
        outcome, _ = explore_traced(graph, [2], 2, 2)
        labels = [(c.label, c.simulated_rounds, c.messages) for c in outcome["charges"]]
        assert labels == [
            ("exploration:phase1", 0, 0),
            ("exploration:idle-schedule", 0, 0),
        ]
        assert outcome["events"] == []


@needs_numpy
class TestArrayTierEquivalence:
    """The array tier matches the per-broadcast form however it is blocked."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_phases_spanning_many_blocks(self, kernel, monkeypatch, case):
        graph, centers, depth, cap = EQUIVALENCE_CASES[case]
        kernel(kernels.KERNEL_PYTHON)
        expected, _ = explore_traced(graph, centers, depth, cap)
        kernel(kernels.KERNEL_NUMPY)
        monkeypatch.setattr(simulator_module, "BROADCAST_BLOCK", 5)
        blocked, _ = explore_traced(graph, centers, depth, cap)
        assert blocked == expected
        assert _insertion_orders(blocked) == _insertion_orders(expected)

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_sorted_fallback_spanning_many_blocks(self, kernel, monkeypatch, case):
        # The cases above fit the dense table; a zero cap sends every
        # exploration to the sorted-key fallback instead.
        graph, centers, depth, cap = EQUIVALENCE_CASES[case]
        kernel(kernels.KERNEL_PYTHON)
        expected, _ = explore_traced(graph, centers, depth, cap)
        kernel(kernels.KERNEL_NUMPY)
        monkeypatch.setattr(simulator_module, "BROADCAST_BLOCK", 5)
        monkeypatch.setattr(exploration_module, "DENSE_KNOWLEDGE_MAX_CELLS", 0)
        fallback, _ = explore_traced(graph, centers, depth, cap)
        assert fallback == expected
        assert _insertion_orders(fallback) == _insertion_orders(expected)

    @pytest.mark.parametrize(
        "cap_offset, table",
        [(1, "_DenseSeen"), (0, "_DenseSeen"), (-1, "_SortedSeen")],
        ids=["n-k-below-cap", "n-k-at-cap", "n-k-above-cap"],
    )
    def test_the_cap_picks_the_table(self, kernel, monkeypatch, cap_offset, table):
        graph, centers, depth, cap = EQUIVALENCE_CASES["sparse-gnp-b"]
        cells = graph.num_vertices * len(set(centers))
        kernel(kernels.KERNEL_NUMPY)
        monkeypatch.setattr(exploration_module, "DENSE_KNOWLEDGE_MAX_CELLS", cells + cap_offset)
        picked = []
        seen_table = exploration_module._seen_table

        def spy(*args):
            picked.append(type(seen_table(*args)).__name__)
            return seen_table(*args)

        monkeypatch.setattr(exploration_module, "_seen_table", spy)
        outcome, _ = explore_traced(graph, centers, depth, cap)
        assert picked == [table]
        kernel(kernels.KERNEL_PYTHON)
        expected, _ = explore_traced(graph, centers, depth, cap)
        assert outcome == expected

    def test_the_default_cap_keeps_phase_zero_off_the_dense_table(self):
        # Every vertex a center: n * k = n^2 passes the cap past n = 2048.
        side = kernels.AUTO_MIN_SCHEDULE_VERTICES
        assert side * side <= kernels.DENSE_KNOWLEDGE_MAX_CELLS
        assert (side + 1) * (side + 1) > kernels.DENSE_KNOWLEDGE_MAX_CELLS

    @pytest.mark.parametrize("case", ["sparse-gnp-c", "cap-truncation", "grid"])
    def test_overflow_fallback_matches_packed_sort(self, kernel, monkeypatch, case):
        graph, centers, depth, cap = EQUIVALENCE_CASES[case]
        kernel(kernels.KERNEL_NUMPY)
        packed, _ = explore_traced(graph, centers, depth, cap)
        # A zero bound sends every block down the stable-argsort fallback.
        monkeypatch.setattr(exploration_module, "_PACKED_KEY_LIMIT", 0)
        fallback, _ = explore_traced(graph, centers, depth, cap)
        assert fallback == packed
        assert _insertion_orders(fallback) == _insertion_orders(packed)

    def test_first_arrivals_are_first_occurrences_on_both_sort_paths(self):
        np = kernels.require_numpy()
        keys = np.array([7, 3, 7, 3, 9, 0, 9, 7, 0], dtype=np.int64)
        expected = [5, 1, 0, 4]  # first positions of keys 0, 3, 7, 9
        packed = exploration_module._first_arrivals(np, keys, 10)
        fallback = exploration_module._first_arrivals(np, keys, 1 << 62)
        assert packed.tolist() == fallback.tolist() == expected


def engine_outcome(graph, centers, depth, cap):
    """Near centers, parents (int lists), popular set and trace-back edges."""
    exploration = centralized_engine_exploration(graph, centers, depth, cap)
    near = {c: list(v) for c, v in exploration.near_centers.items()}
    parents = {c: [int(p) for p in v] for c, v in exploration.parents.items()}
    edges = centralized_traceback_flat(exploration, near)
    return near, parents, exploration.popular, sorted(edges)


ENGINE_CASES = {
    "components": (
        disjoint_union([sparse_gnp_random_graph(40, 0.1, seed=3), grid_graph(4, 5), path_graph(7)]),
        [0, 11, 39, 40, 52, 59, 60, 66],
    ),
    "isolated-centers": (Graph(9, [(0, 1), (1, 2), (2, 3), (5, 6)]), [0, 3, 4, 6, 8]),
    "sparse-gnp": (sparse_gnp_random_graph(150, 0.03, seed=21), range(0, 150, 4)),
    # Eccentricity 18 from the corners: every depth below it truncates.
    "grid": (grid_graph(10, 10), [0, 9, 45, 90, 99]),
}


@needs_numpy
class TestCompiledTraversalEquivalence:
    """The centralized engine's compiled traversal matches the CPython loop."""

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_backends_agree(self, kernel, case, depth):
        graph, centers = ENGINE_CASES[case]
        kernel(kernels.KERNEL_PYTHON)
        expected = engine_outcome(graph, centers, depth, cap=2)
        kernel(kernels.KERNEL_NUMPY)
        outcome = engine_outcome(graph, centers, depth, cap=2)
        assert outcome == expected
        _near, parents, _popular, edges = outcome
        # SciPy's -9999 "unreached" sentinel never reaches the output.
        assert all(min(parent) >= -1 for parent in parents.values())
        assert all(type(endpoint) is int for edge in edges for endpoint in edge)

    @pytest.mark.parametrize("depth", [0, 2, 7, 17, 18])
    def test_parents_stop_at_depth(self, kernel, depth):
        graph, centers = ENGINE_CASES["grid"]
        kernel(kernels.KERNEL_NUMPY)
        exploration = centralized_engine_exploration(graph, centers, depth, cap=2)
        for center in centers:
            dist = bfs_distances(graph, center)
            reached = {v for v, p in enumerate(exploration.parents[center]) if p >= 0}
            assert reached == {v for v, d in dist.items() if d <= depth}


class TestBroadcastScheduleErrorPaths:
    def test_oversized_messages_still_raise(self, backend):
        sim = Simulator(cycle_graph(6), max_words_per_message=2)
        with pytest.raises(MessageTooLarge):
            run_bounded_exploration(sim, [0, 3], depth=2, cap=2)
        assert sim.ledger.charges == []

    def test_lenient_congestion_records_no_violations(self, backend):
        graph = sparse_gnp_random_graph(100, 0.06, seed=3)
        sim = Simulator(graph, strict_congestion=False)
        runs = []
        entry = "run_broadcast_schedule" if backend == "python" else "run_broadcast_arrays"
        schedule = getattr(sim, entry)

        def spy(*args, **kwargs):
            runs.append(schedule(*args, **kwargs))
            return runs[-1]

        setattr(sim, entry, spy)
        lenient = run_bounded_exploration(sim, range(100), depth=3, cap=4)
        strict = run_bounded_exploration(Simulator(graph), range(100), depth=3, cap=4)
        assert runs and all(run.congestion_violations == [] for run in runs)
        assert all(run.max_edge_congestion <= 1 for run in runs)
        assert lenient.known_dist == strict.known_dist
        assert lenient.known_via == strict.known_via

    def test_exploration_after_aborted_run_matches_fresh_simulator(self):
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
        after_abort, _ = explore_traced(graph, range(0, 25, 2), 3, 3, simulator=aborted)
        fresh, _ = explore_traced(graph, range(0, 25, 2), 3, 3)
        assert after_abort == fresh
        # The reference programs, which do use the scheduler's buffers, agree too.
        reference, _ = explore_traced(
            graph, range(0, 25, 2), 3, 3, simulator=aborted, reference=True
        )
        assert reference["known_dist"] == fresh["known_dist"]
        assert reference["known_via"] == fresh["known_via"]


def _accessor_outcome(result, n):
    """Everything the accessors answer, read before any knowledge dict exists."""
    probes = sorted(set(result.centers) | {0, n - 1})
    paths = {}
    for v in range(n):
        for center in probes:
            try:
                paths[v, center] = result.trace_path(v, center)
            except ValueError as error:
                paths[v, center] = str(error)
    return {
        "known_centers": [result.known_centers(v) for v in range(n)],
        "distance_to": {(v, c): result.distance_to(v, c) for v in range(n) for c in probes},
        "via": {(v, c): result.via(v, c) for v in range(n) for c in probes},
        "self": [(result.distance_to(v, v), result.via(v, v)) for v in range(n)],
        "trace_path": paths,
        "popular": result.popular,
    }


class TestKnowledgeAccessors:
    """Both knowledge backings answer every accessor and dict view alike."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_accessors_match_reference_programs(self, backend, case):
        # The python kernel keeps dicts; numpy keeps arrays until a dict is read.
        graph, centers, depth, cap = EQUIVALENCE_CASES[case]
        n = graph.num_vertices
        result = _run_exploration_once(
            Simulator(graph), sorted(set(centers)), depth, cap, "exploration", None, 1
        )
        reference = explore_with_programs(Simulator(graph), centers, depth, cap)
        assert (result._arrays is not None) == (backend == kernels.KERNEL_NUMPY)
        outcome = _accessor_outcome(result, n)
        assert outcome == _accessor_outcome(reference, n)
        assert all(type(c) is int for known in outcome["known_centers"] for c in known)
        assert all(type(d) in (int, type(None)) for d in outcome["distance_to"].values())
        assert all(type(u) in (int, type(None)) for u in outcome["via"].values())
        # The lazy views replay the learns in the Python tier's order.
        assert _insertion_orders(
            {"known_dist": result.known_dist, "known_via": result.known_via}
        ) == _insertion_orders(
            {"known_dist": reference.known_dist, "known_via": reference.known_via}
        )
        assert result.known == reference.known
        # Once materialized, the dicts answer the accessors.
        assert result._arrays is None
        assert _accessor_outcome(result, n) == outcome

    def test_out_of_range_ids_are_unknown(self, backend):
        # ``v * n + center`` must not alias a neighbouring vertex's entry.
        graph, centers, depth, cap = EQUIVALENCE_CASES["sparse-gnp-a"]
        n = graph.num_vertices
        result = run_bounded_exploration(Simulator(graph), centers, depth, cap)
        aliased = 0
        for v in range(n):
            for center in result.known_centers(v):
                if v > 0:
                    aliased += 1
                    assert result.distance_to(v - 1, center + n) is None
                    assert result.via(v - 1, center + n) is None
                if v < n - 1:
                    assert result.distance_to(v + 1, center - n) is None
                    assert result.via(v + 1, center - n) is None
        assert aliased
        if backend == kernels.KERNEL_NUMPY:
            assert result._arrays is not None
            for v in (-1, n, n + 1):
                assert result.distance_to(v, 0) is None and result.via(v, 0) is None

    def test_trace_path_rejects_a_cyclic_via_chain(self, backend, path_6):
        result = run_bounded_exploration(Simulator(path_6), [0], depth=3, cap=2)
        assert result.trace_path(3, 0) == [3, 2, 1, 0]
        result.known_via[2][0] = 3  # 3 -> 2 -> 3 -> ...
        with pytest.raises(ValueError, match="broken via chain"):
            result.trace_path(3, 0)

    @needs_numpy
    def test_engine_readers_leave_the_array_backing_unmaterialized(self, kernel):
        from repro.core.interconnection import interconnection_requests
        from repro.primitives.traceback import run_traceback

        kernel(kernels.KERNEL_NUMPY)
        graph, centers, depth, cap = EQUIVALENCE_CASES["sparse-gnp-b"]
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth, cap)
        requests = interconnection_requests(result.centers, result)
        traced = run_traceback(sim, result, requests)
        assert traced.edges
        assert result._arrays is not None and result._known_dist is None
        assert result._known_via is None and result._known is None

    @needs_numpy
    def test_fault_free_array_build_materializes_no_dict(self, kernel, monkeypatch):
        import repro

        def refuse(*_):
            raise AssertionError("knowledge dicts materialized")

        kernel(kernels.KERNEL_NUMPY)
        graph = sparse_gnp_random_graph(300, 0.03, seed=5)
        expected = sorted(repro.build("new-distributed", graph).spanner.edges())
        monkeypatch.setattr(exploration_module._KnowledgeArrays, "dicts", refuse)
        run = repro.build("new-distributed", graph)
        assert sorted(run.spanner.edges()) == expected
        # The interconnection step really traced paths over the arrays.
        assert sum(phase["interconnection_paths"] for phase in run.phases) > 0
