"""Tests for the deterministic fault-injection layer (congest/faults.py)."""

from __future__ import annotations

import hashlib
import json
from typing import List

import pytest

from repro.congest import (
    CongestionViolation,
    FaultPlan,
    LinkOutage,
    Message,
    NodeContext,
    NodeProgram,
    ProtocolError,
    ProtocolFault,
    RecordingTracer,
    RoundLimitExceeded,
    Simulator,
    fault_round_limit,
)
from repro.congest.faults import NEVER, fresh_fault_counters
from repro.graphs import cycle_graph, make_workload, path_graph, planted_partition_graph
from repro.primitives.aggregation import run_broadcast, run_convergecast
from repro.primitives.bfs_forest import run_bfs_forest
from repro.primitives.exploration import run_bounded_exploration
from repro.primitives.fragments import run_boruvka_msf
from repro.primitives.ruling_set import run_ruling_set
from repro.primitives.traceback import run_forest_path_markup, run_traceback

from reference_programs import ForestProgram
from reference_programs import faulted_cases as _faulted_cases


# ----------------------------------------------------------------------
# FaultPlan determinism and validation
# ----------------------------------------------------------------------
def test_same_seed_same_schedule():
    a = FaultPlan(seed=7, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.4, max_delay=3)
    b = FaultPlan(seed=7, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.4, max_delay=3)
    events = [(r, s, t, c) for r in range(5) for s in range(4) for t in range(4) for c in range(2)]
    assert [a.drops(*e) for e in events] == [b.drops(*e) for e in events]
    assert [a.duplicates(*e) for e in events] == [b.duplicates(*e) for e in events]
    assert [a.delay(*e) for e in events] == [b.delay(*e) for e in events]


def test_different_seed_different_schedule():
    a = FaultPlan(seed=1, drop_rate=0.5)
    b = FaultPlan(seed=2, drop_rate=0.5)
    events = [(r, s, t, 0) for r in range(20) for s in range(5) for t in range(5)]
    assert [a.drops(*e) for e in events] != [b.drops(*e) for e in events]


def test_rates_roughly_respected():
    plan = FaultPlan(seed=11, drop_rate=0.25)
    events = [(r, s, t, 0) for r in range(40) for s in range(10) for t in range(10)]
    hit = sum(plan.drops(*e) for e in events)
    assert 0.18 < hit / len(events) < 0.32


def test_delay_bounds():
    plan = FaultPlan(seed=3, delay_rate=1.0, max_delay=4)
    delays = {plan.delay(r, s, t, 0) for r in range(10) for s in range(5) for t in range(5)}
    assert delays <= {1, 2, 3, 4}
    assert len(delays) > 1


def test_validation_errors():
    with pytest.raises(ValueError):
        FaultPlan(seed=0, drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, delay_rate=0.5)  # max_delay missing
    with pytest.raises(ValueError):
        FaultPlan(seed=0, max_delay=-1)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, crash_round=0)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, crashes={3: -1})


def test_inactive_plan():
    assert not FaultPlan(seed=5).active
    assert FaultPlan(seed=5, drop_rate=0.1).active
    assert FaultPlan(seed=5, crashes={0: 2}).active
    assert FaultPlan(seed=5, link_outages=[LinkOutage(0, 1, 0, 3)]).active


def test_crash_schedule_sampling():
    plan = FaultPlan(seed=9, crash_fraction=0.25, crash_round=5)
    schedule = plan.crash_schedule(40)
    assert len(schedule) == 10
    assert all(1 <= r <= 5 for r in schedule.values())
    assert schedule == plan.crash_schedule(40)
    # Explicit crashes override sampling.
    explicit = FaultPlan(seed=9, crash_fraction=0.25, crash_round=5, crashes={0: 7})
    assert explicit.crash_schedule(40)[0] == 7


def test_link_down_symmetric_interval():
    plan = FaultPlan(seed=0, link_outages=[LinkOutage(2, 5, 3, 6)])
    assert not plan.link_down(2, 2, 5)
    assert plan.link_down(3, 2, 5)
    assert plan.link_down(6, 5, 2)
    assert not plan.link_down(7, 2, 5)
    assert not plan.link_down(4, 2, 4)


def test_retry_derives_new_schedule():
    plan = FaultPlan(seed=13, drop_rate=0.5)
    assert plan.retry(0) is plan
    retry1 = plan.retry(1)
    assert retry1.seed != plan.seed
    assert retry1.drop_rate == plan.drop_rate
    assert plan.retry(1) == retry1  # deterministic derivation
    assert plan.retry(2) != retry1


def test_describe_round_trip():
    plan = FaultPlan(
        seed=21,
        drop_rate=0.1,
        duplicate_rate=0.05,
        delay_rate=0.2,
        max_delay=3,
        crash_fraction=0.1,
        crash_round=4,
        crashes={2: 3},
        link_outages=[LinkOutage(0, 1, 1, 2)],
    )
    rebuilt = FaultPlan.from_dict(plan.describe())
    assert rebuilt == plan
    import json

    json.dumps(plan.describe())  # JSON-safe


def test_fault_round_limit_scales_with_delay():
    base = fault_round_limit(10, None)
    delayed = fault_round_limit(10, FaultPlan(seed=0, delay_rate=0.5, max_delay=3))
    assert delayed > base >= 10


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
def _forest(graph, sources, depth, plan=None):
    simulator = Simulator(graph)
    n = graph.num_vertices
    root: List = [None] * n
    dist: List = [None] * n
    parent: List = [None] * n
    programs = [ForestProgram(v, v in set(sources), depth, (root, dist, parent)) for v in range(n)]
    run = simulator.run_protocol(programs, label="forest", nominal_rounds=depth, fault_plan=plan)
    return run, root, dist, parent


def test_no_plan_and_inactive_plan_identical():
    graph = cycle_graph(12)
    run_none, root_none, dist_none, _ = _forest(graph, [0], 4, plan=None)
    run_inactive, root_inactive, dist_inactive, _ = _forest(graph, [0], 4, plan=FaultPlan(seed=99))
    assert run_none.fault_counters is None
    assert run_inactive.fault_counters is None  # inactive plan takes the fault-free path
    assert (run_none.rounds_executed, run_none.messages_delivered, run_none.words_delivered) == (
        run_inactive.rounds_executed,
        run_inactive.messages_delivered,
        run_inactive.words_delivered,
    )
    assert root_none == root_inactive and dist_none == dist_inactive


def test_faulted_run_is_deterministic():
    graph = cycle_graph(16)
    plan = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.3, max_delay=2)
    run_a, root_a, dist_a, parent_a = _forest(graph, [0, 8], 5, plan)
    run_b, root_b, dist_b, parent_b = _forest(graph, [0, 8], 5, plan)
    assert run_a.fault_counters == run_b.fault_counters
    assert (root_a, dist_a, parent_a) == (root_b, dist_b, parent_b)
    assert run_a.rounds_executed == run_b.rounds_executed
    assert run_a.messages_delivered == run_b.messages_delivered


def test_drop_everything_strands_non_sources():
    graph = path_graph(8)
    plan = FaultPlan(seed=1, drop_rate=1.0)
    run, root, dist, _ = _forest(graph, [3], 4, plan)
    assert root == [None, None, None, 3, None, None, None, None]
    assert run.fault_counters["dropped"] > 0
    assert run.messages_delivered == 0


def test_duplicates_count_and_do_not_break_forest():
    graph = path_graph(6)
    clean_run, clean_root, clean_dist, _ = _forest(graph, [0], 5, None)
    plan = FaultPlan(seed=2, duplicate_rate=1.0)
    run, root, dist, _ = _forest(graph, [0], 5, plan)
    # Duplicates are harmless to the forest; labels match the clean run.
    assert root == clean_root and dist == clean_dist
    assert run.fault_counters["duplicated"] > 0
    assert run.messages_delivered > clean_run.messages_delivered


def test_delays_keep_parents_real_edges():
    graph = cycle_graph(10)
    plan = FaultPlan(seed=5, delay_rate=1.0, max_delay=3)
    _, root, dist, parent = _forest(graph, [0], 9, plan)
    neighbors = {v: set(graph.neighbors(v)) for v in range(10)}
    for v in range(10):
        if parent[v] is not None:
            assert parent[v] in neighbors[v]
            assert dist[v] == dist[parent[v]] + 1


def test_crash_stop_node_never_participates():
    graph = path_graph(6)
    plan = FaultPlan(seed=0, crashes={2: 0})  # crashed before round 0
    run, root, dist, _ = _forest(graph, [0], 5, plan)
    # Node 2 never forwards, so the chain stops at node 1.
    assert root[:3] == [0, 0, None]
    assert root[3:] == [None, None, None]
    assert run.fault_counters["crashed_nodes"] == 1
    assert run.fault_counters["lost_to_crash"] > 0


def test_crash_at_later_round_forwards_first():
    graph = path_graph(6)
    plan = FaultPlan(seed=0, crashes={2: 3})  # alive for rounds 0..2
    _, root, dist, _ = _forest(graph, [0], 5, plan)
    # Node 2 hears at round 2, forwards, then crashes: the chain survives.
    assert root == [0] * 6
    assert dist == [0, 1, 2, 3, 4, 5]


def test_crash_stops_an_awake_node_without_executing_its_round():
    class Ticker(NodeProgram):
        def __init__(self, busy: bool) -> None:
            self.busy = busy
            self.ticks = 0

        def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
            self.ticks += 1

        def is_idle(self) -> bool:
            return not self.busy

    tracer = RecordingTracer()
    simulator = Simulator(path_graph(3), tracer=tracer)
    programs = [Ticker(v == 1) for v in range(3)]
    plan = FaultPlan(seed=0, crashes={1: 3})  # alive for rounds 0..2
    run = simulator.run_protocol(programs, max_rounds=20, fault_plan=plan)
    # Node 1 never goes idle on its own; its crash ends the protocol, and
    # the crash round, with nothing left to run, is not an executed round.
    assert [p.ticks for p in programs] == [0, 2, 0]
    assert run.rounds_executed == 2
    assert tracer.events == [(1, 0), (2, 0)]


def test_link_outage_blocks_edge_both_ways():
    graph = path_graph(4)
    plan = FaultPlan(seed=0, link_outages=[LinkOutage(1, 2, 0, 100)])
    run, root, _, _ = _forest(graph, [0], 3, plan)
    assert root == [0, 0, None, None]
    assert run.fault_counters["link_down"] > 0


class _WindowRecorder(Simulator):
    """Records the ``(nominal_rounds, fault_plan, run)`` of every schedule window."""

    def __init__(self, graph):
        super().__init__(graph)
        self.windows = []

    def run_broadcast_schedule(self, queues, deliver, **kwargs):
        run = super().run_broadcast_schedule(queues, deliver, **kwargs)
        self.windows.append((kwargs["nominal_rounds"], kwargs["fault_plan"], run))
        return run


def test_link_outages_follow_the_global_round_clock():
    # Outages on vertex 0's edges for global rounds 0..3: all of phase 1
    # (cap + 1 = 4 rounds).  Phases 2 and 3 open at global rounds 4 and 7,
    # so a message sent in local round r of a window starting at s is
    # blocked exactly when s + r lies in an outage's inclusive interval.
    graph = make_workload("sparse_gnp", 36, seed=7)
    outages = [LinkOutage(0, nb, 0, 3) for nb in sorted(graph.neighbors(0))]
    simulator = _WindowRecorder(graph)
    result = run_bounded_exploration(
        simulator, range(0, 36, 4), depth=3, cap=3,
        fault_plan=FaultPlan(seed=31, link_outages=outages),
    )
    start = 0
    per_phase = []
    for nominal, phase_plan, run in simulator.windows:
        for local in range(run.rounds_executed + 1):
            for u, v in graph.edges():
                blocked = any(
                    {u, v} == {o.u, o.v} and o.start <= start + local <= o.end
                    for o in outages
                )
                assert phase_plan.link_down(local, u, v) == blocked, (start, local, u, v)
        # A window whose projected plan is inactive runs fault-free.
        per_phase.append((run.fault_counters or fresh_fault_counters())["link_down"])
        start += nominal
    assert per_phase == [7, 0, 0]
    assert result.fault_counters["link_down"] == 7


@pytest.mark.parametrize("primitive", ["exploration", "ruling-set"])
def test_crashes_follow_the_global_round_clock_into_tail_rounds(primitive, monkeypatch):
    # Delays keep a window running past its nominal length.  A vertex whose
    # global crash round r has passed is dead in those tail rounds too: the
    # window's plan crashes it by local round t whenever start + t >= r, and
    # it sends nothing there.
    graph = make_workload("sparse_gnp", 36, seed=7)
    outages = [LinkOutage(0, nb, 5, 5) for nb in sorted(graph.neighbors(0))]
    plan = FaultPlan(
        seed=31, delay_rate=0.5, max_delay=5, crashes={0: 5, 3: 2}, link_outages=outages
    )
    simulator = _WindowRecorder(graph)
    sends = []
    broadcast_flat = NodeContext.broadcast_flat

    def recording_broadcast(ctx, *content):
        sends.append((len(simulator.windows), ctx.node_id, ctx.round_index))
        broadcast_flat(ctx, *content)

    monkeypatch.setattr(NodeContext, "broadcast_flat", recording_broadcast)
    if primitive == "exploration":
        run_bounded_exploration(simulator, range(0, 36, 4), depth=3, cap=3, fault_plan=plan)
    else:
        run_ruling_set(simulator, range(36), q=2, c=2, fault_plan=plan)

    crash_at = plan.crash_schedule(36)
    starts = [0]
    tail_rounds = 0
    for nominal, window, run in simulator.windows:
        start = starts[-1]
        local = window.crash_schedule(36) if window is not None else {}
        for v, r in crash_at.items():
            for t in range(run.rounds_executed + 1):
                if start + t >= r:
                    assert local.get(v, NEVER) <= t, (start, v, t)
        tail_rounds += max(0, run.rounds_executed - nominal)
        starts.append(start + nominal)
    assert tail_rounds > 0
    late = [
        (starts[w], v, t) for w, v, t in sends if v in crash_at and starts[w] + t >= crash_at[v]
    ]
    assert late == []


def test_congestion_audit_is_pre_fault():
    class DoubleSend(NodeProgram):
        def __init__(self, node_id: int) -> None:
            self.node_id = node_id

        def on_start(self, ctx: NodeContext) -> None:
            if self.node_id == 0:
                ctx.send(1, "a")
                ctx.send(1, "b")

        def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
            return None

    graph = path_graph(2)
    simulator = Simulator(graph)
    # Even with every message dropped, the attempted sends violate bandwidth.
    plan = FaultPlan(seed=0, drop_rate=1.0)
    with pytest.raises(CongestionViolation):
        simulator.run_protocol([DoubleSend(0), DoubleSend(1)], fault_plan=plan)


def test_injected_duplicates_do_not_violate_bandwidth():
    graph = path_graph(3)
    plan = FaultPlan(seed=0, duplicate_rate=1.0)
    run, _, _, _ = _forest(graph, [0], 2, plan)
    assert run.congestion_violations == []
    assert run.max_edge_congestion == 1  # audit sees the attempted single send


def test_round_limit_in_fault_mode():
    class Chatterbox(NodeProgram):
        def __init__(self, node_id: int) -> None:
            self.node_id = node_id

        def on_start(self, ctx: NodeContext) -> None:
            ctx.broadcast("tick")

        def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
            ctx.broadcast("tock")

    graph = cycle_graph(4)
    simulator = Simulator(graph)
    plan = FaultPlan(seed=0, drop_rate=0.1)
    with pytest.raises(RoundLimitExceeded):
        simulator.run_protocol(
            [Chatterbox(v) for v in range(4)], max_rounds=10, fault_plan=plan
        )
    # The simulator scrubs the aborted run; a fresh protocol still works.
    run, root, _, _ = _forest(graph, [0], 4, None)
    assert root == [0, 0, 0, 0]


def test_tracer_sees_fault_mode_rounds():
    graph = path_graph(5)
    tracer = RecordingTracer()
    simulator = Simulator(graph, tracer=tracer)
    n = 5
    shared = ([None] * n, [None] * n, [None] * n)
    programs = [ForestProgram(v, v == 0, 4, shared) for v in range(n)]
    simulator.run_protocol(programs, fault_plan=FaultPlan(seed=3, duplicate_rate=0.5))
    assert tracer.events  # faulted runs report per-round deliveries


def test_fresh_counters_shape():
    counters = fresh_fault_counters()
    assert set(counters) == {
        "dropped",
        "duplicated",
        "delayed",
        "delay_rounds",
        "link_down",
        "crashed_nodes",
        "lost_to_crash",
    }
    assert all(v == 0 for v in counters.values())


def test_run_bfs_forest_accepts_plan_and_counts():
    graph = cycle_graph(12)
    simulator = Simulator(graph)
    forest = run_bfs_forest(
        simulator, sources=[0], depth=6, fault_plan=FaultPlan(seed=8, drop_rate=0.4)
    )
    assert forest.run.fault_counters is not None
    assert forest.run.fault_counters["dropped"] > 0


def test_storm_plan_injects_faults_into_the_golden_forest():
    # The golden BFS forest (test_golden_run.py) under every fault class.
    graph = planted_partition_graph(8, 12, p_intra=0.5, p_inter=0.03, seed=5)
    storm = FaultPlan(
        seed=41, drop_rate=0.15, duplicate_rate=0.1, delay_rate=0.15, max_delay=2,
        crash_fraction=0.05, crash_round=4,
    )
    forest = run_bfs_forest(
        Simulator(graph), sources=[0, 17, 55, 80], depth=6, fault_plan=storm, max_attempts=3
    )
    counters = forest.run.fault_counters
    assert counters is not None
    assert sum(v for k, v in counters.items() if k != "delay_rounds") > 0


# ----------------------------------------------------------------------
# Pinned faulted outcomes
# ----------------------------------------------------------------------
def _run_faulted_primitive(primitive, graph, plan):
    """Run one hardened primitive under ``plan`` and return its outcome."""
    n = graph.num_vertices
    tracer = RecordingTracer()
    simulator = Simulator(graph, tracer=tracer)
    try:
        if primitive == "forest":
            result = run_bfs_forest(
                simulator, [0, n // 3, (2 * n) // 3], depth=4, fault_plan=plan, max_attempts=2
            )
            run = result.run
            outcome = {
                "labels": [result.root, result.dist, result.parent],
                "run": [
                    run.rounds_executed,
                    run.messages_delivered,
                    run.words_delivered,
                    run.max_edge_congestion,
                ],
                "counters": run.fault_counters,
                "attempts": result.attempts,
            }
        elif primitive == "exploration":
            result = run_bounded_exploration(
                simulator, range(0, n, 4), depth=3, cap=3, fault_plan=plan, max_attempts=2
            )
            outcome = {
                "known": [sorted(d.items()) for d in result.known_dist],
                "via": [sorted(d.items()) for d in result.known_via],
                "popular": sorted(result.popular),
                "run": [result.simulated_rounds, result.messages],
                "counters": result.fault_counters,
                "attempts": result.attempts,
            }
        else:
            result = run_ruling_set(
                simulator, range(n), q=2, c=2, fault_plan=plan, max_attempts=2
            )
            outcome = {
                "ruling_set": sorted(result.ruling_set),
                "run": [result.simulated_rounds],
                "counters": result.fault_counters,
                "attempts": result.attempts,
            }
    except ProtocolFault as fault:
        outcome = {"fault": [fault.label, fault.reason, fault.attempts]}
    outcome["ledger"] = [
        [c.label, c.nominal_rounds, c.simulated_rounds, c.messages, c.words, c.max_edge_congestion]
        for c in simulator.ledger.charges
    ]
    outcome["trace"] = tracer.events
    return outcome


def test_faulted_outcomes_are_pinned():
    # Recorded once link outages and crashes were both projected onto the
    # global round clock, tail rounds included
    # (test_link_outages_follow_the_global_round_clock,
    # test_crashes_follow_the_global_round_clock_into_tail_rounds); any drift
    # means the fault filter changed what a faulted run delivers.
    outcomes = []
    gap_seen = False
    for graph, name, plan in _faulted_cases():
        for primitive in ("forest", "exploration", "ruling-set"):
            outcome = _run_faulted_primitive(primitive, graph, plan)
            outcomes.append([graph.num_vertices, name, primitive, outcome])
            if name == "long-delays":
                events = outcome["trace"]
                gap_seen |= any(b[0] > a[0] + 1 for a, b in zip(events, events[1:]))
    assert gap_seen  # some round index was fast-forwarded over
    payload = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    assert digest == "0c282d2799b08b20"


# ----------------------------------------------------------------------
# Wall-clock hints under faults
# ----------------------------------------------------------------------
_HINTS = ("starters", "message_driven")


class _PlannedSimulator(Simulator):
    """Runs every protocol under one plan, with or without the caller's hints.

    Each :class:`ProtocolRun` is recorded so two runs of the same caller can
    be compared field by field.
    """

    def __init__(self, graph, plan, keep_hints):
        super().__init__(graph)
        self.plan = plan
        self.keep_hints = keep_hints
        self.runs = []

    def run_protocol(self, programs, **kwargs):
        if not self.keep_hints:
            if callable(programs):
                # A factory needs starters: hand over every node's program.
                programs = [programs(v) for v in range(self.graph.num_vertices)]
            for hint in _HINTS:
                kwargs.pop(hint, None)
        run = super().run_protocol(programs, fault_plan=self.plan, **kwargs)
        self.runs.append(run)
        return run


def _hinted_callers():
    """``name -> caller(simulator)`` for every protocol driver that passes hints."""
    graph = make_workload("sparse_gnp", 36, seed=7)
    n = graph.num_vertices
    exploration = run_bounded_exploration(Simulator(graph), range(0, n, 3), depth=3, cap=4)
    requests = {
        c: [k for k in exploration.known_dist[c] if k != c] for c in exploration.centers
    }
    forest = run_bfs_forest(Simulator(graph), [0, n // 2], depth=5)
    tree = run_bfs_forest(Simulator(graph), [0], depth=n)
    callers = {
        "traceback": lambda sim: run_traceback(sim, exploration, requests),
        "forest-markup": lambda sim: run_forest_path_markup(
            sim, forest, forest.spanned_vertices()[::2]
        ),
        "flood": lambda sim: run_broadcast(sim, 0, 5),
        "convergecast": lambda sim: run_convergecast(
            sim, 0, list(range(n)), lambda a, b: a + b, tree=tree
        ),
        "fragments": run_boruvka_msf,
    }
    return graph, callers


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(
            seed=17,
            drop_rate=0.1,
            duplicate_rate=0.1,
            delay_rate=0.2,
            max_delay=3,
            crash_fraction=0.1,
            crash_round=3,
        ),
        FaultPlan(seed=17, delay_rate=0.3, max_delay=2, crashes={0: 0, 1: 0, 3: 1}),
    ],
    ids=["mixed", "starter-crash"],
)
def test_hints_are_outcome_neutral_under_faults(plan):
    graph, callers = _hinted_callers()
    for name, caller in callers.items():
        observed = []
        for keep_hints in (True, False):
            simulator = _PlannedSimulator(graph, plan, keep_hints)
            try:
                outcome = caller(simulator)
            except (KeyError, ProtocolError) as error:
                # Boruvka is not fault-hardened: a faulted phase can leave
                # its merge bookkeeping inconsistent.
                outcome = (type(error).__name__, str(error))
            observed.append((outcome, simulator.runs, simulator.ledger.charges))
        hinted, plain = observed
        assert hinted == plain, name
        runs = hinted[1]
        assert runs and all(run.fault_counters is not None for run in runs), name
        injected = sum(
            count
            for run in runs
            for key, count in run.fault_counters.items()
            if key != "delay_rounds"
        )
        assert injected > 0, name
