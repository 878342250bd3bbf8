"""Unit tests for the synchronous CONGEST simulator."""

from __future__ import annotations

from typing import List

import pytest

import repro.congest.simulator as simulator_module
import repro.kernels as kernels
from repro.congest import (
    CongestionViolation,
    FaultPlan,
    LinkOutage,
    Message,
    MessageTooLarge,
    NodeContext,
    NodeProgram,
    ProtocolError,
    RecordingTracer,
    RoundLimitExceeded,
    Simulator,
    fault_round_limit,
)
from repro.graphs import Graph, cycle_graph, grid_graph, path_graph, star_graph


class FloodOnce(NodeProgram):
    """Source announces once; everyone forwards the first time they hear it."""

    def __init__(self, node_id: int, is_source: bool) -> None:
        self.node_id = node_id
        self.is_source = is_source
        self.heard_at = 0 if is_source else None

    def on_start(self, ctx: NodeContext) -> None:
        if self.is_source:
            ctx.broadcast("flood")

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        if self.heard_at is None and any(m.content[0] == "flood" for m in inbox):
            self.heard_at = ctx.round_index
            ctx.broadcast("flood")

    def result(self):
        return self.heard_at


class ChattyProgram(NodeProgram):
    """Deliberately violates the per-edge bandwidth by sending two messages per round."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: NodeContext) -> None:
        for _ in range(2):
            for neighbor in ctx.neighbors:
                ctx.send(neighbor, "spam")

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        return None


class NeverIdle(NodeProgram):
    """Claims it always has work, so the protocol cannot quiesce."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        return None

    def is_idle(self) -> bool:
        return False


class QueueBroadcaster(NodeProgram):
    """Broadcasts its queued payloads one per round; logs every reception.

    A vertex that starts without a queue forwards: the first round it hears
    anything, it queues ``copies`` payloads of its own.
    """

    def __init__(self, node_id: int, queue, log, copies: int = 0) -> None:
        self.node_id = node_id
        self.queue = list(queue)
        self.log = log
        self.copies = copies
        self.forwards = not self.queue

    def on_start(self, ctx: NodeContext) -> None:
        if self.queue:
            ctx.broadcast_flat(*self.queue.pop(0))

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        for message in inbox:
            self.log.append((self.node_id, message.sender, message.content))
        if inbox and self.forwards:
            self.forwards = False
            self.queue = [("fwd", self.node_id, ctx.round_index)] * self.copies
        self.on_start(ctx)

    def is_idle(self) -> bool:
        return not self.queue


class TestBasicExecution:
    def test_flood_reaches_everyone_in_distance_rounds(self):
        graph = path_graph(6)
        sim = Simulator(graph)
        programs = [FloodOnce(v, v == 0) for v in range(6)]
        run = sim.run_protocol(programs, label="flood")
        assert run.results == [0, 1, 2, 3, 4, 5]
        # 5 rounds to reach the far end plus one final round delivering the
        # last vertex's (ignored) echo.
        assert run.rounds_executed == 6

    def test_flood_on_star_terminates_quickly(self):
        graph = star_graph(5)
        sim = Simulator(graph)
        programs = [FloodOnce(v, v == 1) for v in range(6)]
        run = sim.run_protocol(programs)
        assert run.rounds_executed == 3
        assert run.results[0] == 1

    def test_messages_counted(self):
        graph = cycle_graph(4)
        sim = Simulator(graph)
        programs = [FloodOnce(v, v == 0) for v in range(4)]
        run = sim.run_protocol(programs)
        assert run.messages_delivered >= 4
        assert run.words_delivered == run.messages_delivered  # single-word payloads

    def test_isolated_vertices_do_not_block_termination(self):
        graph = Graph(3, [(0, 1)])
        sim = Simulator(graph)
        programs = [FloodOnce(v, v == 0) for v in range(3)]
        run = sim.run_protocol(programs)
        assert run.results[2] is None

    def test_no_source_protocol_terminates_immediately(self):
        graph = path_graph(4)
        sim = Simulator(graph)
        programs = [FloodOnce(v, False) for v in range(4)]
        run = sim.run_protocol(programs)
        assert run.rounds_executed == 0

    def test_program_count_must_match(self):
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_protocol([FloodOnce(0, True)])


class TestCongestionAccounting:
    def test_strict_mode_raises_on_violation(self):
        graph = path_graph(3)
        sim = Simulator(graph, bandwidth_messages=1, strict_congestion=True)
        with pytest.raises(CongestionViolation):
            sim.run_protocol([ChattyProgram(v) for v in range(3)])

    def test_lenient_mode_records_violations(self):
        graph = path_graph(3)
        sim = Simulator(graph, bandwidth_messages=1, strict_congestion=False)
        run = sim.run_protocol([ChattyProgram(v) for v in range(3)])
        assert run.violated_congestion
        assert run.max_edge_congestion == 2

    def test_larger_bandwidth_allows_batch(self):
        graph = path_graph(3)
        sim = Simulator(graph, bandwidth_messages=2)
        run = sim.run_protocol([ChattyProgram(v) for v in range(3)])
        assert not run.violated_congestion

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator(path_graph(2), bandwidth_messages=0)

    def test_flood_has_unit_congestion(self):
        graph = cycle_graph(6)
        sim = Simulator(graph)
        run = sim.run_protocol([FloodOnce(v, v == 0) for v in range(6)])
        assert run.max_edge_congestion == 1


class TestTerminationAndLedger:
    def test_round_limit_enforced(self):
        graph = path_graph(2)
        sim = Simulator(graph)
        with pytest.raises(RoundLimitExceeded):
            sim.run_protocol([NeverIdle(v) for v in range(2)], max_rounds=5)

    def test_ledger_records_nominal_rounds(self):
        graph = path_graph(5)
        sim = Simulator(graph)
        sim.run_protocol([FloodOnce(v, v == 0) for v in range(5)], label="flood", nominal_rounds=100)
        assert sim.ledger.nominal_rounds == 100
        assert sim.ledger.simulated_rounds == 5
        assert sim.ledger.charges[0].label == "flood"

    def test_ledger_defaults_to_executed_rounds(self):
        graph = path_graph(5)
        sim = Simulator(graph)
        sim.run_protocol([FloodOnce(v, v == 0) for v in range(5)])
        assert sim.ledger.nominal_rounds == 5

    def test_tracer_sees_every_round(self):
        tracer = RecordingTracer()
        graph = path_graph(6)
        sim = Simulator(graph, tracer=tracer)
        sim.run_protocol([FloodOnce(v, v == 0) for v in range(6)])
        assert tracer.rounds_seen == 6
        assert tracer.total_messages > 0
        assert tracer.busiest_round()[1] >= 1


#: Forwarding schedules ``(graph, queues, copies)``; the later senders join
#: while earlier ones still hold payloads, and vertices below them join.
SCHEDULE_CASES = [
    (star_graph(5), [(0, [("a", 1)])], 2),
    (grid_graph(3, 4), [(5, [("x",)] * 3)], 1),
    (grid_graph(3, 4), [(0, [("x",)]), (7, [("y",)] * 4), (11, [])], 2),
    (path_graph(6), [(0, [("s",)])], 3),
    (cycle_graph(7), [(2, [("c", 2)]), (4, [("c", 4)] * 2)], 1),
]

FAULT_PLANS = {
    FaultPlan(seed=5, drop_rate=0.3): "drops",
    FaultPlan(seed=5, duplicate_rate=0.4): "duplicates",
    FaultPlan(seed=5, delay_rate=0.5, max_delay=3): "delays",
    FaultPlan(seed=5, crash_fraction=0.3, crash_round=3): "crashes",
    FaultPlan(seed=5, link_outages=[LinkOutage(0, 1, 0, 2), LinkOutage(4, 5, 1, 4)]): "outages",
    FaultPlan(
        seed=6, drop_rate=0.1, duplicate_rate=0.2, delay_rate=0.3, max_delay=2,
        crash_fraction=0.1, crash_round=4,
    ): "mixed",
}


class TestBroadcastSchedule:
    """``run_broadcast_schedule`` accounts exactly like the same schedule as programs."""

    @staticmethod
    def run_both(graph, queues, copies=0, plan=None):
        """Run :class:`QueueBroadcaster` as programs and as a schedule.

        With ``copies`` the schedule forwards through an end-of-round step.
        Both run under ``plan``.
        """
        outcomes = []
        for schedule in (False, True):
            tracer = RecordingTracer()
            sim = Simulator(graph, tracer=tracer)
            log = []
            if schedule:
                heard = {sender for sender, payloads in queues if payloads}
                fresh = []

                def deliver(sender, payload, row):
                    for receiver in row:
                        log.append((receiver, sender, payload))
                        if receiver not in heard:
                            heard.add(receiver)
                            fresh.append(receiver)

                def step(round_index):
                    fresh.sort()
                    joined = [(v, [("fwd", v, round_index)] * copies) for v in fresh]
                    fresh.clear()
                    return joined

                run = sim.run_broadcast_schedule(
                    queues,
                    deliver,
                    label="sched",
                    nominal_rounds=7,
                    step=step if copies else None,
                    fault_plan=plan,
                )
            else:
                by_sender = dict(queues)
                programs = [
                    QueueBroadcaster(v, by_sender.get(v, ()), log, copies)
                    for v in range(graph.num_vertices)
                ]
                run = sim.run_protocol(
                    programs,
                    label="sched",
                    nominal_rounds=7,
                    fault_plan=plan,
                    max_rounds=fault_round_limit(7, plan),
                )
            # Per-receiver reception order is what a receiver can observe.
            per_receiver = sorted(log, key=lambda event: event[0])
            outcomes.append((
                run.rounds_executed,
                run.messages_delivered,
                run.words_delivered,
                run.max_edge_congestion,
                run.congestion_violations,
                sim.ledger.charges,
                tracer.events,
                per_receiver,
                run.fault_counters,
            ))
        assert outcomes[0] == outcomes[1]
        return outcomes[1]

    @pytest.mark.parametrize(
        "graph, queues",
        [
            (star_graph(5), [(0, [("a", 1), ("b", 2)]), (3, [("c", 3)])]),
            (grid_graph(3, 4), [(1, [("x",)] * 3), (5, [("y",)]), (11, [("z", 9)] * 2)]),
            (cycle_graph(6), [(v, [("r", v)] * (v % 3)) for v in range(6)]),
            (path_graph(4), []),
        ],
    )
    def test_matches_program_form(self, graph, queues):
        self.run_both(graph, queues)

    def test_isolated_sender_keeps_rounds_executing_until_its_queue_empties(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        rounds, messages, *_ = self.run_both(graph, [(0, [("m",)]), (3, [("i",)] * 4)])
        assert (rounds, messages) == (3, 1)

    def test_isolated_sole_sender_executes_no_round(self):
        graph = Graph(3, [(0, 1)])
        rounds, messages, _, congestion, _, charges, events, *_ = self.run_both(
            graph, [(2, [("i",)])]
        )
        assert (rounds, messages, congestion, events) == (0, 0, 0, [])
        assert charges[0].nominal_rounds == 7

    def test_nominal_rounds_default_to_executed(self):
        sim = Simulator(path_graph(3))
        run = sim.run_broadcast_schedule([(0, [("a",), ("b",)])], lambda *_: None, label="s")
        assert run.rounds_executed == 2
        assert sim.ledger.charges[0].nominal_rounds == 2

    def test_word_size_is_checked(self):
        sim = Simulator(path_graph(3), max_words_per_message=2)
        with pytest.raises(MessageTooLarge):
            sim.run_broadcast_schedule([(0, [("a", 1, 2)])], lambda *_: None, label="s")
        assert sim.ledger.charges == []

    @pytest.mark.parametrize(
        "queues",
        [
            [(1, [("a",)]), (1, [("b",)])],
            [(2, [("a",)]), (0, [("b",)])],
            [(3, [("a",)])],
        ],
    )
    def test_senders_must_be_ascending_vertices(self, queues):
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_broadcast_schedule(queues, lambda *_: None, label="s")

    @pytest.mark.parametrize("graph, queues, copies", SCHEDULE_CASES)
    def test_forwarding_matches_program_form(self, graph, queues, copies):
        _, _, _, congestion, *_ = self.run_both(graph, queues, copies)
        assert congestion == 1

    @pytest.mark.parametrize("plan", list(FAULT_PLANS), ids=list(FAULT_PLANS.values()))
    @pytest.mark.parametrize("graph, queues, copies", SCHEDULE_CASES)
    def test_faulted_schedule_matches_program_form(self, graph, queues, copies, plan):
        outcome = self.run_both(graph, queues, copies, plan)
        assert outcome[-1] is not None  # the plan was applied

    @pytest.mark.parametrize("graph, queues, copies", SCHEDULE_CASES)
    def test_plan_that_never_fires_matches_the_fault_free_schedule(self, graph, queues, copies):
        # Active (so the schedule runs on the round loop) but never in effect.
        idle_plan = FaultPlan(seed=0, link_outages=[LinkOutage(0, 1, 10**6, 10**6)])
        faulted = self.run_both(graph, queues, copies, idle_plan)
        fault_free = self.run_both(graph, queues, copies)
        assert faulted[:-1] == fault_free[:-1]
        assert not any(faulted[-1].values())

    def test_faulted_schedule_needs_nominal_rounds(self):
        sim = Simulator(path_graph(3))
        with pytest.raises(ValueError):
            sim.run_broadcast_schedule(
                [(0, [("a",)])],
                lambda *_: None,
                label="s",
                fault_plan=FaultPlan(seed=0, drop_rate=0.5),
            )

    def test_step_runs_once_per_executed_round(self):
        calls = []
        sim = Simulator(path_graph(4))
        run = sim.run_broadcast_schedule(
            [(0, [("a",)])],
            lambda *_: None,
            label="s",
            step=lambda r: calls.append(r) or ([(r, [("b",)])] if r < 3 else []),
        )
        assert calls == [1, 2, 3]
        assert run.rounds_executed == 3

    @pytest.mark.parametrize(
        "joined",
        [
            [(2, [("a",)]), (1, [("b",)])],
            [(1, [("a",)]), (1, [("b",)])],
            [(3, [("a",)])],
        ],
    )
    def test_forwarded_senders_must_be_ascending_vertices(self, joined):
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_broadcast_schedule(
                [(0, [("a",)])],
                lambda *_: None,
                label="s",
                step=lambda r: joined if r == 1 else [],
            )

    def test_forwarded_sender_still_holding_payloads_is_rejected(self):
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_broadcast_schedule(
                [(0, [("a",)] * 3)],
                lambda *_: None,
                label="s",
                step=lambda r: [(0, [("b",)])] if r == 1 else [],
            )
        assert sim.ledger.charges == []

    @pytest.mark.parametrize("held", [2, 3])
    def test_faulted_forwarded_sender_still_holding_payloads_is_rejected(self, held):
        # Sender 0 still broadcasts in round 1 (and, with three payloads, in
        # round 2), so it cannot join the schedule at the end of round 1.
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_broadcast_schedule(
                [(0, [("a",)] * held)],
                lambda *_: None,
                label="s",
                nominal_rounds=3,
                step=lambda r: [(0, [("b",)])] if r == 1 else [],
                fault_plan=FaultPlan(seed=0, duplicate_rate=0.5),
            )
        assert sim.ledger.charges == []

    def test_forwarded_word_size_is_checked(self):
        sim = Simulator(path_graph(3), max_words_per_message=2)
        with pytest.raises(MessageTooLarge):
            sim.run_broadcast_schedule(
                [(0, [("a",)])],
                lambda *_: None,
                label="s",
                step=lambda r: [(1, [("a", 1, 2)])] if r == 1 else [],
            )
        assert sim.ledger.charges == []

    def test_isolated_forwarded_wave_executes_no_round(self):
        tracer = RecordingTracer()
        sim = Simulator(Graph(4, [(0, 1)]), tracer=tracer)
        calls = []

        def step(round_index):
            calls.append(round_index)
            return [(2, [("i",)]), (3, [("j",)])] if round_index == 1 else []

        run = sim.run_broadcast_schedule([(0, [("a",)])], lambda *_: None, label="s", step=step)
        assert calls == [1]
        assert (run.rounds_executed, run.messages_delivered, run.words_delivered) == (1, 1, 1)
        assert tracer.events == [(1, 1)]


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
class TestBroadcastArrays:
    """``run_broadcast_arrays`` accounts exactly like ``run_broadcast_schedule``."""

    @staticmethod
    def run_both(graph, queues):
        """Run fixed-width ``queues`` through both entry points; return both outcomes."""
        np = kernels.require_numpy()
        payloads = sorted(
            (r, sender, payload)
            for sender, queue in queues
            for r, payload in enumerate(queue)
        )
        width = len(payloads[0][2]) if payloads else 1
        outcomes = []
        for arrays in (False, True):
            tracer = RecordingTracer()
            sim = Simulator(graph, tracer=tracer)
            log = []
            if arrays:
                def deliver(indices, receivers):
                    for index, receiver in zip(indices.tolist(), receivers.tolist()):
                        _, sender, payload = payloads[index]
                        log.append((receiver, sender, payload))

                run = sim.run_broadcast_arrays(
                    np.array([sender for _, sender, _ in payloads], dtype=np.int64),
                    np.array([r for r, _, _ in payloads], dtype=np.int64),
                    width,
                    deliver,
                    label="sched",
                    nominal_rounds=7,
                )
            else:
                def deliver(sender, payload, row):
                    log.extend((receiver, sender, payload) for receiver in row)

                run = sim.run_broadcast_schedule(queues, deliver, label="sched", nominal_rounds=7)
            outcomes.append((
                run.rounds_executed,
                run.messages_delivered,
                run.words_delivered,
                run.max_edge_congestion,
                sim.ledger.charges,
                tracer.events,
                log,
            ))
        assert outcomes[0] == outcomes[1]
        return outcomes[1]

    CASES = [
        (star_graph(5), [(0, [("a", 1), ("b", 2)]), (3, [("c", 3)])]),
        (grid_graph(3, 4), [(1, [("x",)] * 3), (5, [("y",)]), (11, [("z",)] * 2)]),
        (cycle_graph(6), [(v, [("r", v)] * (v % 3)) for v in range(6)]),
        (path_graph(4), []),
        (Graph(4, [(0, 1), (1, 2)]), [(0, [("m",)]), (3, [("i",)] * 4)]),
        (Graph(4, [(0, 1), (1, 2)]), [(0, [("m",)] * 2), (3, [("i",)])]),
    ]

    @pytest.mark.parametrize("graph, queues", CASES)
    def test_matches_per_broadcast_form(self, graph, queues):
        self.run_both(graph, queues)

    @pytest.mark.parametrize("graph, queues", CASES)
    def test_blocks_cover_deliveries_in_order(self, graph, queues, monkeypatch):
        monkeypatch.setattr(simulator_module, "BROADCAST_BLOCK", 1)
        self.run_both(graph, queues)

    def test_isolated_sole_sender_executes_no_round(self):
        rounds, messages, _, congestion, charges, events, _ = self.run_both(
            Graph(3, [(0, 1)]), [(2, [("i",)])]
        )
        assert (rounds, messages, congestion, events) == (0, 0, 0, [])
        assert charges[0].nominal_rounds == 7

    def test_word_size_is_checked_before_any_delivery_or_charge(self):
        np = kernels.require_numpy()
        sim = Simulator(path_graph(3), max_words_per_message=2)
        delivered = []
        with pytest.raises(MessageTooLarge):
            sim.run_broadcast_arrays(
                np.array([0]), np.array([0]), 3, lambda *args: delivered.append(args), label="s"
            )
        assert delivered == [] and sim.ledger.charges == []

    @pytest.mark.parametrize(
        "senders, rounds",
        [([1, 1], [0, 0]), ([2, 0], [0, 0]), ([3], [0]), ([0, 1], [1, 0]), ([0], [-1]), ([0], [])],
    )
    def test_payloads_must_be_ascending_round_sender_vertex_ids(self, senders, rounds):
        np = kernels.require_numpy()
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_broadcast_arrays(
                np.array(senders, dtype=np.int64),
                np.array(rounds, dtype=np.int64),
                1,
                lambda *_: None,
                label="s",
            )
        assert sim.ledger.charges == []


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
class TestFrontierArrays:
    """``run_frontier_arrays`` accounts exactly like a forwarding ``run_broadcast_schedule``."""

    @staticmethod
    def run_both(graph, sources, last_round):
        """Flood from ``sources``: each first-time receiver forwards once, up to ``last_round``."""
        np = kernels.require_numpy()
        outcomes = []
        for arrays in (False, True):
            tracer = RecordingTracer()
            sim = Simulator(graph, tracer=tracer)
            log = []
            heard = set(sources)
            fresh = []

            def hear(sender, receiver):
                log.append((sender, receiver))
                if receiver not in heard:
                    heard.add(receiver)
                    fresh.append(receiver)

            def joining(round_index):
                joined = sorted(fresh) if round_index < last_round else []
                fresh.clear()
                return joined

            if arrays:
                frontier = [np.array(sorted(sources), dtype=np.int64)]

                def deliver(payloads, receivers):
                    for index, receiver in zip(payloads.tolist(), receivers.tolist()):
                        hear(int(frontier[0][index]), receiver)

                def step(round_index):
                    frontier[0] = np.array(joining(round_index), dtype=np.int64)
                    return frontier[0]

                run = sim.run_frontier_arrays(
                    frontier[0], 2, deliver, step, label="f", nominal_rounds=7
                )
            else:
                def deliver(sender, payload, row):
                    for receiver in row:
                        hear(sender, receiver)

                def step(round_index):
                    return [(v, [("f", v)]) for v in joining(round_index)]

                run = sim.run_broadcast_schedule(
                    [(s, [("f", s)]) for s in sorted(sources)],
                    deliver, label="f", nominal_rounds=7, step=step,
                )
            outcomes.append((
                run.rounds_executed,
                run.messages_delivered,
                run.words_delivered,
                run.max_edge_congestion,
                sim.ledger.charges,
                tracer.events,
                log,
            ))
        assert outcomes[0] == outcomes[1]
        return outcomes[1]

    CASES = [
        (grid_graph(3, 4), [0], 3),
        (path_graph(6), [0, 5], 10),
        (star_graph(5), [], 4),
        (Graph(4, [(0, 1)]), [2], 4),
        (Graph(4, [(0, 1)]), [0, 3], 4),
        (cycle_graph(7), [1, 2, 4], 1),
    ]

    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("graph, sources, last_round", CASES)
    def test_matches_forwarding_schedule(self, graph, sources, last_round, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(simulator_module, "BROADCAST_BLOCK", block)
        self.run_both(graph, sources, last_round)

    def test_isolated_sole_sender_executes_no_round(self):
        rounds, messages, _, congestion, charges, events, _ = self.run_both(
            Graph(3, [(0, 1)]), [2], 4
        )
        assert (rounds, messages, congestion, events) == (0, 0, 0, [])
        assert charges[0].nominal_rounds == 7

    def test_word_size_is_checked_before_any_delivery_or_charge(self):
        np = kernels.require_numpy()
        sim = Simulator(path_graph(3), max_words_per_message=2)
        delivered = []
        with pytest.raises(MessageTooLarge):
            sim.run_frontier_arrays(
                np.array([0]), 3, lambda *args: delivered.append(args), lambda r: [], label="s"
            )
        assert delivered == [] and sim.ledger.charges == []

    @pytest.mark.parametrize("frontier, joined", [([1, 0], []), ([3], []), ([0], [2, 1])])
    def test_frontiers_must_be_ascending_vertex_ids(self, frontier, joined):
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_frontier_arrays(
                frontier, 1, lambda *_: None, lambda r: joined if r == 1 else [], label="s"
            )
        assert sim.ledger.charges == []


class TestProgramFactory:
    """A program factory runs exactly like the list of every node's program."""

    QUEUES = {0: [("a", 0), ("b", 0)], 5: [("c", 5)]}

    @staticmethod
    def run(graph, programs, **kwargs):
        tracer = RecordingTracer()
        sim = Simulator(graph, tracer=tracer)
        run = sim.run_protocol(
            programs, label="f", nominal_rounds=9, collect_results=False, **kwargs
        )
        outcome = (
            run.rounds_executed,
            run.messages_delivered,
            run.words_delivered,
            run.max_edge_congestion,
            sim.ledger.charges,
            tracer.events,
        )
        return sim, outcome

    @pytest.mark.parametrize("copies", [0, 1, 3])
    @pytest.mark.parametrize(
        "graph", [grid_graph(3, 4), path_graph(9), Graph(6, [(0, 1), (4, 5)])]
    )
    def test_matches_every_program(self, graph, copies):
        queues = self.QUEUES
        eager_log, log = [], []
        _, eager = self.run(graph, [
            QueueBroadcaster(v, queues.get(v, ()), eager_log, copies)
            for v in range(graph.num_vertices)
        ])
        sim, on_demand = self.run(
            graph,
            lambda v: QueueBroadcaster(v, queues.get(v, ()), log, copies),
            starters=sorted(queues),
        )
        assert on_demand == eager and log == eager_log
        # Contexts exist only for the nodes that started or received mail.
        assert set(sim._contexts) == set(queues) | {receiver for receiver, _, _ in log}

    @pytest.mark.parametrize("kwargs", [{}, {"starters": [0]}], ids=["no-starters", "results"])
    def test_factory_needs_starters_and_no_result_sweep(self, kwargs):
        sim = Simulator(path_graph(3))
        with pytest.raises(ProtocolError):
            sim.run_protocol(lambda v: FloodOnce(v, v == 0), **kwargs)
        assert sim.ledger.charges == []


class PingLowest(NodeProgram):
    """Every node sends one point-to-point message to its smallest neighbour."""

    def __init__(self, node_id: int, log) -> None:
        self.node_id = node_id
        self.log = log

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.neighbors:
            ctx.send_flat(ctx.neighbors[0], "ping", self.node_id)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        for message in inbox:
            self.log.append((self.node_id, message.sender, message.content))


class DoubleBroadcaster(NodeProgram):
    """Node 0 broadcasts twice in round 0: two messages on each of its edges."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: NodeContext) -> None:
        if self.node_id == 0:
            ctx.broadcast_flat("a")
            ctx.broadcast_flat("b")

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        return None


class TestLazyBroadcastTables:
    """A context's ``(neighbor, inbox)`` pairs are built on its first broadcast."""

    QUEUES = [(0, [("a", 1), ("b", 2)]), (5, [("c", 3)]), (7, [("d", 4)] * 2)]

    @classmethod
    def broadcast_outcome(cls, sim, queues=None, copies=1):
        """Run :class:`QueueBroadcaster` and record what it shows."""
        queues = cls.QUEUES if queues is None else queues
        tracer = sim.tracer = RecordingTracer()
        log = []
        by_sender = dict(queues)
        programs = [
            QueueBroadcaster(v, by_sender.get(v, ()), log, copies)
            for v in range(sim.graph.num_vertices)
        ]
        before = len(sim.ledger.charges)
        run = sim.run_protocol(programs, label="lazy", nominal_rounds=9)
        return run, log, sim.ledger.charges[before:], tracer.events

    @staticmethod
    def assert_pairs_resolved(sim):
        """Every built table is what the eager build made: shared inbox lists."""
        for ctx in sim._contexts.values():
            if ctx._neighbor_pairs is not None:
                assert [nb for nb, _ in ctx._neighbor_pairs] == list(ctx.neighbors)
                assert all(inbox is sim._inboxes[nb] for nb, inbox in ctx._neighbor_pairs)

    def test_send_only_protocol_builds_no_pair_tuple(self):
        graph = grid_graph(3, 4)
        sim = Simulator(graph)
        log = []
        run = sim.run_protocol([PingLowest(v, log) for v in range(12)])
        assert run.messages_delivered == 12 and len(log) == 12
        assert all(ctx._neighbor_pairs is None for ctx in sim._contexts.values())

    def test_first_broadcast_after_send_only_protocol_delivers_as_fresh(self):
        graph = grid_graph(3, 4)
        sim = Simulator(graph)
        sim.run_protocol([PingLowest(v, []) for v in range(12)])
        for copies in (0, 1):
            outcome = self.broadcast_outcome(sim, copies=copies)
            assert outcome == self.broadcast_outcome(Simulator(graph), copies=copies)
            self.assert_pairs_resolved(sim)
            if not copies:
                # Only the three queued senders have broadcast so far.
                built = [
                    ctx.node_id for ctx in sim._contexts.values()
                    if ctx._neighbor_pairs is not None
                ]
                assert built == [0, 5, 7]

    def test_pairs_rebuilt_after_graph_mutation(self):
        graph = grid_graph(3, 4)
        sim = Simulator(graph)
        self.broadcast_outcome(sim)
        stale = sim._contexts[0]._neighbor_pairs
        assert stale is not None
        graph.add_edge(0, 11)
        outcome = self.broadcast_outcome(sim)
        assert outcome == self.broadcast_outcome(Simulator(graph))
        assert sim._contexts[0]._neighbor_pairs is not stale
        assert [nb for nb, _ in sim._contexts[0]._neighbor_pairs] == [1, 4, 11]
        self.assert_pairs_resolved(sim)

    def test_pairs_stay_correct_after_aborted_run_scrub(self):
        graph = grid_graph(3, 4)
        sim = Simulator(graph)
        self.broadcast_outcome(sim)
        # The double broadcast fills node 0's neighbours' inboxes through
        # the same pairs before the audit raises; the next run scrubs them.
        with pytest.raises(CongestionViolation):
            sim.run_protocol([DoubleBroadcaster(v) for v in range(12)])
        assert sim._dirty
        assert self.broadcast_outcome(sim) == self.broadcast_outcome(Simulator(graph))
        self.assert_pairs_resolved(sim)

    def test_repeated_broadcasts_in_one_round_resolve_pairs(self):
        sim = Simulator(star_graph(3), strict_congestion=False)
        run = sim.run_protocol([DoubleBroadcaster(v) for v in range(4)])
        assert run.messages_delivered == 6
        assert run.congestion_violations == [(0, 0, nb, 2) for nb in (1, 2, 3)]
        self.assert_pairs_resolved(sim)
        assert sim._contexts[0]._neighbor_pairs is not None

    def test_isolated_broadcaster_delivers_nothing(self):
        sim = Simulator(Graph(3, [(0, 1)]))
        run, log, charges, events = self.broadcast_outcome(sim, [(2, [("i",)])])
        assert (run.rounds_executed, run.messages_delivered, log, events) == (0, 0, [], [])
        assert sim._contexts[2]._neighbor_pairs == ()
        assert charges[0].messages == 0
