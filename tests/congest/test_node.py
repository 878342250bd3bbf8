"""Unit tests for node programs and their execution context."""

from __future__ import annotations

import pytest

from repro.congest import (
    InvalidDestination,
    MessageTooLarge,
    NodeContext,
    NodeProgram,
    ProtocolError,
    Simulator,
)
from repro.graphs import path_graph


def make_context(node_id=0, neighbors=(1, 2), max_words=4):
    return NodeContext(node_id, neighbors, max_words)


class StateProgram(NodeProgram):
    """A silent program whose local output is the state it was given."""

    def __init__(self, node_id, state):
        self.node_id = node_id
        self.state = state

    def on_round(self, ctx, inbox):
        pass

    def result(self):
        return self.state


class TestNodeContext:
    def test_send_queues_message(self):
        ctx = make_context()
        ctx.send(1, "tag", 7)
        assert ctx.pending_sends == 1
        outbox = ctx.drain_outbox()
        assert outbox[0][0] == 1
        assert outbox[0][1].content == ("tag", 7)
        assert ctx.pending_sends == 0

    def test_send_to_non_neighbour_rejected(self):
        ctx = make_context()
        with pytest.raises(InvalidDestination):
            ctx.send(9, "tag")

    def test_oversized_message_rejected(self):
        ctx = make_context(max_words=2)
        with pytest.raises(MessageTooLarge):
            ctx.send(1, "tag", 1, 2, 3)

    def test_broadcast_sends_to_all_neighbours(self):
        ctx = make_context(neighbors=(3, 1, 2))
        ctx.broadcast("hello")
        destinations = sorted(dest for dest, _ in ctx.drain_outbox())
        assert destinations == [1, 2, 3]

    def test_neighbours_sorted(self):
        ctx = make_context(neighbors=(5, 2, 9))
        assert ctx.neighbors == (2, 5, 9)


class TestNodeProgram:
    def test_base_program_is_idle_and_has_no_result(self):
        program = NodeProgram()
        assert program.is_idle()
        assert program.result() is None

    def test_base_on_round_not_implemented(self):
        with pytest.raises(NotImplementedError):
            NodeProgram().on_round(make_context(), [])

    def test_stateful_program_returns_state(self):
        state = {"x": 1}
        programs = [StateProgram(v, state if v == 2 else {}) for v in range(3)]
        run = Simulator(path_graph(3)).run_protocol(programs)
        assert run.results[2] is state
        assert run.rounds_executed == 0


class TestMakePrograms:
    """One program per vertex: results come back in vertex order."""

    def test_factory_without_states(self):
        programs = [StateProgram(v, v) for v in range(3)]
        run = Simulator(path_graph(3)).run_protocol(programs)
        assert run.results == [0, 1, 2]

    def test_factory_with_states(self):
        states = [{"id": v} for v in range(3)]
        programs = [StateProgram(v, states[v]) for v in range(3)]
        run = Simulator(path_graph(3)).run_protocol(programs)
        assert run.results[2] == {"id": 2}
        assert all(run.results[v] is states[v] for v in range(3))

    def test_state_count_mismatch_rejected(self):
        sim = Simulator(path_graph(3))
        for count in (1, 4):
            with pytest.raises(ProtocolError, match="expected 3 programs"):
                sim.run_protocol([StateProgram(v, None) for v in range(count)])
        assert sim.ledger.charges == []
