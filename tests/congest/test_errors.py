"""Tests for the simulator's typed errors and the paths that raise them."""

from __future__ import annotations

from typing import List

import pytest

from repro.congest import (
    CongestionViolation,
    FaultPlan,
    Message,
    NodeContext,
    NodeProgram,
    ProtocolError,
    ProtocolFault,
    RoundLimitExceeded,
    Simulator,
)
from repro.congest.errors import (
    CongestError,
    InvalidDestination,
    MessageTooLarge,
)
from repro.graphs import path_graph


class TestErrorTaxonomy:
    def test_every_simulator_error_is_a_congest_error(self):
        for error_type in (
            CongestionViolation,
            MessageTooLarge,
            InvalidDestination,
            ProtocolError,
            RoundLimitExceeded,
            ProtocolFault,
        ):
            assert issubclass(error_type, CongestError)

    def test_congestion_violation_carries_the_offending_edge(self):
        error = CongestionViolation(3, 1, 2, attempted=4, allowed=1)
        assert (error.round_index, error.sender, error.receiver) == (3, 1, 2)
        assert (error.attempted, error.allowed) == (4, 1)
        assert "round 3" in str(error) and "bandwidth is 1" in str(error)

    def test_message_too_large_reports_both_sizes(self):
        error = MessageTooLarge(9, 4)
        assert (error.words, error.allowed) == (9, 4)
        assert "9 words" in str(error)

    def test_invalid_destination_names_both_endpoints(self):
        error = InvalidDestination(0, 5)
        assert (error.sender, error.receiver) == (0, 5)
        assert "not a neighbour" in str(error)

    def test_round_limit_reports_the_budget(self):
        error = RoundLimitExceeded(77)
        assert error.max_rounds == 77
        assert "77 rounds" in str(error)

    def test_protocol_fault_pluralizes_and_copies_counters(self):
        counters = {"dropped": 3}
        fault = ProtocolFault("bfs", "round-timeout", attempts=2, fault_counters=counters)
        assert "after 2 attempts" in str(fault)
        counters["dropped"] = 99
        assert fault.fault_counters == {"dropped": 3}

    def test_protocol_fault_single_attempt_and_absent_counters(self):
        fault = ProtocolFault("ruling-set", "knock-out-timeout")
        assert "after 1 attempt" in str(fault)
        assert not str(fault).endswith("attempts")
        assert fault.fault_counters is None


class _MalformedSender(NodeProgram):
    """Drives one malformed send, selected by ``mode``, from node 0 at start."""

    def __init__(self, node_id: int, mode: str) -> None:
        self.node_id = node_id
        self.mode = mode

    def on_start(self, ctx: NodeContext) -> None:
        if self.node_id != 0:
            return
        if self.mode == "non-neighbor":
            ctx.send(3, "hi")
        elif self.mode == "non-neighbor-flat":
            ctx.send_flat(3, 1)
        elif self.mode == "oversized":
            ctx.send(1, 1, 2, 3, 4, 5)
        elif self.mode == "oversized-flat":
            ctx.send_flat(1, 1, 2, 3, 4, 5)
        elif self.mode == "oversized-broadcast":
            ctx.broadcast(1, 2, 3, 4, 5)
        elif self.mode == "oversized-broadcast-flat":
            ctx.broadcast_flat(1, 2, 3, 4, 5)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        return None


class _Chatty(NodeProgram):
    """Exceeds the unit per-edge bandwidth by double-sending each round."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: NodeContext) -> None:
        for neighbor in ctx.neighbors:
            ctx.send(neighbor, "a")
            ctx.send(neighbor, "b")

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        return None


class _NeverIdle(NodeProgram):
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        return None

    def is_idle(self) -> bool:
        return False


class _Flood(NodeProgram):
    def __init__(self, node_id: int, is_source: bool) -> None:
        self.node_id = node_id
        self.heard = is_source
        if is_source:
            self.heard_at = 0
        else:
            self.heard_at = None

    def on_start(self, ctx: NodeContext) -> None:
        if self.heard:
            ctx.broadcast("flood")

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        if not self.heard and inbox:
            self.heard = True
            self.heard_at = ctx.round_index
            ctx.broadcast("flood")

    def result(self):
        return self.heard_at


def _run(sim: Simulator, programs, **kwargs):
    return sim.run_protocol(programs, **kwargs)


class TestMalformedMessages:
    @pytest.mark.parametrize("mode", ["non-neighbor", "non-neighbor-flat"])
    def test_sending_to_a_non_neighbor_is_rejected(self, mode):
        sim = Simulator(path_graph(4))
        with pytest.raises(InvalidDestination) as info:
            _run(sim, [_MalformedSender(v, mode) for v in range(4)])
        assert info.value.sender == 0
        assert info.value.receiver == 3

    @pytest.mark.parametrize(
        "mode",
        [
            "oversized",
            "oversized-flat",
            "oversized-broadcast",
            "oversized-broadcast-flat",
        ],
    )
    def test_oversized_payloads_are_rejected_on_every_send_path(self, mode):
        sim = Simulator(path_graph(4), max_words_per_message=4)
        with pytest.raises(MessageTooLarge) as info:
            _run(sim, [_MalformedSender(v, mode) for v in range(4)])
        assert info.value.words == 5
        assert info.value.allowed == 4


class TestFaultedSchedulerErrors:
    """Runs under a fault plan enforce the same model limits."""

    def test_strict_congestion_is_audited_on_pre_fault_sends(self):
        # A dropped delivery must not excuse the violating *send*: the audit
        # runs before the fault schedule touches the message.
        sim = Simulator(path_graph(3), strict_congestion=True)
        plan = FaultPlan(seed=5, drop_rate=0.9)
        with pytest.raises(CongestionViolation):
            _run(sim, [_Chatty(v) for v in range(3)], fault_plan=plan)

    def test_lenient_congestion_is_recorded_under_faults(self):
        sim = Simulator(path_graph(3), strict_congestion=False)
        plan = FaultPlan(seed=5, drop_rate=0.5)
        run = _run(sim, [_Chatty(v) for v in range(3)], fault_plan=plan)
        assert run.violated_congestion
        assert run.fault_counters is not None

    def test_round_limit_is_enforced_under_faults(self):
        sim = Simulator(path_graph(2))
        plan = FaultPlan(seed=5, drop_rate=0.5)
        with pytest.raises(RoundLimitExceeded) as info:
            _run(sim, [_NeverIdle(v) for v in range(2)], fault_plan=plan, max_rounds=5)
        assert info.value.max_rounds == 5

    def test_program_count_is_checked_before_fault_dispatch(self):
        sim = Simulator(path_graph(3))
        plan = FaultPlan(seed=5, drop_rate=0.5)
        with pytest.raises(ProtocolError):
            _run(sim, [_NeverIdle(0)], fault_plan=plan)


class TestAbortedRunRecovery:
    def test_simulator_recovers_cleanly_after_an_aborted_run(self):
        # An aborted run leaves queued messages behind; the next run on the
        # same simulator must scrub them or the flood would mis-count.
        sim = Simulator(path_graph(4))
        with pytest.raises(InvalidDestination):
            _run(sim, [_MalformedSender(v, "non-neighbor") for v in range(4)])
        run = _run(sim, [_Flood(v, v == 0) for v in range(4)])
        assert run.results == [0, 1, 2, 3]

    def test_recovery_after_round_limit_under_faults(self):
        sim = Simulator(path_graph(3))
        plan = FaultPlan(seed=5, delay_rate=0.5, max_delay=2)
        with pytest.raises(RoundLimitExceeded):
            _run(sim, [_NeverIdle(v) for v in range(3)], fault_plan=plan, max_rounds=4)
        run = _run(sim, [_Flood(v, v == 0) for v in range(3)])
        assert run.results == [0, 1, 2]
