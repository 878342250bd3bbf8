"""Synchronous CONGEST-model simulator.

The simulator executes a protocol (one :class:`~repro.congest.node.NodeProgram`
per vertex) in synchronous rounds:

1. every node's outbox from the previous round is delivered,
2. per-edge bandwidth is audited (CONGEST: O(1) words per edge per round),
3. every node that received messages -- or is not yet idle -- gets to run and
   queue messages for the next round.

Rounds in which no message is in flight and every node is idle terminate the
protocol.  As a wall-clock optimization the simulator *fast-forwards* rounds
in which nothing at all would happen; protocols report their scheduled
("nominal") round counts separately through the ledger (see
:mod:`repro.congest.ledger`).

A :class:`~repro.congest.faults.FaultPlan` runs on the same round loop: it
only swaps step 1's delivery for a filter that drops, duplicates, delays or
loses messages and removes crashed nodes from the schedule.

Protocols with a broadcast schedule -- senders each broadcasting one queued
payload per round, while receivers record what they receive and, at the end
of a round, may join the schedule as senders themselves -- skip the per-node
machinery through :meth:`Simulator.run_broadcast_schedule`: no programs,
inboxes or message objects, one ``deliver`` callback per broadcast walking
the sender's CSR row and one ``step`` callback per executed round.  The
simulator keeps the word-size check, the bandwidth audit, the executed round
count, the tracer events and the ledger charge exactly as the program form
would produce them.  The schedule is exact for receivers whose record depends
only on the order in which they receive: callbacks run in (round, ascending
sender) order, which is the order in which the program form's receivers
would read their inboxes.  Two protocols run this way: Algorithm 1's
exploration phases, whose senders are fixed when a phase starts
(:mod:`repro.primitives.exploration`), and depth-bounded BFS forests, whose
frontier joins round by round (:mod:`repro.primitives.bfs_forest`).  Under a
fault plan the same schedule runs on the node-program round loop, one
private program per vertex handing its inbox to ``deliver``, so every fault
rule lives in that one loop.

A fixed schedule (no ``step``) with one payload width also has an array form
on the vectorized kernel tier, :meth:`Simulator.run_broadcast_arrays`: the
caller passes the payloads' senders and rounds as arrays and receives the
deliveries as arrays, in blocks of :data:`BROADCAST_BLOCK`, with the same
checks, round count, tracer events and ledger charge.  A schedule whose
senders each broadcast one payload and join through ``step`` has the array
form :meth:`Simulator.run_frontier_arrays`, where each round's frontier is
an array.  The exploration phases and the BFS forests use them from
:data:`~repro.kernels.AUTO_MIN_SCHEDULE_VERTICES` vertices up.

Protocols in which few nodes act -- the trace-back and the forest-path
markup (:mod:`repro.primitives.traceback`) -- pass
:meth:`Simulator.run_protocol` a factory instead of a program list: a node's
program and context are built the first time the node starts or receives a
message, so such a protocol costs what its messages cost, not ``O(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..graphs.graph import Graph
from ..kernels import require_numpy
from .errors import (
    CongestionViolation,
    MessageTooLarge,
    ProtocolError,
    RoundLimitExceeded,
)
from .faults import NEVER, FaultPlan, fault_round_limit, fresh_fault_counters
from .ledger import RoundLedger
from .message import Message
from .node import BROADCAST_DEST, NodeContext, NodeProgram
from .tracing import NullTracer, Tracer

DEFAULT_MAX_WORDS_PER_MESSAGE = 4
DEFAULT_BANDWIDTH_MESSAGES = 1

#: Deliveries handed to :meth:`Simulator.run_broadcast_arrays`'s callback at
#: once.  Blocks bound the temporary arrays of a schedule (an exploration
#: phase can deliver a million messages, each costing several int64 words of
#: temporaries) while keeping the per-block NumPy call overhead negligible.
BROADCAST_BLOCK = 1 << 16


def _resolve_pairs(
    ctx: NodeContext, inboxes: List[List[Message]]
) -> Tuple[Tuple[int, List[Message]], ...]:
    """Build and cache ``ctx``'s ``(neighbor, inbox)`` pairs on its first broadcast."""
    pairs = tuple((nb, inboxes[nb]) for nb in ctx.neighbors)
    ctx._neighbor_pairs = pairs
    return pairs


_node_id = attrgetter("node_id")


class _BuiltOnDemand(dict):
    """Maps a vertex ``v`` to ``make(v)``, built on the first lookup of ``v``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, v: int) -> Any:
        value = self[v] = self.make(v)
        return value


def _broadcast_blocks(np, indptr, adj, senders, degrees):
    """Yield ``(payloads, receivers)`` blocks covering every broadcast of ``senders``.

    Payload ``i`` is ``senders[i]``'s broadcast to its ``degrees[i]``
    neighbours; ``receivers[k]`` receives payload ``payloads[k]``.  The
    blocks hold about :data:`BROADCAST_BLOCK` deliveries each, in payload
    order with each row ascending, and no row is split across two blocks.
    """
    ends = np.cumsum(degrees)
    count = len(senders)
    start = 0
    done = 0
    while start < count:
        stop = max(int(np.searchsorted(ends, done + BROADCAST_BLOCK, side="right")), start + 1)
        total = int(ends[stop - 1]) - done
        if total:
            counts = degrees[start:stop]
            # Delivery ``j`` of the block is entry ``j - (deliveries before
            # its payload's row)`` of that row.
            row_starts = indptr[senders[start:stop]] - (ends[start:stop] - counts - done)
            yield (
                np.repeat(np.arange(start, stop), counts),
                adj[np.repeat(row_starts, counts) + np.arange(total)],
            )
            done += total
        start = stop


class _ScheduleProgram(NodeProgram):
    """One vertex of a broadcast schedule on the node-program loop.

    It broadcasts one queued payload per round and hands every inbox
    message to the schedule's ``deliver``, with the vertex itself as the
    receiving row; it is idle once its queue is empty.
    """

    __slots__ = ("deliver", "row", "payloads", "sent")

    def __init__(
        self, node_id: int, deliver: Callable[[int, Tuple[Any, ...], Tuple[int, ...]], None]
    ) -> None:
        self.deliver = deliver
        self.row = (node_id,)
        self.payloads: Sequence[Tuple[Any, ...]] = ()
        self.sent = 0

    def on_start(self, ctx: NodeContext) -> None:
        self.send_next(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        deliver = self.deliver
        row = self.row
        for sender, payload, _ in inbox:
            deliver(sender, payload, row)
        self.send_next(ctx)

    def send_next(self, ctx: NodeContext) -> None:
        sent = self.sent
        if sent < len(self.payloads):
            self.sent = sent + 1
            ctx.broadcast_flat(*self.payloads[sent])

    def is_idle(self) -> bool:
        return self.sent >= len(self.payloads)


@dataclass
class ProtocolRun:
    """Outcome of executing one protocol to quiescence."""

    rounds_executed: int
    messages_delivered: int
    words_delivered: int
    max_edge_congestion: int
    results: List[Any]
    congestion_violations: List[Tuple[int, int, int, int]] = field(default_factory=list)
    # Per-fault-class counters of a run under an active fault plan; ``None``
    # for every fault-free run.
    fault_counters: Optional[Dict[str, int]] = None

    @property
    def violated_congestion(self) -> bool:
        """Whether any per-edge bandwidth violation was observed (non-strict mode)."""
        return bool(self.congestion_violations)


class Simulator:
    """Executes CONGEST protocols over a fixed communication graph.

    Parameters
    ----------
    graph:
        The communication topology.
    bandwidth_messages:
        Maximum number of messages a node may send over a single edge in one
        round.  The CONGEST model allows O(1) words per round; the default of
        one message of at most ``max_words_per_message`` words enforces that.
    max_words_per_message:
        Maximum payload size of a single message, in machine words.
    strict_congestion:
        When true (default), exceeding the per-edge bandwidth raises
        :class:`CongestionViolation`; when false, violations are recorded in
        the :class:`ProtocolRun` so tests can assert on them.
    tracer:
        Optional :class:`~repro.congest.tracing.Tracer` receiving round events.
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_messages: int = DEFAULT_BANDWIDTH_MESSAGES,
        max_words_per_message: int = DEFAULT_MAX_WORDS_PER_MESSAGE,
        strict_congestion: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if bandwidth_messages < 1:
            raise ValueError("bandwidth_messages must be >= 1")
        self.graph = graph
        self.bandwidth_messages = bandwidth_messages
        self.max_words_per_message = max_words_per_message
        self.strict_congestion = strict_congestion
        self.tracer = tracer if tracer is not None else NullTracer()
        self.ledger = RoundLedger()
        # Per-node contexts and inbox buffers are reused across every
        # run_protocol call (the spanner build runs dozens of sub-protocols
        # over the same topology); they are rebuilt only if the graph mutates.
        # A context is built the first time its node runs, so a protocol in
        # which few nodes act never builds the other ``n``.  ``_dirty`` marks
        # buffers left non-empty by an aborted run.
        self._contexts: Optional[Dict[int, NodeContext]] = None
        self._inboxes: List[List[Message]] = []
        # Shared per-round sender registry: every context appends itself on
        # its first queueing of a round (see NodeContext), so delivery drains
        # exactly the senders, in run order (= ascending node id).
        self._pending: List[NodeContext] = []
        self._contexts_version = -1
        self._dirty = False

    def _node_contexts(self) -> Dict[int, NodeContext]:
        """Shared per-vertex contexts over the graph's CSR snapshot, built on first use."""
        if self._contexts is None or self._contexts_version != self.graph.version:
            rows = self.graph.csr().rows()
            max_words = self.max_words_per_message
            # The shared sender registry goes into every context.  Each
            # context's (neighbour, inbox) pairs are resolved by _deliver on
            # its first broadcast.
            pending: List[NodeContext] = []

            def context(v: int) -> NodeContext:
                # A CSR row is a sorted tuple already: share it instead of
                # the constructor's sorted copy.
                ctx = NodeContext(v, (), max_words)
                ctx.neighbors = rows[v]
                ctx._pending = pending
                return ctx

            self._contexts = _BuiltOnDemand(context)
            self._inboxes = [[] for _ in range(self.graph.num_vertices)]
            self._pending = pending
            self._contexts_version = self.graph.version
        return self._contexts

    # ------------------------------------------------------------------
    # Protocol execution
    # ------------------------------------------------------------------
    def run_protocol(
        self,
        programs: Union[Sequence[NodeProgram], Callable[[int], NodeProgram]],
        max_rounds: int = 10_000_000,
        label: str = "protocol",
        nominal_rounds: Optional[int] = None,
        collect_results: bool = True,
        message_driven: bool = False,
        starters: Optional[Sequence[int]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> ProtocolRun:
        """Run ``programs`` (one per vertex) to quiescence.

        ``programs`` may also be a factory: ``programs(v)`` builds ``v``'s
        program when ``v`` first starts or receives a message, so a protocol
        in which few nodes act costs what its messages cost, not ``O(n)``.
        A factory needs ``starters`` and ``collect_results=False``, and every
        program it builds for a node outside ``starters`` must be idle until
        it receives a message.  Outcomes equal those of the list of every
        node's program.

        ``nominal_rounds`` is the scheduled round count the caller wants
        charged to the ledger; when omitted, the executed round count is
        charged.

        ``starters`` is a wall-clock hint: the ascending list of nodes whose
        ``on_start`` does anything at all (sends or state changes).  Round 0
        then only invokes those programs and only drains their outboxes;
        every other program's ``on_start`` must be a no-op, which the caller
        guarantees.  Protocol outcomes are identical either way.

        ``message_driven=True`` declares that every program's ``is_idle()``
        is constantly true (all progress happens in reaction to received
        messages, as in a flooding protocol); the scheduler then skips
        idle tracking altogether.

        ``collect_results=False`` skips the per-node ``result()`` sweep
        (``ProtocolRun.results`` is empty) for protocols whose programs
        report through shared driver-side state.

        ``fault_plan`` injects a deterministic fault schedule (see
        :mod:`repro.congest.faults`): delivery applies drops, duplications,
        delays, link outages and crash-stops to every delivery event and
        records per-fault-class counters in ``ProtocolRun.fault_counters``.
        With no plan (or an inactive one) delivery checks no fault at all.
        The wall-clock hints apply either way.
        """
        awake_candidates = None
        if callable(programs):
            if starters is None or collect_results:
                raise ProtocolError(
                    "a program factory needs starters and collect_results=False"
                )
            programs = _BuiltOnDemand(programs)
            # Only the starters can be busy before anything is delivered.
            awake_candidates = starters
        elif len(programs) != self.graph.num_vertices:
            raise ProtocolError(
                f"expected {self.graph.num_vertices} programs, got {len(programs)}"
            )
        return self._run_protocol(
            programs, max_rounds, label, nominal_rounds, awake_candidates,
            collect_results, message_driven, starters, fault_plan,
        )

    def run_broadcast_schedule(
        self,
        queues: Sequence[Tuple[int, Sequence[Tuple[Any, ...]]]],
        deliver: Callable[[int, Tuple[Any, ...], Tuple[int, ...]], None],
        *,
        label: str,
        nominal_rounds: Optional[int] = None,
        step: Optional[Callable[[int], Sequence[Tuple[int, Sequence[Tuple[Any, ...]]]]]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> ProtocolRun:
        """Run a protocol with a broadcast schedule, without node programs.

        ``queues`` lists ``(sender, payloads)`` pairs in strictly ascending
        sender order.  In round ``r`` every sender holding more than ``r``
        payloads broadcasts ``payloads[r]`` -- a flat tuple of scalar words,
        as for :meth:`NodeContext.broadcast_flat` -- to all its neighbours.
        ``deliver(sender, payload, row)`` is called once per broadcast, in
        (round, ascending sender) order, with the sender's sorted CSR
        neighbour row; it records what the receivers learn and must neither
        send nor change the queues.

        Receivers that forward do so through ``step(round_index)``, called
        once at the end of every executed round, after the deliveries its
        receivers process.  It returns ``(sender, payloads)`` pairs, in
        strictly ascending sender order, that join the schedule: their
        ``payloads[k]`` is broadcast in round ``round_index + k``.  A joining
        sender must not still hold payloads from earlier.  Without a step the
        schedule is fixed when the run starts, and receivers only record.

        The accounting equals running the same schedule as node programs on
        :meth:`run_protocol`: every payload passes the word-size check (an
        initial payload before the first round, a forwarded one when its
        sender joins), each sender broadcasts at most once per round (so
        every used edge carries exactly one message and congestion is 1),
        round ``r`` executes while a broadcast is in flight or a sender still
        holds payloads, the tracer sees one event per executed round, and the
        ledger is charged under ``label``.

        An active ``fault_plan`` runs the same ``queues``, ``deliver`` and
        ``step`` on :meth:`run_protocol`'s round loop instead, whose delivery
        applies the plan (see :meth:`_run_schedule_faulted`), within
        ``fault_round_limit(nominal_rounds, fault_plan)`` rounds.
        """
        rows = self.graph.csr().rows()
        active, words_delivered = self._schedule_entries(queues, rows, 0)
        if fault_plan is not None and fault_plan.active:
            return self._run_schedule_faulted(
                active, deliver, rows, label, nominal_rounds, step, fault_plan
            )
        tracer = self.tracer
        trace_round = None if type(tracer) is NullTracer else tracer.on_round
        round_index = 0
        messages_delivered = 0
        while active:
            # Round ``round_index``'s broadcasts, delivered (and processed by
            # their receivers) in the next round.
            in_flight = 0
            still_sending = []
            next_round = round_index + 1
            for entry in active:
                sender, payloads, row, start = entry
                deliver(sender, payloads[round_index - start], row)
                in_flight += len(row)
                if len(payloads) > next_round - start:
                    still_sending.append(entry)
            active = still_sending
            if not in_flight and not active:
                break
            round_index = next_round
            messages_delivered += in_flight
            if trace_round is not None:
                trace_round(round_index, in_flight)
            if step is None:
                continue
            joined, joined_words = self._schedule_entries(step(round_index), rows, round_index)
            if not joined:
                continue
            words_delivered += joined_words
            if active:
                holding = {entry[0] for entry in active}
                for entry in joined:
                    if entry[0] in holding:
                        raise ProtocolError(
                            f"forwarded sender {entry[0]} still holds queued payloads"
                        )
                active = sorted(active + joined, key=itemgetter(0))
            else:
                active = joined

        return self._charge_schedule(
            label, nominal_rounds, round_index, messages_delivered, words_delivered
        )

    def run_broadcast_arrays(
        self,
        senders: Any,
        rounds: Any,
        width: int,
        deliver: Callable[[Any, Any], None],
        *,
        label: str,
        nominal_rounds: Optional[int] = None,
    ) -> ProtocolRun:
        """Run a fixed broadcast schedule given as arrays (vectorized tier).

        Payload ``i`` is a ``width``-word broadcast by ``senders[i]`` to all
        its neighbours in round ``rounds[i]``; the payloads are listed in
        strictly ascending (round, sender) order.  ``deliver(payloads,
        receivers)`` is called with int64 arrays in which ``receivers[k]``
        receives payload ``payloads[k]``, once per block of about
        :data:`BROADCAST_BLOCK` deliveries.  The blocks cover every delivery
        in (round, ascending sender) order, each sender's row ascending, and
        no row is split across two blocks.

        The accounting is :meth:`run_broadcast_schedule`'s for the same
        schedule with every sender holding payloads from round 0 to its last
        one: the word-size check runs before anything is delivered or
        charged, congestion is 1, every round up to the last scheduled one
        executes and the last one only if it has messages in flight, the
        tracer sees one event per executed round, and the ledger is charged
        under ``label``.
        """
        np = require_numpy()
        csr = self.graph.csr()
        indptr, adj = csr.indptr_np, csr.adj_np
        senders = np.asarray(senders, dtype=np.int64)
        rounds = np.asarray(rounds, dtype=np.int64)
        count = len(senders)
        if len(rounds) != count:
            raise ProtocolError("array broadcast needs one round per payload")
        scheduled = 0
        if count:
            order = rounds * csr.num_vertices + senders
            if (
                rounds[0] < 0
                or senders.min() < 0
                or senders.max() >= csr.num_vertices
                or bool((order[1:] <= order[:-1]).any())
            ):
                raise ProtocolError(
                    "array broadcast payloads must be vertex ids in strictly "
                    "ascending (round, sender) order"
                )
            if width > self.max_words_per_message:
                raise MessageTooLarge(width, self.max_words_per_message)
            scheduled = int(rounds[-1]) + 1
        degrees = indptr[senders + 1] - indptr[senders]
        in_flight = np.bincount(rounds, weights=degrees, minlength=scheduled).astype(np.int64)
        executed = scheduled if scheduled and in_flight[-1] else max(scheduled - 1, 0)
        for payloads, receivers in _broadcast_blocks(np, indptr, adj, senders, degrees):
            deliver(payloads, receivers)

        tracer = self.tracer
        if type(tracer) is not NullTracer:
            for round_index, messages in enumerate(in_flight[:executed].tolist(), 1):
                tracer.on_round(round_index, messages)
        messages_delivered = int(degrees.sum())
        return self._charge_schedule(
            label, nominal_rounds, executed, messages_delivered, width * messages_delivered
        )

    def run_frontier_arrays(
        self,
        frontier: Any,
        width: int,
        deliver: Callable[[Any, Any], None],
        step: Callable[[int], Any],
        *,
        label: str,
        nominal_rounds: Optional[int] = None,
    ) -> ProtocolRun:
        """Run a broadcast schedule whose senders join round by round, as arrays.

        This is the array form of :meth:`run_broadcast_schedule` with a
        ``step`` in which every sender holds one ``width``-word payload.  The
        vertex ids in ``frontier``, strictly ascending, broadcast in round 0.
        Each round's broadcasts reach ``deliver(payloads, receivers)`` as in
        :meth:`run_broadcast_arrays`, in blocks, where payload ``i`` is the
        broadcast of the round's ``frontier[i]``.  ``step(round_index)`` then
        returns the ascending ids that broadcast next, the new frontier.  A
        round executes while the previous round's broadcasts reach somebody,
        and ``step`` runs once per executed round.

        The accounting is :meth:`run_broadcast_schedule`'s: the word-size
        check runs before the first delivery, congestion is 1, the tracer
        sees one event per executed round, and the ledger is charged once
        under ``label``.
        """
        np = require_numpy()
        csr = self.graph.csr()
        indptr, adj = csr.indptr_np, csr.adj_np
        trace_round = None if type(self.tracer) is NullTracer else self.tracer.on_round
        round_index = 0
        messages_delivered = 0
        frontier = np.asarray(frontier, dtype=np.int64)
        while len(frontier):
            if (
                frontier[0] < 0
                or frontier[-1] >= csr.num_vertices
                or bool((frontier[1:] <= frontier[:-1]).any())
            ):
                raise ProtocolError("an array frontier must hold strictly ascending vertex ids")
            if width > self.max_words_per_message:
                raise MessageTooLarge(width, self.max_words_per_message)
            degrees = indptr[frontier + 1] - indptr[frontier]
            in_flight = int(degrees.sum())
            if not in_flight:
                break
            for payloads, receivers in _broadcast_blocks(np, indptr, adj, frontier, degrees):
                deliver(payloads, receivers)
            round_index += 1
            messages_delivered += in_flight
            if trace_round is not None:
                trace_round(round_index, in_flight)
            frontier = np.asarray(step(round_index), dtype=np.int64)
        return self._charge_schedule(
            label, nominal_rounds, round_index, messages_delivered, width * messages_delivered
        )

    def _charge_schedule(
        self,
        label: str,
        nominal_rounds: Optional[int],
        rounds: int,
        messages: int,
        words: int,
    ) -> ProtocolRun:
        """Charge a finished broadcast schedule to the ledger and report it.

        Every used edge carried one message per round, so congestion is 1
        when anything was delivered.
        """
        max_congestion = 1 if messages else 0
        self.ledger.charge(
            label=label,
            nominal_rounds=nominal_rounds if nominal_rounds is not None else rounds,
            simulated_rounds=rounds,
            messages=messages,
            words=words,
            max_edge_congestion=max_congestion,
        )
        return ProtocolRun(
            rounds_executed=rounds,
            messages_delivered=messages,
            words_delivered=words,
            max_edge_congestion=max_congestion,
            results=[],
        )

    def _run_schedule_faulted(
        self,
        entries: List[Tuple[int, Sequence[Tuple[Any, ...]], Tuple[int, ...], int]],
        deliver: Callable[[int, Tuple[Any, ...], Tuple[int, ...]], None],
        rows: Sequence[Tuple[int, ...]],
        label: str,
        nominal_rounds: Optional[int],
        step: Optional[Callable[[int], Sequence[Tuple[int, Sequence[Tuple[Any, ...]]]]]],
        plan: FaultPlan,
    ) -> ProtocolRun:
        """Run checked schedule ``entries`` as node programs under an active ``plan``.

        Every vertex runs a :class:`_ScheduleProgram`, so each fault rule of
        :meth:`_run_protocol` applies unchanged.  Receivers see their inbox
        in inbox order, which under delays and duplicates is no longer
        (round, ascending sender) order, so ``deliver`` must rank what it
        receives itself.  ``step`` runs at the end of every executed round:
        its senders broadcast their first payload in that same round, after
        the round's programs, and the sender registry is put back in
        ascending order before delivery.
        """
        if nominal_rounds is None:
            raise ValueError("a faulted broadcast schedule needs nominal_rounds")
        programs = [_ScheduleProgram(v, deliver) for v in range(len(rows))]
        senders = [entry[0] for entry in entries]
        for sender, payloads, _, _ in entries:
            programs[sender].payloads = payloads

        end_of_round = None
        if step is not None:

            def end_of_round(round_index: int) -> List[int]:
                joined, _ = self._schedule_entries(step(round_index), rows, round_index)
                contexts = self._contexts
                woken = []
                for sender, payloads, _, _ in joined:
                    program = programs[sender]
                    ctx = contexts[sender]
                    if ctx._outbox or not program.is_idle():
                        raise ProtocolError(
                            f"forwarded sender {sender} still holds queued payloads"
                        )
                    program.payloads = payloads
                    program.sent = 0
                    program.send_next(ctx)
                    if not program.is_idle():
                        woken.append(sender)
                if joined:
                    self._pending.sort(key=_node_id)
                return woken

        return self._run_protocol(
            programs, fault_round_limit(nominal_rounds, plan), label, nominal_rounds,
            senders, False, False, senders, plan, end_of_round,
        )

    def _schedule_entries(
        self,
        queues: Sequence[Tuple[int, Sequence[Tuple[Any, ...]]]],
        rows: Sequence[Tuple[int, ...]],
        start: int,
    ) -> Tuple[List[Tuple[int, Sequence[Tuple[Any, ...]], Tuple[int, ...], int]], int]:
        """Check ``(sender, payloads)`` pairs joining a broadcast schedule at ``start``.

        Returns the ``(sender, payloads, row, start)`` entries of the senders
        with payloads and the words their broadcasts will deliver.  Every
        broadcast reaches the sender's whole row and is counted in the round
        after it is sent (that round always executes), so the word total is
        known as soon as a sender joins.
        """
        n = len(rows)
        max_words = self.max_words_per_message
        entries = []
        words = 0
        previous = -1
        for sender, payloads in queues:
            if not previous < sender < n:
                raise ProtocolError(
                    f"broadcast schedule senders must be ascending vertex ids, "
                    f"got {sender} after {previous}"
                )
            previous = sender
            if not payloads:
                continue
            if len(payloads) == 1:
                # Every forwarded forest sender: skip the two scans.
                widest = total = len(payloads[0])
            else:
                widest = max(map(len, payloads))
                total = sum(map(len, payloads))
            if widest > max_words:
                raise MessageTooLarge(widest, max_words)
            row = rows[sender]
            words += len(row) * total
            entries.append((sender, payloads, row, start))
        return entries, words

    def _run_protocol(
        self,
        programs: Union[Sequence[NodeProgram], Dict[int, NodeProgram]],
        max_rounds: int,
        label: str,
        nominal_rounds: Optional[int],
        initially_awake: Optional[Iterable[int]],
        collect_results: bool,
        message_driven: bool,
        starters: Optional[Sequence[int]],
        plan: Optional[FaultPlan],
        end_of_round: Optional[Callable[[int], Iterable[int]]] = None,
    ) -> ProtocolRun:
        """Execute the scheduler loop (buffers are clean on entry and exit).

        ``programs`` is indexed by node; only the nodes that start, run or
        are polled are looked up.  ``initially_awake``, when given, is a
        superset of the nodes whose ``is_idle()`` could be false right after
        ``on_start`` (a factory's starters, a faulted broadcast schedule's
        senders); only those are polled, not all ``n``.
        ``end_of_round(round_index)``, when given, runs at the end of every
        executed round, after the round's programs and before delivery; it
        may queue messages through the contexts and returns the nodes that
        are no longer idle.

        With an active ``plan``, :meth:`_deliver_faulted` filters every
        delivery event through the plan; delayed messages join the inboxes of
        the round they are due in (after that round's on-time messages),
        crashed nodes leave the active set, and rounds in which only delayed
        messages are in flight are fast-forwarded over.

        Fault semantics:

        * The bandwidth audit runs on the protocol's *attempted* sends, before
          any fault is applied -- injected duplicates are the network's fault,
          not the protocol's, and dropped messages still consumed bandwidth.
        * ``messages_delivered``/``words_delivered`` count messages actually
          placed in an inbox (duplicates count twice, drops not at all).
        * A node crashing at round ``t`` executes rounds ``0..t-1``; messages
          that would be processed at round >= ``t`` are lost
          (``lost_to_crash``).
        """
        contexts = self._node_contexts()
        inboxes = self._inboxes
        n = len(inboxes)
        if self._dirty:
            # A previous run aborted mid-round (congestion violation, round
            # limit, program error); scrub its leftovers before starting.
            for ctx in contexts.values():
                ctx._outbox.clear()
                ctx._dup_possible = False
            for inbox in inboxes:
                inbox.clear()
            self._pending.clear()
        # Cleared again only when this run completes.
        self._dirty = True
        if plan is not None and not plan.active:
            plan = None
        # Messages a plan delays, keyed by the round they are due in.
        delayed: Dict[int, List[Tuple[int, Message]]] = {}
        if plan is None:
            crash_at: Dict[int, int] = {}
            counters = None
            deliver = self._deliver
        else:
            crash_at = plan.crash_schedule(n)
            counters = fresh_fault_counters()
            counters["crashed_nodes"] = len(crash_at)
            deliver = partial(
                self._deliver_faulted,
                plan=plan,
                crash_at=crash_at,
                counters=counters,
                delayed=delayed,
            )

        # Round 0: on_start may queue messages.  ``starters`` narrows the
        # sweep to the programs whose on_start actually does something.
        round0 = range(n) if starters is None else starters
        candidates = range(n) if initially_awake is None else initially_awake
        if crash_at:
            # A node crashing at round 0 neither starts nor counts as awake.
            round0 = [v for v in round0 if crash_at.get(v, NEVER) > 0]
            candidates = [v for v in candidates if crash_at.get(v, NEVER) > 0]
        for v in round0:
            ctx = contexts[v]
            ctx.round_index = 0
            programs[v].on_start(ctx)

        rounds_executed = 0
        messages_delivered = 0
        words_delivered = 0
        tracer = self.tracer
        trace_round = None if type(tracer) is NullTracer else tracer.on_round

        track_idle = not message_driven

        # The scheduler keeps an explicit active set instead of scanning all n
        # programs every round: ``awake`` tracks exactly the nodes whose
        # ``is_idle()`` returned false the last time they ran (idleness only
        # changes when a node runs), and ``receivers`` the nodes with mail.
        # ``initially_awake`` narrows the start-of-protocol idle poll to the
        # caller-declared candidates; ``message_driven`` protocols skip idle
        # tracking entirely.
        awake = {v for v in candidates if not programs[v].is_idle()} if track_idle else set()

        # Collect round-0 sends (senders registered themselves in on_start).
        receivers, in_flight, in_flight_words, max_congestion, violations = deliver(0, inboxes)

        round_index = 0
        while receivers or awake or delayed:
            if rounds_executed >= max_rounds:
                raise RoundLimitExceeded(max_rounds)
            round_index += 1
            if plan is not None:
                if not receivers and not awake:
                    # Only delayed messages remain; fast-forward to the next
                    # due round (idle gap rounds are not counted as executed).
                    round_index = min(delayed)
                if crash_at:
                    awake = {v for v in awake if crash_at.get(v, NEVER) > round_index}
                for neighbor, message in delayed.pop(round_index, ()):
                    inbox = inboxes[neighbor]
                    if not inbox:
                        receivers.append(neighbor)
                    inbox.append(message)
                    in_flight += 1
                    in_flight_words += message.words
                if not receivers and not awake:
                    continue
            rounds_executed += 1
            messages_delivered += in_flight
            words_delivered += in_flight_words
            if trace_round is not None:
                trace_round(round_index, in_flight)

            if awake:
                active = set(receivers)
                active.update(awake)
                ran = sorted(active)
            else:
                # Delivery hands back a fresh list each round; sort in place.
                receivers.sort()
                ran = receivers
            for v in ran:
                ctx = contexts[v]
                ctx.round_index = round_index
                inbox = inboxes[v]
                program = programs[v]
                program.on_round(ctx, inbox)
                if inbox:
                    inbox.clear()
                if track_idle:
                    if program.is_idle():
                        awake.discard(v)
                    else:
                        awake.add(v)
            if end_of_round is not None:
                awake.update(end_of_round(round_index))

            # Only nodes that queued this round are in the sender registry.
            receivers, in_flight, in_flight_words, round_congestion, round_violations = (
                deliver(round_index, inboxes)
            )
            if round_congestion > max_congestion:
                max_congestion = round_congestion
            if round_violations:
                violations.extend(round_violations)

        run = ProtocolRun(
            rounds_executed=rounds_executed,
            messages_delivered=messages_delivered,
            words_delivered=words_delivered,
            max_edge_congestion=max_congestion,
            results=[p.result() for p in programs] if collect_results else [],
            congestion_violations=violations,
            fault_counters=counters,
        )
        self.ledger.charge(
            label=label,
            nominal_rounds=nominal_rounds if nominal_rounds is not None else rounds_executed,
            simulated_rounds=rounds_executed,
            messages=messages_delivered,
            words=words_delivered,
            max_edge_congestion=max_congestion,
        )
        self._dirty = False
        return run

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(
        self,
        round_index: int,
        inboxes: List[List[Message]],
    ) -> Tuple[List[int], int, int, int, List[Tuple[int, int, int, int]]]:
        """Drain the registered senders' outboxes into the reusable inboxes.

        Returns ``(receivers, messages, words, max_congestion, violations)``:
        the nodes whose inbox is now non-empty (in delivery order), the
        message and word totals now in flight, the round's max per-edge
        congestion, and any recorded violations.  Senders registered
        themselves in the shared ``_pending`` list on their first queueing of
        the round; programs run in ascending node order, so the registry is
        ascending and the audit trail stays deterministic.  A directed edge
        ``(sender, receiver)`` only ever carries messages from ``sender``'s
        outbox, so the bandwidth audit runs per-sender without a global
        per-edge table.
        """
        receivers: List[int] = []
        add_receiver = receivers.append
        violations: List[Tuple[int, int, int, int]] = []
        max_congestion = 0
        messages = 0
        words = 0
        bandwidth = self.bandwidth_messages
        pending = self._pending
        for ctx in pending:
            outbox = ctx._outbox
            if not outbox:
                # A registered sender's outbox can only be empty if something
                # outside the scheduler drained it (e.g. drain_outbox in a
                # unit test); tolerate it rather than crash on outbox[0].
                continue
            if not ctx._dup_possible:
                # Single send or single broadcast: destinations are distinct,
                # so per-edge congestion is exactly 1 and no audit is needed
                # (the congestion floor is applied once after the loop).
                neighbor, message = outbox[0]
                if neighbor == BROADCAST_DEST:
                    pairs = ctx._neighbor_pairs
                    if pairs is None:
                        pairs = _resolve_pairs(ctx, inboxes)
                    if pairs:
                        messages += len(pairs)
                        words += message.words * len(pairs)
                        for nb, inbox in pairs:
                            if not inbox:
                                add_receiver(nb)
                            inbox.append(message)
                else:
                    messages += 1
                    words += message.words
                    inbox = inboxes[neighbor]
                    if not inbox:
                        add_receiver(neighbor)
                    inbox.append(message)
            else:
                # Multiple queueings in one round: expand broadcasts and audit
                # per-edge counts (first-occurrence order, grouped by sender,
                # matching the historical per-edge table's insertion order).
                ctx._dup_possible = False
                counts: Dict[int, int] = {}
                for neighbor, message in outbox:
                    if neighbor == BROADCAST_DEST:
                        message_words = message.words
                        pairs = ctx._neighbor_pairs
                        if pairs is None:
                            pairs = _resolve_pairs(ctx, inboxes)
                        for nb, inbox in pairs:
                            messages += 1
                            words += message_words
                            if not inbox:
                                add_receiver(nb)
                            inbox.append(message)
                            counts[nb] = counts.get(nb, 0) + 1
                    else:
                        messages += 1
                        words += message.words
                        inbox = inboxes[neighbor]
                        if not inbox:
                            add_receiver(neighbor)
                        inbox.append(message)
                        counts[neighbor] = counts.get(neighbor, 0) + 1
                for neighbor, count in counts.items():
                    if count > max_congestion:
                        max_congestion = count
                    if count > bandwidth:
                        if self.strict_congestion:
                            raise CongestionViolation(
                                round_index, ctx.node_id, neighbor, count, bandwidth
                            )
                        violations.append((round_index, ctx.node_id, neighbor, count))
            outbox.clear()
        pending.clear()
        # Single-send/broadcast deliveries carry congestion exactly 1; apply
        # the floor once instead of branching per sender inside the loop.
        if messages and not max_congestion:
            max_congestion = 1
        return receivers, messages, words, max_congestion, violations

    def _deliver_faulted(
        self,
        round_index: int,
        inboxes: List[List[Message]],
        *,
        plan: FaultPlan,
        crash_at: Dict[int, int],
        counters: Dict[str, int],
        delayed: Dict[int, List[Tuple[int, Message]]],
    ) -> Tuple[List[int], int, int, int, List[Tuple[int, int, int, int]]]:
        """:meth:`_deliver` with ``plan`` applied to every delivery event.

        Each sender's attempted sends are audited first; every delivery
        event then passes link-down, drop, duplicate, delay and lost-to-crash
        in that order, and ``counters`` tallies each fault.  On-time messages
        land in the inboxes; delayed ones are queued in ``delayed`` under the
        round they are due in.  Returns the same tuple as :meth:`_deliver`,
        counting on-time messages only.
        """
        receivers: List[int] = []
        violations: List[Tuple[int, int, int, int]] = []
        max_congestion = 0
        messages = 0
        words = 0
        bandwidth = self.bandwidth_messages
        pending = self._pending
        for ctx in pending:
            sends = ctx.drain_outbox()
            sender = ctx.node_id
            counts: Dict[int, int] = {}
            for neighbor, _ in sends:
                counts[neighbor] = counts.get(neighbor, 0) + 1
            for neighbor, count in counts.items():
                if count > max_congestion:
                    max_congestion = count
                if count > bandwidth:
                    if self.strict_congestion:
                        raise CongestionViolation(round_index, sender, neighbor, count, bandwidth)
                    violations.append((round_index, sender, neighbor, count))
            copy_of: Dict[int, int] = {}
            for neighbor, message in sends:
                copy = copy_of.get(neighbor, 0)
                copy_of[neighbor] = copy + 1
                if plan.link_down(round_index, sender, neighbor):
                    counters["link_down"] += 1
                    continue
                if plan.drops(round_index, sender, neighbor, copy):
                    counters["dropped"] += 1
                    continue
                copies = 1
                if plan.duplicates(round_index, sender, neighbor, copy):
                    copies = 2
                    counters["duplicated"] += 1
                for extra in range(copies):
                    lag = plan.delay(round_index, sender, neighbor, 2 * copy + extra)
                    target = round_index + 1 + lag
                    if crash_at.get(neighbor, NEVER) <= target:
                        counters["lost_to_crash"] += 1
                        continue
                    if lag:
                        counters["delayed"] += 1
                        counters["delay_rounds"] += lag
                        delayed.setdefault(target, []).append((neighbor, message))
                        continue
                    inbox = inboxes[neighbor]
                    if not inbox:
                        receivers.append(neighbor)
                    inbox.append(message)
                    messages += 1
                    words += message.words
        pending.clear()
        return receivers, messages, words, max_congestion, violations
