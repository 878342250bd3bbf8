"""Node programs and their execution context.

A distributed protocol is expressed as one :class:`NodeProgram` instance per
vertex.  In every synchronous round the simulator calls ``on_round`` on every
program, handing it the messages delivered this round; the program reacts by
queueing messages for the next round through its :class:`NodeContext`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional, Sequence, Tuple

from .errors import InvalidDestination, MessageTooLarge
from .message import Message, count_words

# Message is a NamedTuple; with the word count in hand its constructor logic
# is a no-op, so the send hot paths go through tuple.__new__ directly.
_new_message = tuple.__new__

# Outbox sentinel destination meaning "every neighbour" (vertex ids are >= 0).
# A broadcast queues one sentinel entry instead of one pair per neighbour;
# the simulator (and drain_outbox) expand it at delivery time.
BROADCAST_DEST = -1


class NodeContext:
    """Per-node, per-round view of the network handed to a :class:`NodeProgram`.

    The context exposes the node's ID, its neighbour list, the current round
    number and a ``send`` method.  It also accumulates the node's outbox; the
    simulator drains the outbox at the end of the round.
    """

    __slots__ = (
        "node_id",
        "neighbors",
        "round_index",
        "_outbox",
        "_max_words",
        "_neighbor_pairs",
        "_pending",
        "_dup_possible",
    )

    def __init__(self, node_id: int, neighbors: Sequence[int], max_words_per_message: int) -> None:
        self.node_id = node_id
        self.neighbors = tuple(sorted(neighbors))
        self.round_index = 0
        self._outbox: List[Tuple[int, Message]] = []
        self._max_words = max_words_per_message
        # ``(neighbor, inbox)`` pairs in ascending neighbour order, resolved
        # by the simulator on this node's first broadcast (``None`` until
        # then; an isolated node gets the empty tuple).  Later broadcasts
        # iterate this one tuple instead of re-zipping the neighbour list
        # against the global inbox table, and nodes that never broadcast
        # (every node program of a fault-free build) never build it.
        self._neighbor_pairs: Optional[Tuple[Tuple[int, List[Message]], ...]] = None
        # Shared per-round sender registry (installed by the simulator): a
        # context appends itself on the round's first queueing, so delivery
        # drains exactly the nodes that sent instead of scanning all that ran.
        self._pending: List["NodeContext"] = []
        # Whether this round's outbox might carry two messages over one edge.
        # A single send or a single broadcast cannot (broadcast destinations
        # are distinct by construction), so the congestion audit can skip its
        # per-edge counting unless a second queueing happens in one round.
        self._dup_possible = False

    def send(self, neighbor: int, *content: Any) -> None:
        """Queue a message with payload ``content`` to ``neighbor`` for this round."""
        # A binary search of the sorted neighbours: most senders send once,
        # so a per-node hash set would cost more to build than it saves.
        neighbors = self.neighbors
        index = bisect_left(neighbors, neighbor)
        if index == len(neighbors) or neighbors[index] != neighbor:
            raise InvalidDestination(self.node_id, neighbor)
        words = count_words(content)
        if words > self._max_words:
            raise MessageTooLarge(words, self._max_words)
        # The word count is already computed, so skip Message.__new__'s
        # recount branch and build the tuple directly (hot path).
        message = _new_message(Message, (self.node_id, content, words))
        outbox = self._outbox
        if outbox:
            self._dup_possible = True
        else:
            self._pending.append(self)
        outbox.append((neighbor, message))

    def broadcast(self, *content: Any) -> None:
        """Queue the same message to every neighbour.

        The payload is audited and wrapped once and queued as a single
        broadcast entry; the simulator expands it to the (distinct, sorted)
        neighbour list at delivery time, which keeps broadcast-heavy
        protocols (BFS forests, explorations) off the per-send slow path.
        """
        words = count_words(content)
        if words > self._max_words:
            raise MessageTooLarge(words, self._max_words)
        message = _new_message(Message, (self.node_id, content, words))
        outbox = self._outbox
        if outbox:
            self._dup_possible = True
        else:
            self._pending.append(self)
        outbox.append((BROADCAST_DEST, message))

    def broadcast_flat(self, *content: Any) -> None:
        """Broadcast a payload of plain scalar words (hot-path variant).

        Identical to :meth:`broadcast` for payloads without nested tuples --
        every protocol in this repository sends flat scalar tuples -- but
        skips the per-item nesting scan.  Callers passing a nested tuple
        would under-count its words; don't.
        """
        words = len(content)
        if words > self._max_words:
            raise MessageTooLarge(words, self._max_words)
        message = _new_message(Message, (self.node_id, content, words))
        outbox = self._outbox
        if outbox:
            self._dup_possible = True
        else:
            self._pending.append(self)
        outbox.append((BROADCAST_DEST, message))

    def send_flat(self, neighbor: int, *content: Any) -> None:
        """Send a payload of plain scalar words (hot-path variant of :meth:`send`)."""
        # A binary search of the sorted neighbours: most senders send once,
        # so a per-node hash set would cost more to build than it saves.
        neighbors = self.neighbors
        index = bisect_left(neighbors, neighbor)
        if index == len(neighbors) or neighbors[index] != neighbor:
            raise InvalidDestination(self.node_id, neighbor)
        words = len(content)
        if words > self._max_words:
            raise MessageTooLarge(words, self._max_words)
        message = _new_message(Message, (self.node_id, content, words))
        outbox = self._outbox
        if outbox:
            self._dup_possible = True
        else:
            self._pending.append(self)
        outbox.append((neighbor, message))

    def drain_outbox(self) -> List[Tuple[int, Message]]:
        """Return and clear the queued messages, broadcasts expanded per neighbour."""
        outbox, self._outbox = self._outbox, []
        self._dup_possible = False
        expanded: List[Tuple[int, Message]] = []
        for neighbor, message in outbox:
            if neighbor == BROADCAST_DEST:
                for nb in self.neighbors:
                    expanded.append((nb, message))
            else:
                expanded.append((neighbor, message))
        return expanded

    @property
    def pending_sends(self) -> int:
        """Number of messages currently queued for this round."""
        return sum(
            len(self.neighbors) if neighbor == BROADCAST_DEST else 1
            for neighbor, _ in self._outbox
        )


class NodeProgram:
    """Base class for per-vertex protocol code.

    Subclasses override :meth:`on_start` (round 0 initialization, may already
    send) and :meth:`on_round` (invoked each subsequent round with the
    messages received).  A program signals local completion by returning
    ``True`` from :meth:`is_idle`; the protocol as a whole terminates when
    every node is idle and no messages are in flight.
    """

    def on_start(self, ctx: NodeContext) -> None:
        """Initialize state and optionally send round-0 messages."""

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        """Process messages delivered at the start of this round."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """Return whether the node has nothing more to send spontaneously.

        Idle nodes are still woken up when they receive messages; idleness
        only matters for the global-quiescence termination test.
        """
        return True

    def result(self) -> Any:
        """Return this node's local output once the protocol has terminated."""
        return None
