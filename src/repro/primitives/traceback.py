"""Path trace-back protocols.

Two places in the algorithm turn *knowledge of a path* into *edges added to
the spanner*:

* the **interconnection step** (paper Section 2.3): a cluster center ``r_C``
  that knows center ``r_C'`` (through Algorithm 1) traces the message that
  informed it back towards ``r_C'``, adding every traversed edge to ``H``;
* the **superclustering step** (Section 2.2): for every cluster center spanned
  by the BFS forest ``F_i``, the forest path from the root to that center is
  added to ``H``.

Both are implemented as CONGEST protocols here.  Requests move one hop per
round; when several requests queue up at a vertex for the same neighbour they
are paced at one message per round (the paper charges ``O(deg_i * delta_i)``
rounds for the interconnection trace-back, which our nominal accounting
mirrors).

Both run on :meth:`~repro.congest.simulator.Simulator.run_protocol` with a
program factory: a vertex's program is built when it starts (it holds a
request) or first receives a message, so a protocol costs what its messages
cost rather than ``O(n)``, and a trace-back without requests builds nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..congest.message import Message
from ..congest.node import NodeContext, NodeProgram
from ..congest.simulator import Simulator
from .bfs_forest import ForestResult
from .exploration import ExplorationResult

TRACE_TAG = "trace"
MARKUP_TAG = "markup"


@dataclass
class TracebackResult:
    """Edges added to the spanner by a trace-back protocol."""

    edges: Set[Tuple[int, int]]
    nominal_rounds: int
    simulated_rounds: int


class _TracebackProgram(NodeProgram):
    """Forwards trace-back requests along via-pointers, marking traversed edges.

    Each program holds the shared :class:`ExplorationResult` and its own node
    id and asks :meth:`ExplorationResult.via` for the next hop, so the
    exploration's knowledge is read in place over either backing (the array
    tier's knowledge is never turned into dicts).  Most vertices never
    participate in a given trace-back, so the per-node containers (marked
    edges, forwarded-target set, per-neighbour queues) are allocated lazily
    on first use instead of eagerly for all ``n`` programs.
    """

    __slots__ = ("node_id", "exploration", "marked", "forwarded", "queues")

    def __init__(
        self,
        node_id: int,
        exploration: ExplorationResult,
        initial_targets: Sequence[int],
        marked: Set[Tuple[int, int]],
    ) -> None:
        self.node_id = node_id
        self.exploration = exploration
        # Shared edge set owned by the driver: programs mark traversed edges
        # directly into it, so no per-node result sweep is needed.
        self.marked = marked
        self.forwarded: Optional[Set[int]] = None
        self.queues: Optional[Dict[int, deque]] = None
        for target in initial_targets:
            self._enqueue(target)

    def _enqueue(self, target: int) -> None:
        if target == self.node_id:
            return
        forwarded = self.forwarded
        if forwarded is None:
            forwarded = self.forwarded = set()
        elif target in forwarded:
            return
        via = self.exploration.via(self.node_id, target)
        if via is None:
            # We do not know the target.
            return
        forwarded.add(target)
        if self.queues is None:
            self.queues = {}
        self.queues.setdefault(via, deque()).append(target)

    def on_start(self, ctx: NodeContext) -> None:
        self._flush(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        # Inboxes arrive in ascending sender order and the protocol sends at
        # most one trace message per edge per round, so arrival order already
        # equals the historical (sender, content) processing order.
        for message in inbox:
            if message.content[0] != TRACE_TAG:
                continue
            _, target = message.content
            self._enqueue(target)
        self._flush(ctx)

    def _flush(self, ctx: NodeContext) -> None:
        queues = self.queues
        if not queues:
            return
        marked = self.marked
        emptied: List[int] = []
        node_id = self.node_id
        for neighbor in sorted(queues):
            queue = queues[neighbor]
            target = queue.popleft()
            ctx.send_flat(neighbor, TRACE_TAG, target)
            marked.add((node_id, neighbor) if node_id <= neighbor else (neighbor, node_id))
            if not queue:
                emptied.append(neighbor)
        for neighbor in emptied:
            del queues[neighbor]

    def is_idle(self) -> bool:
        return not self.queues

    def result(self) -> None:
        return None


def run_traceback(
    simulator: Simulator,
    exploration: ExplorationResult,
    requests: Dict[int, Iterable[int]],
    label: str = "traceback",
    nominal_rounds: Optional[int] = None,
) -> TracebackResult:
    """Trace shortest paths from each initiator to each of its targets.

    ``requests`` maps an initiating vertex to the centers it wants to connect
    to; the initiator must know each target through ``exploration`` (Theorem
    2.1 guarantees this for non-popular centers).  Unknown targets are skipped
    silently, mirroring the fact that the real protocol simply has no message
    to trace, and so are initiators outside the graph.  Programs are built
    only for the initiators and the vertices the requests reach.
    """
    n = simulator.graph.num_vertices
    edges: Set[Tuple[int, int]] = set()
    initiators = sorted(v for v in requests if 0 <= v < n)

    def program(v: int) -> _TracebackProgram:
        targets = requests.get(v)
        initial = sorted(set(targets)) if targets is not None else ()
        return _TracebackProgram(v, exploration, initial, edges)

    if nominal_rounds is None:
        nominal_rounds = exploration.cap * exploration.depth
    run = simulator.run_protocol(
        program,
        label=label,
        nominal_rounds=nominal_rounds,
        starters=initiators,
        collect_results=False,
    )
    return TracebackResult(
        edges=edges,
        nominal_rounds=nominal_rounds,
        simulated_rounds=run.rounds_executed,
    )


class _ForestMarkupProgram(NodeProgram):
    """Marks forest edges on the path from designated vertices up to their roots."""

    __slots__ = ("node_id", "parent", "marked", "_should_propagate", "_propagated")

    def __init__(
        self,
        node_id: int,
        parent: Optional[int],
        is_target: bool,
        marked: Set[Tuple[int, int]],
    ) -> None:
        self.node_id = node_id
        self.parent = parent
        # Shared edge set owned by the driver (each node contributes at most
        # its parent edge).
        self.marked = marked
        self._should_propagate = is_target and parent is not None
        self._propagated = False

    def on_start(self, ctx: NodeContext) -> None:
        self._propagate(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        for message in inbox:
            if message.content[0] != MARKUP_TAG:
                continue
            if self.parent is not None:
                self._should_propagate = True
        self._propagate(ctx)

    def _propagate(self, ctx: NodeContext) -> None:
        if self._should_propagate and not self._propagated:
            parent = self.parent
            assert parent is not None
            ctx.send_flat(parent, MARKUP_TAG)
            node_id = self.node_id
            self.marked.add((node_id, parent) if node_id <= parent else (parent, node_id))
            self._propagated = True

    def is_idle(self) -> bool:
        return self._propagated or not self._should_propagate

    def result(self) -> None:
        return None


def run_forest_path_markup(
    simulator: Simulator,
    forest: ForestResult,
    targets: Iterable[int],
    label: str = "forest-markup",
) -> TracebackResult:
    """Add the forest path from every target up to its forest root.

    Every vertex propagates the mark-up request at most once, so at most one
    message crosses any edge during the whole protocol; the nominal round cost
    is the forest depth.  Programs are built only for the targets and the
    vertices on their paths to the roots.
    """
    n = simulator.graph.num_vertices
    target_set = set(targets)
    root = forest.root
    for t in target_set:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range")
        if root[t] is None:
            raise ValueError(f"target {t} is not spanned by the forest")
    parent = forest.parent
    edges: Set[Tuple[int, int]] = set()
    # Markup programs always propagate within the round that triggers them,
    # so no program is ever observed non-idle: pure message-driven protocol.
    run = simulator.run_protocol(
        lambda v: _ForestMarkupProgram(v, parent[v], v in target_set, edges),
        label=label,
        nominal_rounds=forest.depth,
        message_driven=True,
        starters=sorted(target_set),
        collect_results=False,
    )
    return TracebackResult(
        edges=edges,
        nominal_rounds=forest.depth,
        simulated_rounds=run.rounds_executed,
    )


def centralized_traceback_flat(
    exploration: "CenterExploration",
    requests: Dict[int, Iterable[int]],
) -> Set[Tuple[int, int]]:
    """Trace-back over a flat-array :class:`~repro.primitives.exploration.CenterExploration`.

    Walks each requested ``initiator -> target`` shortest path along the
    target's dense parent array, the centralized counterpart of
    :func:`run_traceback`'s via-chains.  Depth-1 explorations carry no
    parent arrays (see
    :class:`~repro.primitives.exploration.CenterExploration`): each path is
    the single edge ``(initiator, target)``, emitted directly.
    """
    edges: Set[Tuple[int, int]] = set()
    add = edges.add
    if exploration.depth <= 1:
        # Every known target is a direct neighbour; the traced path is the
        # connecting edge itself.
        for initiator, targets in requests.items():
            for target in targets:
                if target != initiator:
                    add((initiator, target) if initiator <= target else (target, initiator))
        return edges
    parents = exploration.parents
    for initiator, targets in requests.items():
        for target in targets:
            if target == initiator:
                continue
            parent = parents[target]
            if parent[initiator] < 0:
                # The initiator never learned this target; nothing to trace.
                continue
            current = initiator
            while current != target:
                # int() guards the vectorized backend: numpy parent arrays
                # yield np.int64 scalars, which must not leak into the edge
                # tuples (they would break JSON serialization downstream).
                nxt = int(parent[current])
                add((current, nxt) if current <= nxt else (nxt, current))
                current = nxt
    return edges
