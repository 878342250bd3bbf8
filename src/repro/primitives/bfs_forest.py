"""Distributed multi-source BFS forest (depth-bounded).

This is the protocol the superclustering step uses to grow superclusters
around the ruling-set vertices (paper, Section 2.2): a BFS exploration rooted
at the set ``RS_i`` is executed to depth ``(2/rho) * delta_i``, producing a
forest ``F_i`` rooted at the vertices of ``RS_i``.  The ruling set's
knock-outs are the same protocol with depth ``q``.

Each vertex adopts the first root it hears about (ties broken by root ID, then
by parent ID, which keeps the construction deterministic) and forwards the
announcement once, so at most one message crosses any edge in any round --
well within the CONGEST bandwidth.

Fault-free, the forest is level-synchronous: in round ``r`` exactly the
vertices at distance ``r - 1`` broadcast.  It therefore runs as a broadcast
schedule (:meth:`~repro.congest.simulator.Simulator.run_broadcast_schedule`)
whose end-of-round step hands the round's adopters back as the next
frontier, with no per-vertex programs.  Under a
:class:`~repro.congest.faults.FaultPlan` it runs as :class:`_ForestProgram`
instances on the simulator's round loop, whose delivery applies the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..congest.errors import ProtocolFault, RoundLimitExceeded
from ..congest.faults import FaultPlan, fault_round_limit
from ..congest.message import Message
from ..congest.node import NodeContext, NodeProgram
from ..congest.simulator import ProtocolRun, Simulator

FOREST_TAG = "forest"


@dataclass
class ForestResult:
    """Outcome of a multi-source depth-bounded BFS forest construction.

    Attributes
    ----------
    root:
        ``root[v]`` is the source whose tree spans ``v`` (``None`` if ``v`` is
        not within ``depth`` of any source).
    dist:
        ``dist[v]`` is the distance from ``v`` to its root (``None`` if
        unreached).
    parent:
        ``parent[v]`` is the forest parent of ``v`` (``None`` for roots and
        unreached vertices).
    depth:
        The depth bound used.
    nominal_rounds:
        The scheduled number of rounds (= ``depth``), as the paper counts.
    run:
        The raw simulator statistics.
    """

    root: List[Optional[int]]
    dist: List[Optional[int]]
    parent: List[Optional[int]]
    depth: int
    nominal_rounds: int
    run: ProtocolRun
    attempts: int = 1

    def spanned(self, v: int) -> bool:
        """Whether ``v`` is spanned by the forest."""
        return self.root[v] is not None

    def spanned_vertices(self) -> List[int]:
        """All vertices spanned by the forest, sorted."""
        return [v for v in range(len(self.root)) if self.root[v] is not None]

    def tree_path_to_root(self, v: int) -> List[int]:
        """Return the forest path from ``v`` up to its root (inclusive)."""
        if self.root[v] is None:
            raise ValueError(f"vertex {v} is not spanned by the forest")
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path


class _ForestProgram(NodeProgram):
    """Per-vertex program implementing the depth-bounded BFS forest.

    Runs the forest under a :class:`~repro.congest.faults.FaultPlan`, and is
    the reference the fault-free broadcast schedule is tested against.
    Adopted labels are written through to the driver's shared ``root`` /
    ``dist`` / ``parent`` lists as they happen, so callers that do not need
    the per-node result sweep can skip collection entirely.
    """

    __slots__ = ("node_id", "is_source", "depth", "root", "dist", "parent", "_shared")

    def __init__(
        self,
        node_id: int,
        is_source: bool,
        depth: int,
        shared: Tuple[List[Optional[int]], List[Optional[int]], List[Optional[int]]],
    ) -> None:
        self.node_id = node_id
        self.is_source = is_source
        self.depth = depth
        self.root: Optional[int] = node_id if is_source else None
        self.dist: Optional[int] = 0 if is_source else None
        self.parent: Optional[int] = None
        self._shared = shared
        if is_source:
            shared[0][node_id] = node_id
            shared[1][node_id] = 0

    def on_start(self, ctx: NodeContext) -> None:
        if self.is_source and self.depth > 0:
            ctx.broadcast_flat(FOREST_TAG, self.node_id, 0)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        if self.root is not None:
            return
        # Adopt the best announcement: smallest distance, then smallest root,
        # then smallest parent -- deterministic tie breaking.  (Messages are
        # NamedTuples; unpacking skips the per-message attribute reads.)
        best: Optional[Tuple[int, int, int]] = None
        for sender, content, _ in inbox:
            if content[0] != FOREST_TAG:
                continue
            candidate = (content[2] + 1, content[1], sender)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return
        self.dist, self.root, self.parent = best
        node_id = self.node_id
        shared = self._shared
        shared[0][node_id] = self.root
        shared[1][node_id] = self.dist
        shared[2][node_id] = self.parent
        if self.dist < self.depth:
            ctx.broadcast_flat(FOREST_TAG, self.root, self.dist)

    def is_idle(self) -> bool:
        return True

    def result(self):
        return (self.root, self.dist, self.parent)


def run_bfs_forest(
    simulator: Simulator,
    sources: Iterable[int],
    depth: int,
    label: str = "bfs-forest",
    collect_node_results: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1,
) -> ForestResult:
    """Grow a depth-bounded BFS forest rooted at ``sources``.

    The nominal round cost charged to the simulator's ledger is ``depth``
    (the scheduled exploration depth), matching how the paper accounts for
    this step.

    The forest labels are written through to shared arrays as vertices adopt
    roots; ``collect_node_results=False`` additionally skips the per-node
    ``result()`` sweep (``ForestResult.run.results`` is then empty), which
    callers that only consume ``root``/``dist``/``parent`` use.

    ``fault_plan`` runs the protocol under an injected fault schedule with a
    bounded round budget (:func:`fault_round_limit`); the construction is
    retried up to ``max_attempts`` times under derived plans, and a typed
    :class:`~repro.congest.errors.ProtocolFault` is raised when every attempt
    exceeds its budget.  Under faults every recorded parent is still a real
    edge and ``dist`` the real hop count of a real path (safety), but a
    vertex's tree path may be longer than its true distance and coverage may
    be incomplete.
    """
    graph = simulator.graph
    n = graph.num_vertices
    source_set = set(sources)
    for s in source_set:
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")

    starters = sorted(source_set)
    if fault_plan is None or not fault_plan.active:
        root, dist, parent = _fresh_labels(n, starters)
        run = _run_forest_schedule(simulator, starters, depth, label, root, dist, parent)
        if collect_node_results:
            run.results = list(zip(root, dist, parent))
        return ForestResult(
            root=root, dist=dist, parent=parent, depth=depth, nominal_rounds=depth, run=run
        )

    plans = [fault_plan.retry(k) for k in range(max(1, max_attempts))]
    for attempt, plan in enumerate(plans):
        root, dist, parent = _fresh_labels(n, starters)
        shared = (root, dist, parent)
        programs = [_ForestProgram(v, v in source_set, depth, shared) for v in range(n)]
        try:
            run = simulator.run_protocol(
                programs,
                label=label,
                nominal_rounds=depth,
                collect_results=collect_node_results,
                fault_plan=plan,
                max_rounds=fault_round_limit(depth, plan),
            )
        except RoundLimitExceeded:
            if attempt == len(plans) - 1:
                raise ProtocolFault(label, "round-timeout", attempts=len(plans))
            continue
        return ForestResult(
            root=root,
            dist=dist,
            parent=parent,
            depth=depth,
            nominal_rounds=depth,
            run=run,
            attempts=attempt + 1,
        )
    raise AssertionError("unreachable")


def _fresh_labels(
    n: int, sources: List[int]
) -> Tuple[List[Optional[int]], List[Optional[int]], List[Optional[int]]]:
    """``root`` / ``dist`` / ``parent`` lists with only the sources labelled."""
    root: List[Optional[int]] = [None] * n
    dist: List[Optional[int]] = [None] * n
    for s in sources:
        root[s] = s
        dist[s] = 0
    return root, dist, [None] * n


def _run_forest_schedule(
    simulator: Simulator,
    sources: List[int],
    depth: int,
    label: str,
    root: List[Optional[int]],
    dist: List[Optional[int]],
    parent: List[Optional[int]],
) -> ProtocolRun:
    """Grow the fault-free forest as a broadcast schedule, labelling in place.

    Round ``r``'s broadcasts all carry distance ``r``, so a receiver's
    :class:`_ForestProgram` choice -- the smallest ``(dist + 1, root,
    sender)`` -- is the smallest ``(root, sender)`` among that round's
    announcements.  Broadcasts arrive in ascending sender order, so a
    receiver keeps the first sender of the smallest root it sees.  A vertex
    whose ``dist`` is still ``None`` is undecided: ``root``/``parent`` hold
    its best offer so far, and the end-of-round step fixes ``dist`` for the
    round's adopters and returns those below ``depth`` as the next frontier.
    """
    adopters: List[int] = []

    def deliver(sender: int, payload: Tuple[str, int, int], row: Tuple[int, ...]) -> None:
        announced = payload[1]
        for u in row:
            if dist[u] is None:
                offered = root[u]
                if offered is None:
                    root[u] = announced
                    parent[u] = sender
                    adopters.append(u)
                elif announced < offered:
                    root[u] = announced
                    parent[u] = sender

    def step(round_index: int) -> List[Tuple[int, Tuple[Tuple[str, int, int]]]]:
        adopters.sort()
        for u in adopters:
            dist[u] = round_index
        frontier = []
        if round_index < depth:
            frontier = [(u, ((FOREST_TAG, root[u], round_index),)) for u in adopters]
        adopters.clear()
        return frontier

    queues = [(s, ((FOREST_TAG, s, 0),)) for s in sources] if depth > 0 else []
    return simulator.run_broadcast_schedule(
        queues, deliver, label=label, nominal_rounds=depth, step=step
    )


def forest_membership(result: ForestResult) -> Dict[int, List[int]]:
    """Group spanned vertices by their forest root."""
    members: Dict[int, List[int]] = {}
    for v, root in enumerate(result.root):
        if root is not None:
            members.setdefault(root, []).append(v)
    for vertex_list in members.values():
        vertex_list.sort()
    return members
