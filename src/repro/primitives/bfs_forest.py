"""Distributed multi-source BFS forest (depth-bounded).

This is the protocol the superclustering step uses to grow superclusters
around the ruling-set vertices (paper, Section 2.2): a BFS exploration rooted
at the set ``RS_i`` is executed to depth ``(2/rho) * delta_i``, producing a
forest ``F_i`` rooted at the vertices of ``RS_i``.  The ruling set's
knock-outs are the same protocol with depth ``q``.

Each vertex adopts the best announcement of the first round in which it hears
any (the fewest hops, ties broken by root ID, then by parent ID, which keeps
the construction deterministic) and forwards it once, so at most one message
crosses any edge in any round -- well within the CONGEST bandwidth.

The forest runs as a broadcast schedule
(:meth:`~repro.congest.simulator.Simulator.run_broadcast_schedule`) whose
end-of-round step hands the round's adopters back as the next frontier.
Fault-free it is level-synchronous (in round ``r`` exactly the vertices at
distance ``r - 1`` broadcast) and runs without per-vertex programs; under a
:class:`~repro.congest.faults.FaultPlan` the simulator runs the same
schedule on its round loop, whose delivery applies the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..congest.errors import ProtocolFault, RoundLimitExceeded
from ..congest.faults import FaultPlan
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

    ``collect_node_results=True`` also fills ``ForestResult.run.results``
    with each vertex's ``(root, dist, parent)``; callers that only consume
    the ``root``/``dist``/``parent`` lists pass ``False`` (the results are
    then empty).

    ``fault_plan`` runs the protocol under an injected fault schedule with a
    bounded round budget (:func:`~repro.congest.faults.fault_round_limit`);
    the construction is retried up to ``max_attempts`` times under derived
    plans, and a typed :class:`~repro.congest.errors.ProtocolFault` is
    raised when every attempt exceeds its budget.  Under faults every
    recorded parent is still a real edge and ``dist`` the real hop count of
    a real path (safety), but a vertex's tree path may be longer than its
    true distance and coverage may be incomplete.
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
    active = fault_plan is not None and fault_plan.active
    plans = [fault_plan.retry(k) for k in range(max(1, max_attempts))] if active else [None]
    for attempt, plan in enumerate(plans):
        root, dist, parent = _fresh_labels(n, starters)
        try:
            run = _run_forest_schedule(simulator, starters, depth, label, root, dist, parent, plan)
        except RoundLimitExceeded:
            if attempt == len(plans) - 1:
                raise ProtocolFault(label, "round-timeout", attempts=len(plans))
            continue
        if collect_node_results:
            run.results = list(zip(root, dist, parent))
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
    plan: Optional[FaultPlan],
) -> ProtocolRun:
    """Grow the forest as a broadcast schedule under ``plan``, labelling in place.

    A vertex whose ``dist`` is still ``None`` is undecided: ``root`` /
    ``parent`` hold its best offer of the round so far.  Offers rank by
    ``(hops, root, sender)``; every sender announces its own recorded
    ``dist``, so an offer's hop count is its sender's ``dist`` plus one.
    The end-of-round step fixes ``dist`` for the round's adopters and
    returns those below ``depth`` as the next frontier.  Fault-free, every
    offer of a round carries the same hop count and arrives in ascending
    sender order, so a receiver keeps the first sender of the smallest root
    it sees; under a plan a late offer can carry fewer hops than an on-time
    one, and inboxes are not in sender order, so the full ranking decides.
    """
    adopters: List[int] = []

    def deliver(sender: int, payload: Tuple[str, int, int], row: Tuple[int, ...]) -> None:
        _, announced, sent = payload
        for u in row:
            if dist[u] is None:
                offered = root[u]
                if offered is None:
                    adopters.append(u)
                else:
                    # Keep the held offer unless ``(sent, announced, sender)``
                    # ranks below it (spelled out: this is the hot path).
                    held = dist[parent[u]]
                    if sent == held:
                        if announced > offered or (announced == offered and sender > parent[u]):
                            continue
                    elif sent > held:
                        continue
                root[u] = announced
                parent[u] = sender

    def step(round_index: int) -> List[Tuple[int, Tuple[Tuple[str, int, int]]]]:
        adopters.sort()
        frontier = []
        for u in adopters:
            dist[u] = reached = dist[parent[u]] + 1
            if reached < depth:
                frontier.append((u, ((FOREST_TAG, root[u], reached),)))
        adopters.clear()
        return frontier

    queues = [(s, ((FOREST_TAG, s, 0),)) for s in sources] if depth > 0 else []
    return simulator.run_broadcast_schedule(
        queues, deliver, label=label, nominal_rounds=depth, step=step, fault_plan=plan
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
