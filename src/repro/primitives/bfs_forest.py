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
distance ``r - 1`` broadcast) and runs without per-vertex programs, in one
of two forms chosen by :mod:`repro.kernels`:

* per broadcast, one Python callback walking the sender's CSR row -- the
  pure-Python tier, and the form below
  :data:`~repro.kernels.AUTO_MIN_SCHEDULE_VERTICES`;
* as arrays (:meth:`~repro.congest.simulator.Simulator.run_frontier_arrays`),
  where each round's frontier is an array, each block of deliveries keeps
  the smallest ``(root, sender)`` offer per undecided receiver, and the
  ledger is charged once per forest.

Both give the same labels (as Python ``int`` or ``None``), ledger charge and
tracer events.  Under a :class:`~repro.congest.faults.FaultPlan` the
simulator runs the per-broadcast schedule on its round loop, whose delivery
applies the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..congest.errors import ProtocolFault, RoundLimitExceeded
from ..congest.faults import FaultPlan
from ..congest.simulator import ProtocolRun, Simulator
from ..kernels import AUTO_MIN_SCHEDULE_VERTICES, require_numpy, use_numpy
from .exploration import _first_arrivals

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
        The raw simulator statistics (its ``results`` are empty: the
        per-vertex labels are ``root`` / ``dist`` / ``parent``).
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
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1,
) -> ForestResult:
    """Grow a depth-bounded BFS forest rooted at ``sources``.

    The nominal round cost charged to the simulator's ledger is ``depth``
    (the scheduled exploration depth), matching how the paper accounts for
    this step.

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
        try:
            if plan is None and use_numpy(n, AUTO_MIN_SCHEDULE_VERTICES):
                root, dist, parent, run = _run_forest_arrays(simulator, starters, depth, label)
            else:
                root, dist, parent, run = _run_forest_schedule(
                    simulator, starters, depth, label, plan
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


#: What growing a forest returns: the ``root``, ``dist`` and ``parent`` lists
#: and the run.
Labels = Tuple[List[Optional[int]], List[Optional[int]], List[Optional[int]], ProtocolRun]


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
    plan: Optional[FaultPlan],
) -> Labels:
    """Grow the forest as a broadcast schedule under ``plan``.

    Returns the ``root`` / ``dist`` / ``parent`` lists and the run.  A
    vertex whose ``dist`` is still ``None`` is undecided: ``root`` /
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
    root, dist, parent = _fresh_labels(simulator.graph.num_vertices, sources)
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
    run = simulator.run_broadcast_schedule(
        queues, deliver, label=label, nominal_rounds=depth, step=step, fault_plan=plan
    )
    return root, dist, parent, run


def _run_forest_arrays(
    simulator: Simulator, sources: List[int], depth: int, label: str
) -> Labels:
    """Grow the fault-free forest on the array tier.

    The same protocol as :func:`_run_forest_schedule` without a plan, on
    :meth:`~repro.congest.simulator.Simulator.run_frontier_arrays`: round
    ``r``'s frontier is the vertices at distance ``r - 1``, so every offer of
    a round carries the same hop count and ranks by ``(root, sender)``.
    Each delivery block keeps, per undecided receiver, its smallest root
    and that root's first sender, and replaces the offer the receiver holds
    from an earlier block of the round only with a smaller root (earlier
    blocks hold smaller senders).  The step fixes the round's adopters as
    the next level.  The labels come back as lists of ``int`` or ``None``.
    """
    np = require_numpy()
    n = simulator.graph.num_vertices
    root = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    decided = np.zeros(n, dtype=bool)
    frontier = np.asarray(sources, dtype=np.int64)
    root[frontier] = frontier
    decided[frontier] = True
    adopters = []
    levels = []

    def deliver(payloads, receivers) -> None:
        undecided = ~decided[receivers]
        receivers = receivers[undecided]
        if not len(receivers):
            return
        senders = frontier[payloads[undecided]]
        offered = root[senders]
        # Sorted by (receiver, root), each pair's first sender.
        first = _first_arrivals(np, receivers * n + offered, n * n)
        receivers, offered, senders = receivers[first], offered[first], senders[first]
        best = np.empty(len(receivers), dtype=bool)
        best[:1] = True
        np.not_equal(receivers[1:], receivers[:-1], out=best[1:])
        receivers, offered, senders = receivers[best], offered[best], senders[best]
        held = root[receivers]
        better = (held < 0) | (offered < held)
        root[receivers[better]] = offered[better]
        parent[receivers[better]] = senders[better]
        adopters.append(receivers[held < 0])

    def step(round_index: int):
        nonlocal frontier
        level = np.sort(np.concatenate(adopters)) if adopters else frontier[:0]
        adopters.clear()
        decided[level] = True
        levels.append(level)
        frontier = level if round_index < depth else level[:0]
        return frontier

    run = simulator.run_frontier_arrays(
        frontier if depth > 0 else frontier[:0], 3, deliver, step,
        label=label, nominal_rounds=depth,
    )
    root_list, dist_list, parent_list = _fresh_labels(n, sources)
    for hops, level in enumerate(levels, 1):
        for v, r, p in zip(level.tolist(), root[level].tolist(), parent[level].tolist()):
            root_list[v] = r
            dist_list[v] = hops
            parent_list[v] = p
    return root_list, dist_list, parent_list, run
