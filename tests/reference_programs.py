"""Reference programs and centralized oracles for the CONGEST primitives.

Algorithm 1's exploration phases and the depth-bounded BFS forest run as
broadcast schedules on the simulator (``Simulator.run_broadcast_schedule``,
or its array forms on the vectorized tier), with or without a fault plan.
This module keeps their node-program forms -- each vertex as a
:class:`~repro.congest.node.NodeProgram` on ``Simulator.run_protocol`` -- as
oracles: the equivalence tests check that the schedules reproduce them
exactly, fault-free and under every fault plan of :func:`faulted_cases`.  The
drivers also restate how a faulted run derives its per-phase plans, so the
production helpers are checked against an independent copy.

It also holds the exhaustive-knowledge centralized forms of Algorithm 1 and
of the two trace-backs, which the flat exploration of the centralized engine
and the distributed protocols are checked against, the tree flood and
convergecast that the fault tests use as protocol subjects, and a builder
for hand-made cluster snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.congest import FaultPlan, LinkOutage, Message, NodeContext, NodeProgram
from repro.congest.errors import ProtocolFault, RoundLimitExceeded
from repro.congest.faults import fault_round_limit, fresh_fault_counters
from repro.core.cluster_table import ClusterTable, FlatClusters
from repro.experiments.chaos import FAULT_PROFILES
from repro.graphs import grid_graph, make_workload
from repro.graphs.graph import normalize_edge
from repro.primitives.bfs_forest import FOREST_TAG, ForestResult, run_bfs_forest
from repro.primitives.exploration import EXPLORE_TAG, ExplorationResult


def faulted_cases():
    """``(graph, plan_name, plan)`` triples covering every fault class.

    The chaos palette, a link-outage plan on the first source's edges, an
    explicit crash killing a starter at round 0, and a delay plan long
    enough to leave rounds in which only delayed messages are in flight.
    """
    graphs = [make_workload("sparse_gnp", 36, seed=7), grid_graph(5, 6)]
    for graph in graphs:
        row = sorted(graph.neighbors(0))
        plans = [
            (name, FaultPlan(seed=31, **overrides))
            for name, overrides in FAULT_PROFILES.items()
            if name != "none"
        ]
        outages = [LinkOutage(0, nb, 0, 3) for nb in row]
        plans.append(("link-outages", FaultPlan(seed=31, link_outages=outages)))
        plans.append(("starter-crash", FaultPlan(seed=31, crashes={0: 0, row[0]: 2})))
        plans.append(("long-delays", FaultPlan(seed=31, delay_rate=0.5, max_delay=5)))
        for name, plan in plans:
            yield graph, name, plan


# ----------------------------------------------------------------------
# Algorithm 1 (bounded exploration)
# ----------------------------------------------------------------------
class ExplorationPhaseProgram(NodeProgram):
    """One phase of Algorithm 1 as a node program.

    The program flushes its phase buffer at one broadcast per round and
    records the first arrival of every center.
    """

    __slots__ = ("node_id", "outbuf", "_next_send", "known_dist", "known_via", "newly_learned", "learners")

    def __init__(
        self,
        node_id: int,
        known_dist: Dict[int, int],
        known_via: Dict[int, Optional[int]],
        newly_learned: List[int],
        learners: List[int],
    ) -> None:
        self.node_id = node_id
        # Payloads to broadcast this phase, installed by the driver.
        self.outbuf: Sequence[Tuple[str, int, int]] = ()
        self._next_send = 0
        self.known_dist = known_dist
        self.known_via = known_via
        self.newly_learned = newly_learned
        # Shared registry: a program appends its id on the phase's first
        # learning event, so the driver visits only the touched vertices.
        self.learners = learners

    def on_start(self, ctx: NodeContext) -> None:
        self._send_next(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        # The first arrival of a center wins, in inbox order.
        known_dist = self.known_dist
        for sender, content, _ in inbox:
            _, center, distance = content
            if center not in known_dist:
                known_dist[center] = distance + 1
                self.known_via[center] = sender
                if not self.newly_learned:
                    self.learners.append(self.node_id)
                self.newly_learned.append(center)
        self._send_next(ctx)

    def _send_next(self, ctx: NodeContext) -> None:
        i = self._next_send
        if i < len(self.outbuf):
            self._next_send = i + 1
            ctx.broadcast_flat(*self.outbuf[i])

    def is_idle(self) -> bool:
        return self._next_send >= len(self.outbuf)

    def result(self):
        return None


def _window_plan(
    plan: FaultPlan, phase: int, crash_at: Dict[int, int], start: int
) -> FaultPlan:
    """``plan.derive(phase)`` with the global crash schedule and link outages
    seen from the window opening at global round ``start``."""
    outages = [
        LinkOutage(o.u, o.v, max(0, o.start - start), o.end - start)
        for o in plan.link_outages
        if o.end >= start
    ]
    return replace(
        plan.derive(phase),
        crash_fraction=0.0,
        crashes=tuple(sorted((v, max(0, r - start)) for v, r in crash_at.items())),
        link_outages=tuple(outages),
    )


def explore_with_programs(
    simulator,
    centers,
    depth: int,
    cap: int,
    label: str = "exploration",
    plan: Optional[FaultPlan] = None,
    attempt_number: int = 1,
) -> ExplorationResult:
    """One execution of Algorithm 1 as per-node programs, from fresh state.

    Each phase is one ``run_protocol`` call.  Under an active ``plan`` phase
    ``j`` runs under ``plan.derive(j)`` with the plan's global crash schedule
    and link outages projected onto the phase's window of the nominal
    schedule, within ``fault_round_limit`` rounds; the counters are summed over the phases,
    ``crashed_nodes`` counted once.
    """
    n = simulator.graph.num_vertices
    center_list = sorted(set(centers))
    known_dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    known_via: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    for center in center_list:
        known_dist[center][center] = 0
        known_via[center][center] = None
    newly: List[List[int]] = [[] for _ in range(n)]
    learners: List[int] = []
    programs = [
        ExplorationPhaseProgram(v, known_dist[v], known_via[v], newly[v], learners)
        for v in range(n)
    ]
    if plan is not None and not plan.active:
        plan = None
    crash_at = plan.crash_schedule(n) if plan is not None else {}
    fault_totals = None
    if plan is not None:
        fault_totals = fresh_fault_counters()
        fault_totals["crashed_nodes"] = len(crash_at)

    queues = [(center, [(EXPLORE_TAG, center, 0)]) for center in center_list]
    charged_rounds = simulated_rounds = messages = 0
    for phase in range(1, depth + 1):
        if not queues:
            break
        phase_nominal = cap if phase > 1 else cap + 1
        for sender, payloads in queues:
            programs[sender].outbuf = payloads
            programs[sender]._next_send = 0
        phase_plan = None
        if plan is not None:
            phase_plan = _window_plan(plan, phase, crash_at, charged_rounds)
        run = simulator.run_protocol(
            programs,
            label=f"{label}:phase{phase}",
            nominal_rounds=phase_nominal,
            collect_results=False,
            fault_plan=phase_plan,
            max_rounds=fault_round_limit(phase_nominal, phase_plan),
        )
        for sender, _ in queues:
            programs[sender].outbuf = ()
        if fault_totals is not None and run.fault_counters is not None:
            for key, value in run.fault_counters.items():
                if key != "crashed_nodes":
                    fault_totals[key] += value
        charged_rounds += phase_nominal
        simulated_rounds += run.rounds_executed
        messages += run.messages_delivered
        # Every learner forwards its ``cap`` smallest new centers.
        queues = []
        for v in sorted(learners):
            fresh_centers = sorted(newly[v])
            queues.append(
                (v, [(EXPLORE_TAG, c, known_dist[v][c]) for c in fresh_centers[:cap]])
            )
            newly[v].clear()
        learners.clear()

    nominal_rounds = 1 + cap * depth
    idle_rounds = max(0, nominal_rounds - charged_rounds)
    if idle_rounds:
        simulator.ledger.charge(label=f"{label}:idle-schedule", nominal_rounds=idle_rounds)
    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        popular={c for c in center_list if len(known_dist[c]) - 1 >= cap},
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=nominal_rounds,
        simulated_rounds=simulated_rounds,
        messages=messages,
        fault_counters=fault_totals,
        attempts=attempt_number,
    )


# ----------------------------------------------------------------------
# Depth-bounded BFS forest
# ----------------------------------------------------------------------
class ForestProgram(NodeProgram):
    """Per-vertex program implementing the depth-bounded BFS forest.

    Adopted labels are written through to the driver's shared ``root`` /
    ``dist`` / ``parent`` lists as they happen.
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
        # then smallest parent.
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
        shared = self._shared
        shared[0][self.node_id] = self.root
        shared[1][self.node_id] = self.dist
        shared[2][self.node_id] = self.parent
        if self.dist < self.depth:
            ctx.broadcast_flat(FOREST_TAG, self.root, self.dist)

    def is_idle(self) -> bool:
        return True

    def result(self):
        return (self.root, self.dist, self.parent)


def forest_with_programs(
    simulator,
    sources,
    depth: int,
    label: str = "bfs-forest",
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1,
) -> ForestResult:
    """The BFS forest as per-node programs, with ``run_bfs_forest``'s contract.

    Unlike ``run_bfs_forest``, its run also carries every program's
    ``(root, dist, parent)`` as the per-node results.  Fault-free it passes the wall-clock hints the program form always used;
    under an active plan each attempt gets ``fault_round_limit`` rounds and
    the retries run under ``fault_plan.retry(k)``.
    """
    n = simulator.graph.num_vertices
    source_set = set(sources)
    active = fault_plan is not None and fault_plan.active
    plans = [fault_plan.retry(k) for k in range(max(1, max_attempts))] if active else [None]
    for attempt, plan in enumerate(plans):
        root: List[Optional[int]] = [None] * n
        dist: List[Optional[int]] = [None] * n
        parent: List[Optional[int]] = [None] * n
        programs = [ForestProgram(v, v in source_set, depth, (root, dist, parent)) for v in range(n)]
        hints = {} if plan is not None else {
            "message_driven": True, "starters": sorted(source_set)
        }
        try:
            run = simulator.run_protocol(
                programs,
                label=label,
                nominal_rounds=depth,
                collect_results=True,
                fault_plan=plan,
                max_rounds=fault_round_limit(depth, plan),
                **hints,
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


# ----------------------------------------------------------------------
# Centralized oracles: exhaustive Algorithm 1 and the trace-backs
# ----------------------------------------------------------------------
def centralized_bounded_exploration(graph, centers, depth: int, cap: int) -> ExplorationResult:
    """Algorithm 1 with exact, untruncated knowledge.

    Every vertex knows every center within ``depth`` of it, at its exact
    distance, with the sorted-neighbour BFS parent toward that center as its
    via-pointer; a center is popular iff it has at least ``cap`` other
    centers within ``depth`` (Theorem 2.1).
    """
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    known_dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    known_via: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    rows = graph.csr().rows()
    for center in center_list:
        known_dist[center][center] = 0
        known_via[center][center] = None
        seen = {center}
        frontier = [center]
        d = 0
        while frontier and d < depth:
            d += 1
            next_frontier: List[int] = []
            for u in frontier:
                for v in rows[u]:
                    if v not in seen:
                        seen.add(v)
                        known_dist[v][center] = d
                        known_via[v][center] = u
                        next_frontier.append(v)
            frontier = next_frontier
    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        popular={c for c in center_list if len(known_dist[c]) - 1 >= cap},
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=1 + cap * depth,
    )


def centralized_traceback(
    exploration: ExplorationResult, requests: Dict[int, Iterable[int]]
) -> Set[Tuple[int, int]]:
    """The edges of every requested ``initiator -> target`` via-chain."""
    edges: Set[Tuple[int, int]] = set()
    for initiator, targets in requests.items():
        for target in targets:
            if target == initiator or exploration.distance_to(initiator, target) is None:
                continue
            path = exploration.trace_path(initiator, target)
            for a, b in zip(path, path[1:]):
                edges.add(normalize_edge(a, b))
    return edges


def centralized_forest_markup(
    forest: ForestResult, targets: Iterable[int]
) -> Set[Tuple[int, int]]:
    """The edges of the forest paths from every target up to its root."""
    edges: Set[Tuple[int, int]] = set()
    for target in targets:
        path = forest.tree_path_to_root(target)
        for a, b in zip(path, path[1:]):
            edges.add(normalize_edge(a, b))
    return edges


# ----------------------------------------------------------------------
# Tree flood and convergecast (protocol subjects for the fault tests)
# ----------------------------------------------------------------------
BROADCAST_TAG = "bcast"
CONVERGE_TAG = "converge"


@dataclass
class BroadcastResult:
    """Which vertices a flood reached."""

    value: Any
    received: List[bool]
    rounds: int


class FloodProgram(NodeProgram):
    """Forward the value once, on first receipt."""

    def __init__(self, is_source: bool, value: Any) -> None:
        self.value = value if is_source else None
        self.received = is_source
        self._sent = False

    def on_start(self, ctx: NodeContext) -> None:
        self._maybe_send(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        if self.received:
            return
        for message in inbox:
            if message.content[0] == BROADCAST_TAG:
                self.value = message.content[1]
                self.received = True
                break
        self._maybe_send(ctx)

    def _maybe_send(self, ctx: NodeContext) -> None:
        if self.received and not self._sent:
            ctx.broadcast(BROADCAST_TAG, self.value)
            self._sent = True

    def result(self):
        return (self.received, self.value)


def run_broadcast(simulator, source: int, value: Any, label: str = "broadcast") -> BroadcastResult:
    """Flood ``value`` from ``source`` to every reachable vertex."""
    n = simulator.graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    programs = [FloodProgram(v == source, value) for v in range(n)]
    # Only the source starts, and no flood program is spontaneously awake.
    run = simulator.run_protocol(programs, label=label, starters=(source,), message_driven=True)
    return BroadcastResult(value, [r[0] for r in run.results], run.rounds_executed)


@dataclass
class ConvergecastResult:
    """The value aggregated at the root."""

    root: int
    value: Any
    rounds: int


class ConvergecastProgram(NodeProgram):
    """Combine the children's values with the own one, then report upward."""

    def __init__(
        self,
        parent: Optional[int],
        num_children: int,
        local_value: Any,
        combine: Callable[[Any, Any], Any],
    ) -> None:
        self.parent = parent
        self.pending_children = num_children
        self.accumulated = local_value
        self.combine = combine
        self._reported = False

    def on_start(self, ctx: NodeContext) -> None:
        self._maybe_report(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        for message in inbox:
            if message.content[0] == CONVERGE_TAG:
                self.accumulated = self.combine(self.accumulated, message.content[1])
                self.pending_children -= 1
        self._maybe_report(ctx)

    def _maybe_report(self, ctx: NodeContext) -> None:
        if self._reported or self.pending_children > 0:
            return
        if self.parent is not None:
            ctx.send(self.parent, CONVERGE_TAG, self.accumulated)
        self._reported = True

    def is_idle(self) -> bool:
        return self._reported or self.pending_children > 0

    def result(self):
        return self.accumulated


def run_convergecast(
    simulator,
    root: int,
    local_values: List[Any],
    combine: Callable[[Any, Any], Any],
    tree: Optional[ForestResult] = None,
    label: str = "convergecast",
) -> ConvergecastResult:
    """Aggregate ``local_values`` toward ``root`` over a BFS tree.

    Without ``tree`` a BFS tree rooted at ``root`` is grown first.  Vertices
    outside the root's component do not take part.
    """
    n = simulator.graph.num_vertices
    if len(local_values) != n:
        raise ValueError("local_values must have one entry per vertex")
    if tree is None:
        tree = run_bfs_forest(simulator, [root], depth=n, label=f"{label}:tree")
    in_tree = [tree.root[v] == root for v in range(n)]
    children = [0] * n
    for v in range(n):
        if in_tree[v] and tree.parent[v] is not None:
            children[tree.parent[v]] += 1
    programs = [
        ConvergecastProgram(
            tree.parent[v] if in_tree[v] else None, children[v], local_values[v], combine
        )
        for v in range(n)
    ]
    leaves = [v for v in range(n) if in_tree[v] and not children[v]]
    # A node reports in the round that completes its children, so none is
    # ever observed non-idle; only the leaves start.
    run = simulator.run_protocol(programs, label=label, starters=leaves, message_driven=True)
    return ConvergecastResult(root, run.results[root], run.rounds_executed)


# ----------------------------------------------------------------------
# Hand-made cluster snapshots
# ----------------------------------------------------------------------
def flat_clusters(num_vertices: int, vertex_center: Dict[int, int]) -> FlatClusters:
    """The snapshot of the partition ``vertex -> center`` (every center maps
    to itself), built by one superclustering step over the singletons."""
    table = ClusterTable.singletons(num_vertices)
    table.supercluster(vertex_center)
    return table.snapshot()
