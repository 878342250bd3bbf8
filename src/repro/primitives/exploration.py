"""Bounded multi-source exploration -- the paper's Algorithm 1 (Appendix A).

``Procedure "Number of near neighbors"``: given a set of cluster centers
``S_i``, a distance threshold ``delta_i`` and a degree threshold ``deg_i``,
every vertex learns up to ``deg_i`` centers within distance ``delta_i`` of it
(together with the exact distance and the neighbour that delivered the
information), and every center that learned about at least ``deg_i`` *other*
centers declares itself *popular*.

The paper schedules the procedure as ``delta_i`` phases of ``deg_i`` rounds
each (plus the initial round 0): in phase ``j`` every vertex forwards the
messages it learned in phase ``j-1`` -- at most ``deg_i`` of them, one per
round, so the CONGEST bandwidth is respected.

Our implementation runs each phase as a sub-protocol on the simulator (the
per-round pacing inside a phase is faithfully one message per edge per round).
Fault-free, a phase is a fixed broadcast schedule: its senders and their
buffers are known when it starts, and receivers only record first arrivals.
It runs in one of two forms, chosen by :mod:`repro.kernels`:

* per broadcast (:meth:`~repro.congest.simulator.Simulator.run_broadcast_schedule`),
  one Python callback walking the sender's CSR row -- the pure-Python tier,
  and the form below :data:`~repro.kernels.AUTO_MIN_SCHEDULE_VERTICES`;
* as arrays (:meth:`~repro.congest.simulator.Simulator.run_broadcast_arrays`),
  where each block of deliveries drops the ``(receiver, center)`` pairs
  already known, is reduced to its first arrivals per pair with one sort,
  and marks them known at once.  What is known is a dense boolean table over
  (receiver, center index) while ``n * k`` fits
  :data:`~repro.kernels.DENSE_KNOWLEDGE_MAX_CELLS`, else sorted key arrays.
  The learns stay in arrays: each phase's learn log in delivery order, from
  which the sorted key, via and distance arrays are built on the first
  lookup.

The per-broadcast form writes the knowledge into per-vertex dicts.
:class:`ExplorationResult` answers the same accessors over either backing
(``popular``, :meth:`~ExplorationResult.known_centers`,
:meth:`~ExplorationResult.distance_to`, :meth:`~ExplorationResult.via`,
:meth:`~ExplorationResult.trace_path`), which is all the engine reads: the
interconnection requests and the trace-back.  The dict views
``known_dist``/``known_via``/``known`` are built from the array logs only
when something asks for them (tests, the degradation verifiers, notebooks),
so a fault-free array-tier build never creates a knowledge dict.  Both forms
give identical knowledge, dict insertion order included, and identical
ledger charges and tracer events.  Under a
:class:`~repro.congest.faults.FaultPlan` the per-broadcast form passes each
phase a phase-derived plan, and the simulator runs that phase on its
node-program round loop, whose delivery applies the plan.  Rounds in which
the network is already quiet are skipped by the simulator as a wall-clock
optimization, but the *nominal* cost charged to the ledger is the full
``1 + deg_i * delta_i`` rounds exactly as the paper counts it.

Guarantees verified by the test-suite (Theorem 2.1 / Lemma A.1):

1. the popular set is exactly the set of centers with at least ``deg_i``
   other centers within distance ``delta_i``;
2. every non-popular center knows *all* centers within ``delta_i`` of it,
   at their exact distances, with a trace-back pointer chain realizing a
   shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..congest.errors import ProtocolFault, RoundLimitExceeded
from ..congest.faults import FaultPlan, add_fault_counters, fresh_fault_counters, window_plan
from ..congest.simulator import ProtocolRun, Simulator
from ..kernels import (
    AUTO_MIN_SCHEDULE_VERTICES,
    AUTO_MIN_TRAVERSAL_VERTICES,
    DENSE_KNOWLEDGE_MAX_CELLS,
    require_csgraph,
    require_numpy,
    use_numpy,
)

EXPLORE_TAG = "explore"

# The array tier packs ``key * block + position`` into one int64 sort key
# below this bound and falls back to a stable argsort above it.
_PACKED_KEY_LIMIT = 1 << 63

# KnownCenter is a NamedTuple with no constructor logic, so the hot loops
# build entries through tuple.__new__ directly -- ~2x faster than going
# through the generated __new__, with an identical resulting object.
_new_entry = tuple.__new__


class KnownCenter(NamedTuple):
    """What a vertex knows about one center: its distance and the via-neighbour."""

    distance: int
    via: Optional[int]


class ExplorationResult:
    """Outcome of Algorithm 1.

    What every vertex knows -- for each center it learned, the recorded
    distance and the neighbour that delivered it (``None`` for the center
    itself) -- has one of two backings:

    * **dicts**: ``known_dist[v]`` maps center -> distance and
      ``known_via[v]`` maps center -> via-neighbour.  The per-broadcast
      Python tier (with or without a fault plan) and
      :func:`centralized_bounded_exploration` write these directly.
    * **arrays** (:class:`_KnowledgeArrays`): the array tier keeps each
      phase's learn log in delivery order, sorts the ``receiver * n +
      center`` keys with parallel via and distance arrays on the first
      lookup, and writes no per-vertex dict.

    The accessors :meth:`known_centers`, :meth:`distance_to`, :meth:`via`
    and :meth:`trace_path` and the ``popular`` set answer the same over
    either backing; the engine's readers (the interconnection requests and
    the trace-back) use only those.  ``known_dist``, ``known_via``
    and the combined :class:`KnownCenter` view ``known`` are lazy on the
    array backing: the first read replays the learn logs into dicts whose
    contents and insertion order are exactly what the Python tier writes,
    and the result switches to the dict backing from then on, so the
    accessors see any later change to the dicts on both backings.  Tests,
    :mod:`repro.analysis.degradation` and notebooks read the dicts; a
    fault-free build never does.

    Attributes
    ----------
    popular:
        The set ``W_i`` of popular centers.
    centers:
        The input center set ``S_i`` (sorted).
    depth / cap:
        The parameters ``delta_i`` and ``deg_i``.
    nominal_rounds:
        ``1 + cap * depth`` -- the scheduled number of rounds.
    """

    __slots__ = (
        "popular",
        "centers",
        "depth",
        "cap",
        "nominal_rounds",
        "simulated_rounds",
        "messages",
        "fault_counters",
        "attempts",
        "_known_dist",
        "_known_via",
        "_arrays",
        "_known",
    )

    def __init__(
        self,
        known_dist: Optional[List[Dict[int, int]]],
        known_via: Optional[List[Dict[int, Optional[int]]]],
        popular: Set[int],
        centers: List[int],
        depth: int,
        cap: int,
        nominal_rounds: int,
        simulated_rounds: int = 0,
        messages: int = 0,
        fault_counters: Optional[Dict[str, int]] = None,
        attempts: int = 1,
        arrays: Optional[_KnowledgeArrays] = None,
    ) -> None:
        self._known_dist = known_dist
        self._known_via = known_via
        self._arrays = arrays
        self.popular = popular
        self.centers = centers
        self.depth = depth
        self.cap = cap
        self.nominal_rounds = nominal_rounds
        self.simulated_rounds = simulated_rounds
        self.messages = messages
        self.fault_counters = fault_counters
        self.attempts = attempts
        self._known: Optional[List[Dict[int, KnownCenter]]] = None

    def _materialize(self) -> None:
        """Replace the array backing by the dicts its learn logs replay to."""
        self._known_dist, self._known_via = self._arrays.dicts(self.centers)
        self._arrays = None

    @property
    def known_dist(self) -> List[Dict[int, int]]:
        """``known_dist[v]``: center -> recorded distance (lazy on the array backing)."""
        if self._arrays is not None:
            self._materialize()
        return self._known_dist

    @property
    def known_via(self) -> List[Dict[int, Optional[int]]]:
        """``known_via[v]``: center -> via-neighbour (lazy on the array backing)."""
        if self._arrays is not None:
            self._materialize()
        return self._known_via

    @property
    def known(self) -> List[Dict[int, KnownCenter]]:
        """``known[v]``: center -> :class:`KnownCenter` (lazy combined view)."""
        if self._known is None:
            known_via = self.known_via
            self._known = [
                {
                    center: _new_entry(KnownCenter, (distance, via_v[center]))
                    for center, distance in dist_v.items()
                }
                for dist_v, via_v in zip(self.known_dist, known_via)
            ]
        return self._known

    def known_centers(self, v: int) -> List[int]:
        """Centers known to ``v``, sorted."""
        if self._arrays is not None:
            return self._arrays.centers_of(v)
        return sorted(self._known_dist[v])

    def distance_to(self, v: int, center: int) -> Optional[int]:
        """Recorded distance from ``v`` to ``center`` (``None`` if unknown)."""
        if self._arrays is not None:
            return self._arrays.distance(v, center)
        return self._known_dist[v].get(center)

    def via(self, v: int, center: int) -> Optional[int]:
        """The neighbour that told ``v`` about ``center``.

        ``None`` when ``v`` does not know ``center`` or is ``center``.
        """
        if self._arrays is not None:
            return self._arrays.via(v, center)
        return self._known_via[v].get(center)

    def trace_path(self, v: int, center: int) -> List[int]:
        """Follow via-pointers from ``v`` to ``center``; returns the vertex path.

        The chain of a sound result is exactly as long as the recorded
        distance, so a longer (or cyclic) one raises instead of looping.
        """
        distance = self.distance_to(v, center)
        if distance is None:
            raise ValueError(f"vertex {v} does not know center {center}")
        path = [v]
        current = v
        while current != center:
            via = self.via(current, center)
            if via is None or len(path) > distance:
                raise ValueError(
                    f"broken via chain while tracing from {v} to {center} at {current}"
                )
            current = via
            path.append(current)
        return path


class _KnowledgeArrays:
    """Algorithm 1's knowledge as the array tier leaves it.

    ``logs`` holds one ``(keys, vias)`` pair of arrays per phase: the
    ``receiver * n + center`` keys learned in phase ``j`` (all at distance
    ``j``) and their via-neighbours, in delivery order.  Replaying them
    reproduces the Python tier's dicts, insertion order included.
    ``row_starts`` delimits each receiver's entries in key order, which is
    all ``popular`` reads.  The lookups read every key in ascending order
    (each receiver's centers one sorted row) with the parallel vias (``-1``
    for a center knowing itself) and distances; that table is sorted on the
    first lookup, so an exploration nobody queries never sorts it.
    """

    __slots__ = ("n", "centers", "logs", "row_starts", "_table")

    def __init__(self, n: int, centers, logs) -> None:
        """The knowledge of ``centers`` (each knowing itself) plus the phase ``logs``."""
        np = require_numpy()
        self.n = n
        self.centers = centers
        self.logs = logs
        sizes = np.bincount(centers, minlength=n)
        for keys, _ in logs:
            sizes += np.bincount(keys // n, minlength=n)
        self.row_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.row_starts[1:])
        self._table = None

    def table(self):
        """The sorted ``(keys, vias, dists)`` arrays of everything known."""
        if self._table is None:
            np = require_numpy()
            n, centers, logs = self.n, self.centers, self.logs
            keys = np.concatenate([centers * (n + 1)] + [keys for keys, _ in logs])
            vias = np.concatenate(
                [np.full(len(centers), -1, dtype=np.int64)] + [vias for _, vias in logs]
            )
            sizes = [len(centers)] + [len(keys) for keys, _ in logs]
            order = np.argsort(keys)
            dists = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            self._table = keys[order], vias[order], dists[order]
        return self._table

    def popular(self, centers: List[int], cap: int) -> Set[int]:
        """The ``centers`` that know at least ``cap`` other centers."""
        np = require_numpy()
        ids = np.asarray(centers, dtype=np.int64)
        sizes = self.row_starts[ids + 1] - self.row_starts[ids]
        return set(ids[sizes - 1 >= cap].tolist())

    def centers_of(self, v: int) -> List[int]:
        keys = self.table()[0]
        return (keys[self.row_starts[v]:self.row_starts[v + 1]] - v * self.n).tolist()

    def _find(self, v: int, center: int) -> int:
        """Index of ``(v, center)`` in the table, or -1 when ``v`` does not know it."""
        n = self.n
        if not (0 <= v < n and 0 <= center < n):
            return -1
        key = v * n + center
        keys = self.table()[0]
        i = int(keys.searchsorted(key))
        return i if i < len(keys) and keys[i] == key else -1

    def distance(self, v: int, center: int) -> Optional[int]:
        i = self._find(v, center)
        return int(self.table()[2][i]) if i >= 0 else None

    def via(self, v: int, center: int) -> Optional[int]:
        i = self._find(v, center)
        if i < 0:
            return None
        via = int(self.table()[1][i])
        return via if via >= 0 else None

    def dicts(
        self, centers: List[int]
    ) -> Tuple[List[Dict[int, int]], List[Dict[int, Optional[int]]]]:
        """The ``known_dist``/``known_via`` dicts, written in learn order."""
        n = self.n
        known_dist, known_via = _self_knowledge(n, centers)
        for distance, (keys, vias) in enumerate(self.logs, 1):
            for learner, center, via in zip(
                (keys // n).tolist(), (keys % n).tolist(), vias.tolist()
            ):
                known_dist[learner][center] = distance
                known_via[learner][center] = via
        return known_dist, known_via


def _self_knowledge(
    n: int, centers: List[int]
) -> Tuple[List[Dict[int, int]], List[Dict[int, Optional[int]]]]:
    """Fresh ``known_dist``/``known_via`` dicts in which each center knows itself."""
    known_dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    known_via: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    for center in centers:
        known_dist[center][center] = 0
        known_via[center][center] = None
    return known_dist, known_via


def _phase_deliverer(
    known_dist: List[Dict[int, int]],
    known_via: List[Dict[int, Optional[int]]],
    newly: List[List[int]],
    learners: List[int],
) -> Callable[[int, Tuple[str, int, int], Tuple[int, ...]], None]:
    """The receivers' side of a phase, for :meth:`Simulator.run_broadcast_schedule`.

    A receiver adopts ``(distance + 1, sender)`` for every center it does not
    know yet: the first arrival wins.  Within a phase receivers never
    forward (the phase buffers are fixed when it starts), so taking the
    broadcasts in (round, ascending sender) order gives every receiver the
    knowledge a node program reading its inboxes would record; under a fault
    plan the simulator makes exactly those reads, one call per received
    message in inbox order.  This carries most of the build's message
    volume, so a learn event is two int dict inserts and nothing else is
    allocated.
    """

    def deliver(sender: int, payload: Tuple[str, int, int], row: Tuple[int, ...]) -> None:
        _, center, distance = payload
        distance += 1
        for u in row:
            dist_u = known_dist[u]
            if center not in dist_u:
                dist_u[center] = distance
                known_via[u][center] = sender
                fresh = newly[u]
                if not fresh:
                    learners.append(u)
                fresh.append(center)

    return deliver


def run_bounded_exploration(
    simulator: Simulator,
    centers: Iterable[int],
    depth: int,
    cap: int,
    label: str = "exploration",
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1,
) -> ExplorationResult:
    """Run Algorithm 1 with center set ``centers``, depth ``delta`` and cap ``deg``.

    Returns an :class:`ExplorationResult` whose ``popular`` set is the paper's
    ``W_i`` and whose knowledge accessors drive both the interconnection step
    and its path trace-back.

    ``fault_plan`` runs the phases under an injected fault schedule (see
    :mod:`repro.congest.faults`): each phase gets a bounded round budget
    (:func:`~repro.congest.faults.fault_round_limit`) so a wedged phase
    terminates, and the whole primitive is retried up to ``max_attempts``
    times under derived plans.
    When every attempt times out a typed
    :class:`~repro.congest.errors.ProtocolFault` is raised.  Under faults the
    recorded (distance, via) entries still describe *real* walks in the graph
    (safety), but knowledge may be incomplete and recorded distances may
    exceed the true ones (see :mod:`repro.analysis.degradation`).
    """
    graph = simulator.graph
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 1:
        raise ValueError("cap (deg_i) must be >= 1")

    if fault_plan is None or not fault_plan.active:
        return _run_exploration_once(simulator, center_list, depth, cap, label, None, 1)
    attempts = max(1, max_attempts)
    for attempt in range(attempts):
        try:
            return _run_exploration_once(
                simulator, center_list, depth, cap, label,
                fault_plan.retry(attempt), attempt + 1,
            )
        except RoundLimitExceeded:
            if attempt == attempts - 1:
                raise ProtocolFault(label, "round-timeout", attempts=attempts)
    raise AssertionError("unreachable")


def _run_exploration_once(
    simulator: Simulator,
    center_list: List[int],
    depth: int,
    cap: int,
    label: str,
    plan: Optional[FaultPlan],
    attempt_number: int,
) -> ExplorationResult:
    """One execution of Algorithm 1 from fresh state.

    Every phase is a broadcast schedule on the simulator: the array form
    (:func:`_explore_arrays`) when there is no ``plan`` and the vectorized
    tier handles the graph, else the per-broadcast form
    (:func:`_explore_queues`), which also runs the phases under ``plan``.
    """
    n = simulator.graph.num_vertices
    known_dist: Optional[List[Dict[int, int]]] = None
    known_via: Optional[List[Dict[int, Optional[int]]]] = None
    arrays: Optional[_KnowledgeArrays] = None
    fault_totals: Optional[Dict[str, int]] = None
    if plan is None and use_numpy(n, AUTO_MIN_SCHEDULE_VERTICES):
        runs, arrays = _explore_arrays(simulator, center_list, depth, cap, label)
        popular = arrays.popular(center_list, cap)
    else:
        known_dist, known_via = _self_knowledge(n, center_list)
        if plan is not None:
            fault_totals = fresh_fault_counters()
        runs = _explore_queues(
            simulator, center_list, depth, cap, label, known_dist, known_via, plan, fault_totals
        )
        popular = {center for center in center_list if len(known_dist[center]) - 1 >= cap}
    charged_rounds = 0
    simulated_rounds = 0
    messages = 0
    for phase_nominal, run in runs:
        charged_rounds += phase_nominal
        simulated_rounds += run.rounds_executed
        messages += run.messages_delivered

    # The paper's schedule always occupies 1 + cap * depth rounds even when
    # the network goes quiet early; charge the idle remainder so the ledger
    # reflects the nominal cost of Algorithm 1.
    nominal_rounds = 1 + cap * depth
    idle_rounds = max(0, nominal_rounds - charged_rounds)
    if idle_rounds:
        simulator.ledger.charge(label=f"{label}:idle-schedule", nominal_rounds=idle_rounds)

    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        arrays=arrays,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=nominal_rounds,
        simulated_rounds=simulated_rounds,
        messages=messages,
        fault_counters=fault_totals,
        attempts=attempt_number,
    )


def _phase_nominal(phase: int, cap: int) -> int:
    """Scheduled rounds of ``phase``: phase 1 also owns the initial round 0."""
    return cap if phase > 1 else cap + 1


def _explore_queues(
    simulator: Simulator,
    center_list: List[int],
    depth: int,
    cap: int,
    label: str,
    known_dist: List[Dict[int, int]],
    known_via: List[Dict[int, Optional[int]]],
    plan: Optional[FaultPlan],
    fault_totals: Optional[Dict[str, int]],
) -> List[Tuple[int, ProtocolRun]]:
    """Run the phases from per-sender payload queues; ``(nominal, run)`` per phase.

    Each phase is one :meth:`Simulator.run_broadcast_schedule` with
    :func:`_phase_deliverer` as its ``deliver``.  Under ``plan`` phase
    ``j`` runs under :func:`~repro.congest.faults.window_plan` of the
    plan's crash schedule and the phase's window of the nominal schedule,
    and its counters are added into ``fault_totals``.
    """
    n = len(known_dist)
    newly: List[List[int]] = [[] for _ in range(n)]
    learners: List[int] = []
    # A phase's ``(sender, payloads)`` pairs in ascending sender order; the
    # centers open phase 1 by announcing themselves.
    queues: List[Tuple[int, List[Tuple[str, int, int]]]] = [
        (center, [(EXPLORE_TAG, center, 0)]) for center in center_list
    ]
    deliver = _phase_deliverer(known_dist, known_via, newly, learners)
    if plan is not None:
        crash_at = plan.crash_schedule(n)
        fault_totals["crashed_nodes"] = len(crash_at)

    runs: List[Tuple[int, ProtocolRun]] = []
    charged_rounds = 0
    for phase in range(1, depth + 1):
        if not queues:
            break
        phase_nominal = _phase_nominal(phase, cap)
        phase_plan = None
        if plan is not None:
            phase_plan = window_plan(plan, phase, crash_at, charged_rounds)
        run = simulator.run_broadcast_schedule(
            queues,
            deliver,
            label=f"{label}:phase{phase}",
            nominal_rounds=phase_nominal,
            fault_plan=phase_plan,
        )
        add_fault_counters(fault_totals, run.fault_counters)
        charged_rounds += phase_nominal
        runs.append((phase_nominal, run))
        # The next phase's buffers: every learner forwards up to ``cap`` of
        # the centers it learned (deterministically the smallest IDs; the
        # paper allows an arbitrary choice).  A center enters ``newly`` at
        # most once per phase (it is known from then on), so the lists are
        # duplicate-free.
        queues = []
        for v in sorted(learners):
            fresh_centers = newly[v]
            fresh_centers.sort()
            known_v = known_dist[v]
            queues.append(
                (v, [(EXPLORE_TAG, center, known_v[center]) for center in fresh_centers[:cap]])
            )
            fresh_centers.clear()
        learners.clear()
    return runs


def _explore_arrays(
    simulator: Simulator,
    center_list: List[int],
    depth: int,
    cap: int,
    label: str,
) -> Tuple[List[Tuple[int, ProtocolRun]], _KnowledgeArrays]:
    """Run the fault-free phases as blocked array reductions.

    Returns ``(nominal, run)`` per phase and the knowledge as
    :class:`_KnowledgeArrays`.  A phase is
    :meth:`Simulator.run_broadcast_arrays` over the payload arrays
    ``(sender, center, round)`` in (round, ascending sender) order.  Each
    delivery block is reduced to the first arrival of every ``(receiver,
    center)`` pair not known yet (delivery order breaking ties as the
    per-broadcast form does), the pairs are marked known at once (a later
    block's arrivals lose anyway), and the learns are appended to the
    phase's log in delivery order.  What is known lives in a
    :class:`_DenseSeen` table while ``n * k`` fits
    :data:`~repro.kernels.DENSE_KNOWLEDGE_MAX_CELLS`, else in
    :class:`_SortedSeen` keys.  Fault-free, every payload of phase ``j``
    carries distance ``j - 1``, so every learn of phase ``j`` is at distance
    ``j``.  The logs are the whole result: :class:`_KnowledgeArrays` sorts
    them into a lookup table only when something looks a pair up.
    """
    np = require_numpy()
    n = simulator.graph.num_vertices
    centers = np.asarray(center_list, dtype=np.int64)
    seen = _seen_table(np, n, centers)
    logs = []
    senders, sent_centers, rounds = centers, centers, np.zeros(len(centers), dtype=np.int64)
    runs: List[Tuple[int, ProtocolRun]] = []
    for phase in range(1, depth + 1):
        if not len(senders):
            break
        seen.start_phase(np, sent_centers)
        log_keys = [centers[:0]]
        log_vias = [centers[:0]]

        def deliver(payloads, receivers) -> None:
            first = seen.first_unseen(np, payloads, receivers)
            if len(first):
                first.sort()
                log_keys.append(receivers[first] * n + sent_centers[payloads[first]])
                log_vias.append(senders[payloads[first]])

        phase_nominal = _phase_nominal(phase, cap)
        run = simulator.run_broadcast_arrays(
            senders, rounds, 3, deliver,
            label=f"{label}:phase{phase}", nominal_rounds=phase_nominal,
        )
        runs.append((phase_nominal, run))
        logs.append((np.concatenate(log_keys), np.concatenate(log_vias)))
        learned = np.sort(logs[-1][0])
        seen.end_phase(np, learned)
        # The next phase's payloads, as in the per-broadcast form: every
        # learner forwards its ``cap`` smallest new centers, in ascending
        # center order from round 0, and the payloads go out in (round,
        # ascending sender) order.
        learners = learned // n
        heads = np.flatnonzero(np.diff(learners, prepend=-1))
        rank = np.arange(len(learned)) - np.repeat(heads, np.diff(heads, append=len(learned)))
        kept = rank < cap
        rank = rank[kept]
        # Stable on the narrowest type that holds ``cap``: NumPy radix-sorts
        # 8- and 16-bit keys.
        order = np.argsort(rank.astype(np.min_scalar_type(cap)), kind="stable")
        forwarded = learned[kept][order]
        senders, sent_centers, rounds = forwarded // n, forwarded % n, rank[order]
    return runs, _KnowledgeArrays(n, centers, logs)


def _seen_table(np, n: int, centers):
    """What each receiver knows, dense while ``n * k`` fits the cap."""
    if n * len(centers) <= DENSE_KNOWLEDGE_MAX_CELLS:
        return _DenseSeen(np, n, centers)
    return _SortedSeen(np, n, centers)


class _DenseSeen:
    """Known ``(receiver, center)`` pairs as a boolean table over center indices."""

    __slots__ = ("column_of", "width", "table", "columns")

    def __init__(self, np, n: int, centers) -> None:
        k = len(centers)
        self.column_of = np.zeros(n, dtype=np.int64)
        self.column_of[centers] = np.arange(k)
        self.width = k
        self.table = np.zeros(n * k, dtype=bool)
        self.table[centers * k + np.arange(k)] = True
        self.columns = None

    def start_phase(self, np, sent_centers) -> None:
        self.columns = self.column_of[sent_centers]

    def first_unseen(self, np, payloads, receivers):
        """Positions of the first arrival of every unknown pair, now marked known."""
        cells = receivers * self.width + self.columns[payloads]
        unseen = np.flatnonzero(~self.table[cells])
        cells = cells[unseen]
        first = _first_arrivals(np, cells, len(self.table))
        self.table[cells[first]] = True
        return unseen[first]

    def end_phase(self, np, learned) -> None:
        pass


class _SortedSeen:
    """Known ``receiver * n + center`` keys as sorted arrays (large ``k``).

    ``known`` holds the keys known before the current phase and ``learned``
    those learned in it so far; they merge at the end of the phase.
    """

    __slots__ = ("n", "known", "learned", "sent_centers")

    def __init__(self, np, n: int, centers) -> None:
        self.n = n
        self.known = centers * (n + 1)
        self.learned = self.sent_centers = centers[:0]

    def start_phase(self, np, sent_centers) -> None:
        self.sent_centers = sent_centers
        self.learned = sent_centers[:0]

    def first_unseen(self, np, payloads, receivers):
        """Positions of the first arrival of every unknown pair, now marked known."""
        keys = receivers * self.n + self.sent_centers[payloads]
        first = _first_arrivals(np, keys, self.n * self.n)
        fresh = keys[first]
        learned = self.learned
        slots = np.searchsorted(learned, fresh)
        new = ~(_contains(np, self.known, fresh) | _contains(np, learned, fresh, slots))
        self.learned = np.insert(learned, slots[new], fresh[new])
        return first[new]

    def end_phase(self, np, learned) -> None:
        known = self.known
        self.known = np.insert(known, np.searchsorted(known, learned), learned)


def _contains(np, sorted_keys, keys, slots=None):
    """Which ``keys`` occur in the sorted array ``sorted_keys``.

    ``slots`` may pass ``np.searchsorted(sorted_keys, keys)`` when the caller
    already has it.
    """
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    if slots is None:
        slots = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(slots, len(sorted_keys) - 1)] == keys


def _first_arrivals(np, keys, key_bound: int):
    """Positions of the first occurrence of every distinct key, in key order.

    One unstable sort of ``key * len(keys) + position`` puts each key's
    earliest position first in its group.  When that packed key could
    overflow int64 (``key_bound * len(keys) >= 2**63``) a stable argsort of
    the keys gives the same order.
    """
    count = len(keys)
    if key_bound * count < _PACKED_KEY_LIMIT:
        packed = np.sort(keys * count + np.arange(count))
        grouped = packed // count
        positions = packed - grouped * count
    else:
        positions = np.argsort(keys, kind="stable")
        grouped = keys[positions]
    heads = np.empty(count, dtype=bool)
    heads[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=heads[1:])
    return positions[heads]


@dataclass
class CenterExploration:
    """Flat-array exploration summary used by the centralized engine.

    Holds exactly what the engine consumes from Algorithm 1's exact
    (untruncated) knowledge, in flat-array form instead of per-vertex
    dictionaries of :class:`KnownCenter`:

    * ``near_centers[c]`` -- the sorted centers within ``depth`` of center
      ``c`` (excluding ``c``); drives popularity and the interconnection
      requests.
    * ``parents[c]`` -- the BFS-tree parent of every vertex *toward* ``c``
      (``-1`` for unreached vertices, ``c`` for the root itself), with the
      same sorted-neighbour tie-breaking as :func:`centralized_bounded_exploration`'s
      via-pointers; drives the shortest-path trace-back.  **Depth-1
      explorations carry no parent arrays at all**: every trace-back path is
      the single edge ``(initiator, target)``, which
      :func:`~repro.primitives.traceback.centralized_traceback_flat` emits
      directly -- skipping the dense arrays turns the phase-0 exploration
      (all ``n`` vertices are centers) from O(n^2) into O(n + m).

    The full per-vertex knowledge of :func:`centralized_bounded_exploration`
    is a strict superset of this; the engine only ever reads the parts kept
    here, so both produce identical spanners.
    """

    near_centers: Dict[int, Sequence[int]]
    # Dense per-center parent arrays: Python lists on the pure backend,
    # ``numpy.int32`` arrays from the compiled traversal (element-identical).
    parents: Dict[int, Sequence[int]]
    popular: Set[int]
    centers: List[int]
    depth: int
    cap: int
    nominal_rounds: int


def _depth_cut(order, parent, center: int, depth: int) -> int:
    """Length of the prefix of a breadth-first ``order`` within ``depth`` hops.

    ``order`` lists the levels back to back, so the prefix is all of it
    unless its last vertex lies more than ``depth`` hops out.  Otherwise the
    level boundaries follow from parent positions, which never decrease
    along a FIFO order: level ``d + 1`` starts at the first vertex whose
    parent lies at or past the start of level ``d``.
    """
    v, hops = int(order[-1]), 0
    while v != center and hops <= depth:
        v, hops = int(parent[v]), hops + 1
    if hops <= depth:
        return len(order)
    np = require_numpy()
    position = np.empty(len(parent), dtype=np.int64)
    position[order] = np.arange(len(order))
    parent_position = position[parent[order[1:]]]
    start = 1  # level 1 starts right after the root
    for _ in range(depth):
        start = 1 + int(np.searchsorted(parent_position, start))
    return start


def centralized_engine_exploration(
    graph,
    centers: Iterable[int],
    depth: int,
    cap: int,
) -> CenterExploration:
    """Exact per-center exploration in flat arrays (centralized engine hot path).

    Runs one depth-bounded breadth-first sweep per center over the CSR
    snapshot, recording only parent pointers (a dense array per center) and
    the centers encountered.  Visit order matches
    :func:`centralized_bounded_exploration` exactly, so the parent chains
    equal its via chains.

    The sweep has two backends, chosen by :mod:`repro.kernels` with the
    :data:`~repro.kernels.AUTO_MIN_TRAVERSAL_VERTICES` threshold: a CPython
    frontier loop over ``CSRGraph.rows()``, and SciPy's compiled
    ``breadth_first_order`` over ``CSRGraph.scipy_csr()``, cut back to
    ``depth`` afterwards.  Both give the same parents: the traversal is a
    FIFO queue scanning each sorted row in order, so every vertex's
    predecessor is the loop's first toucher.  Depth 1 takes neither (see
    :class:`CenterExploration`).
    """
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 1:
        raise ValueError("cap (deg_i) must be >= 1")

    near_centers: Dict[int, List[int]] = {}
    parents: Dict[int, List[int]] = {}
    all_centers = len(center_list) == n
    if depth == 1:
        rows = graph.csr().rows()
        # Phase-0 shape: every ball is just the neighbour row (already
        # sorted), so skip the frontier machinery entirely.  No parent arrays
        # either: a depth-1 trace-back is the direct edge to the target, so
        # materializing one dense array per center (O(n^2) when every vertex
        # is a center) would be pure overhead.
        if all_centers:
            for center in center_list:
                # Rows are sorted tuples; share them instead of copying (the
                # CenterExploration contract declares the lists read-only).
                near_centers[center] = rows[center]
        else:
            is_center = bytearray(n)
            for center in center_list:
                is_center[center] = 1
            for center in center_list:
                near_centers[center] = [v for v in rows[center] if is_center[v]]
    elif use_numpy(n, AUTO_MIN_TRAVERSAL_VERTICES):
        # The compiled traversal does not stop at ``depth``; the cut does.
        np = require_numpy()
        breadth_first_order = require_csgraph().breadth_first_order
        matrix = graph.csr().scipy_csr()
        centers_np = np.asarray(center_list, dtype=np.int64)
        for center in center_list:
            order, parent = breadth_first_order(
                matrix, center, directed=True, return_predecessors=True
            )
            # SciPy marks unreached vertices (and the root) with -9999.
            np.maximum(parent, -1, out=parent)
            parent[center] = center
            cut = _depth_cut(order, parent, center, depth)
            if cut < len(order):
                parent[order[cut:]] = -1
            reached = centers_np[parent[centers_np] >= 0]
            near_centers[center] = reached[reached != center].tolist()
            parents[center] = parent
    else:
        rows = graph.csr().rows()
        for center in center_list:
            # ``parent`` doubles as the visited marker: >= 0 means reached.
            # A dense list beats a ball-local dict here (measured ~1.6x on
            # depth-saturating balls): depth > 1 only happens past phase 0,
            # where the center count has already collapsed, so the O(n)
            # allocation per center is bounded.
            parent = [-1] * n
            parent[center] = center
            frontier = [center]
            d = 0
            while frontier and d < depth:
                d += 1
                next_frontier: List[int] = []
                push = next_frontier.append
                for u in frontier:
                    for v in rows[u]:
                        if parent[v] < 0:
                            parent[v] = u
                            push(v)
                frontier = next_frontier
            # Centers are few past phase 0: scanning the (sorted) center list
            # against the visited markers beats a per-visit membership test.
            near_centers[center] = [
                c for c in center_list if c != center and parent[c] >= 0
            ]
            parents[center] = parent

    popular = {center for center in center_list if len(near_centers[center]) >= cap}
    return CenterExploration(
        near_centers=near_centers,
        parents=parents,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=1 + cap * depth,
    )


def centralized_bounded_exploration(
    graph,
    centers: Iterable[int],
    depth: int,
    cap: int,
) -> ExplorationResult:
    """Centralized reference implementation of Algorithm 1.

    Produces the *exact* knowledge (no truncation at intermediate vertices):
    every vertex knows every center within ``depth`` of it, and popularity is
    decided against the true neighbourhood counts.  This matches the guarantee
    of Theorem 2.1 for the vertices the algorithm cares about (non-popular
    centers know everything; popular centers are exactly those with ``>= cap``
    near centers) and is what the centralized reference engine uses.

    Each center's sweep is a depth-bounded frontier walk over the CSR
    snapshot, so the work is proportional to the explored balls rather than
    ``|centers| * n``.  Visit order matches a sorted-neighbour BFS exactly,
    which keeps the recorded via-pointers (the BFS-tree parents pointing
    toward the center) bit-identical to the historical implementation.
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
        seen_add = seen.add
        frontier = [center]
        d = 0
        while frontier and d < depth:
            d += 1
            next_frontier: List[int] = []
            push = next_frontier.append
            for u in frontier:
                for v in rows[u]:
                    if v not in seen:
                        seen_add(v)
                        # ``u`` is the BFS-tree parent of ``v``, i.e. the
                        # direction a trace-back toward the center must walk.
                        known_dist[v][center] = d
                        known_via[v][center] = u
                        push(v)
            frontier = next_frontier
    popular = {
        center for center in center_list if len(known_dist[center]) - 1 >= cap
    }
    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=1 + cap * depth,
    )
