"""Distributed (CONGEST-simulated) engine for the deterministic construction.

The engine runs the shared phase loop (:func:`repro.core.phases.run_phases`)
with every communication step of the algorithm -- Algorithm 1's bounded
exploration, the digit-by-digit ruling set, the supercluster BFS forest, the
forest-path mark-up and the interconnection trace-back -- as a genuine
message-passing protocol on :class:`repro.congest.Simulator`, with per-edge
bandwidth auditing.  The phase orchestration (which protocol runs next, with
which parameters) requires no communication: it is a fixed schedule computable
from ``n`` and the parameters, which every vertex knows.  Every step of a
phase ``i < ell`` runs, on empty sets when no cluster is popular, and charges
its schedule, so the ledger totals
:meth:`~repro.core.parameters.SpannerParameters.round_bound` exactly.

**Substitution 1.** Cluster membership bookkeeping (which vertices belong to
which supercluster) is carried by the loop in a flat-array
:class:`~repro.core.cluster_table.ClusterTable`: the algorithm itself never
needs a non-center vertex to know its cluster -- only centers act in every
step, and every protocol message carries compact cluster (center) ids, never
vertex sets -- so maintaining the membership table centrally does not hide
any communication.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..congest.simulator import Simulator
from ..graphs.graph import Graph
from ..primitives.bfs_forest import run_bfs_forest
from ..primitives.exploration import run_bounded_exploration
from ..primitives.ruling_set import run_ruling_set
from ..primitives.traceback import run_forest_path_markup, run_traceback
from .interconnection import interconnection_requests
from .parameters import SpannerParameters
from .phases import PhaseSteps, run_phases
from .result import RunResult
from .superclustering import spanned_center_roots


class DistributedSteps(PhaseSteps):
    """The phase steps as CONGEST protocols; rounds come from the ledger."""

    engine = "distributed"

    def __init__(self, graph: Graph, parameters: SpannerParameters, simulator: Simulator) -> None:
        super().__init__(graph, parameters)
        self.simulator = simulator
        self.ledger = simulator.ledger

    def rounds(self) -> Tuple[int, int]:
        return self.ledger.nominal_rounds, self.ledger.simulated_rounds

    def explore(self, i: int, centers: List[int], delta: int, degree: int):
        return run_bounded_exploration(
            self.simulator, centers, depth=delta, cap=degree, label=f"phase{i}:explore"
        )

    def supercluster(self, i: int, centers: List[int], popular: Set[int]):
        # Runs on an empty W_i too: every protocol then charges its idle
        # schedule.
        simulator = self.simulator
        ruling_set = run_ruling_set(
            simulator,
            popular,
            q=self.parameters.ruling_set_q(i),
            c=self.parameters.domination_multiplier,
            label=f"phase{i}:ruling-set",
        ).ruling_set
        forest = run_bfs_forest(
            simulator,
            ruling_set,
            depth=self.parameters.superclustering_depth(i),
            label=f"phase{i}:forest",
        )
        center_root = spanned_center_roots(centers, forest.root)
        markup = run_forest_path_markup(
            simulator, forest, sorted(center_root), label=f"phase{i}:markup"
        )
        return ruling_set, center_root, markup.edges

    def interconnect(self, i: int, exploration, unclustered_centers: List[int]):
        requests = interconnection_requests(unclustered_centers, exploration)
        # The trace-back is charged the exploration's deg_i * delta_i rounds.
        traceback = run_traceback(
            self.simulator, exploration, requests, label=f"phase{i}:interconnect"
        )
        return requests, traceback.edges


def build_spanner_distributed(
    graph: Graph,
    parameters: SpannerParameters,
    simulator: Optional[Simulator] = None,
) -> RunResult:
    """Run the full deterministic construction on the CONGEST simulator.

    A pre-configured :class:`Simulator` may be supplied (e.g. with a tracer or
    relaxed congestion checking); by default a strict simulator with the
    standard O(1)-word bandwidth is created.  A supplied simulator must not
    have run anything yet: the run's rounds are read off its ledger.
    """
    if simulator is None:
        simulator = Simulator(graph, strict_congestion=True)
    elif simulator.graph is not graph:
        raise ValueError("the simulator must be built over the same graph")
    elif simulator.ledger.charges:
        raise ValueError("the simulator has already run protocols; supply a fresh one")
    return run_phases(graph, parameters, DistributedSteps(graph, parameters, simulator))
