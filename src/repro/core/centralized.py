"""Centralized reference engine for the deterministic spanner construction.

This engine runs the same phase loop (:func:`repro.core.phases.run_phases`)
as the distributed engine (:mod:`repro.core.distributed`) -- the same
popular-cluster detection, the same digit-by-digit ruling set, the same
deterministic BFS forest and the same interconnection rule -- but each step
uses global knowledge instead of message passing.  It is therefore fast
enough to run on graphs with thousands of vertices and is used for
cross-validating the distributed engine, for property-based testing and for
the larger benchmark sweeps.

The nominal CONGEST rounds of each step are computed from the same formulas
the distributed engine charges to its ledger, idle steps included, so both
engines report identical per-phase round figures.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..graphs.graph import Graph
from ..primitives.exploration import centralized_engine_exploration
from ..primitives.ruling_set import centralized_ruling_set
from ..primitives.traceback import centralized_traceback_flat
from .interconnection import interconnection_requests_from_near
from .parameters import SpannerParameters
from .phases import Edges, PhaseSteps, run_phases
from .result import RunResult
from .superclustering import (
    deterministic_forest,
    forest_path_edges,
    spanned_center_roots,
)


class CentralizedSteps(PhaseSteps):
    """The phase steps with global knowledge; rounds follow the CONGEST formulas."""

    engine = "centralized"

    def __init__(self, graph: Graph, parameters: SpannerParameters) -> None:
        super().__init__(graph, parameters)
        self.nominal_rounds = 0

    def rounds(self) -> Tuple[int, int]:
        return self.nominal_rounds, 0

    def explore(self, i: int, centers: List[int], delta: int, degree: int):
        exploration = centralized_engine_exploration(self.graph, centers, delta, degree)
        self.nominal_rounds += exploration.nominal_rounds
        return exploration

    def supercluster(self, i: int, centers: List[int], popular: Set[int]):
        # Runs on an empty W_i too, so the schedule charges every phase alike.
        ruling_set = centralized_ruling_set(
            self.graph, popular,
            q=self.parameters.ruling_set_q(i), c=self.parameters.domination_multiplier,
        )
        depth = self.parameters.superclustering_depth(i)
        # The ruling set, then the forest growth and its path mark-up.
        self.nominal_rounds += ruling_set.nominal_rounds + 2 * depth
        return self.grow_forest(centers, ruling_set.ruling_set, depth)

    def grow_forest(
        self, centers: List[int], ruling_set: Set[int], depth: int
    ) -> Tuple[Set[int], Dict[int, int], Edges]:
        """The forest of depth ``depth`` around ``ruling_set`` and the centers it spans."""
        root, _dist, parent = deterministic_forest(self.graph, ruling_set, depth)
        center_root = spanned_center_roots(centers, root)
        return ruling_set, center_root, forest_path_edges(parent, sorted(center_root))

    def interconnect(self, i: int, exploration, unclustered_centers: List[int]):
        requests = interconnection_requests_from_near(
            unclustered_centers, exploration.near_centers
        )
        self.nominal_rounds += exploration.cap * exploration.depth
        return requests, centralized_traceback_flat(exploration, requests)


def build_spanner_centralized(graph: Graph, parameters: SpannerParameters) -> RunResult:
    """Run the full deterministic construction with the centralized engine."""
    return run_phases(graph, parameters, CentralizedSteps(graph, parameters))
