"""Surrogate for the Elkin'05 deterministic CONGEST algorithm (Table 1, row 1).

[Elk05] is, before this paper, the *only* deterministic CONGEST-model
algorithm for near-additive spanners; its running time is superlinear in
``n`` (``O(n^{1 + 1/(2 kappa)})``).  The construction itself is long and quite
different in its details, but the reason for the superlinear running time is
structural: supercluster formation proceeds by *sequential* work over cluster
centers (one candidate after another), instead of the parallel ruling-set
computation of the new algorithm.

**Substitution 3.** The surrogate runs the reproduction's phase loop
(:func:`repro.core.phases.run_phases`) with the centralized engine's steps,
but replaces the parallel ruling-set step by a sequential greedy scan over
the popular centers: candidates are examined one at a time (in ID order) and
join the center set if no already-chosen center lies within ``2 delta_i``;
each examination costs a depth-``2 delta_i`` exploration, i.e. ``2 delta_i``
CONGEST rounds, executed one after the other.  The nominal round cost is
therefore ``sum_i |W_i| * 2 delta_i`` -- superlinear in ``n`` whenever a
constant fraction of the clusters is popular -- which reproduces the
qualitative running-time gap of Table 1.  The theoretical columns of Table 1
for [Elk05] are reproduced exactly from the published formulas in
:mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

from typing import List, Set

from ..algorithms.result import RunResult
from ..core.centralized import CentralizedSteps
from ..core.parameters import SpannerParameters, guarantee_from_schedules, schedules
from ..core.phases import run_phases
from ..graphs.bfs import bfs_distances
from ..graphs.graph import Graph


def _sequential_ruling_set(graph: Graph, candidates: List[int], separation: int) -> Set[int]:
    """Greedy sequential ``(separation+1, separation)``-ruling set (one scan per candidate)."""
    chosen: Set[int] = set()
    for candidate in sorted(candidates):
        near = bfs_distances(graph, candidate, max_depth=separation)
        if not any(other in chosen for other in near):
            chosen.add(candidate)
    return chosen


#: The per-phase statistics the surrogate reports, in payload order.
_PHASE_KEYS = (
    "index", "num_clusters", "num_popular", "ruling_set_size", "num_superclustered",
    "num_unclustered", "interconnection_paths", "delta", "degree_threshold",
)


class _SequentialScanSteps(CentralizedSteps):
    """The centralized engine's steps with the sequential superclustering scan."""

    def __init__(self, graph: Graph, parameters: SpannerParameters) -> None:
        super().__init__(graph, parameters)
        # The greedy sequential ruling set dominates candidates within
        # 2*delta_i, so superclusters grow to that depth: R_{i+1} = 2 delta_i + R_i.
        self.radii, self.deltas = schedules(parameters.epsilon, parameters.num_phases, 2)

    def supercluster(self, i: int, centers: List[int], popular: Set[int]):
        if not popular:
            return set(), {}, set()
        # Sequential scans: |W_i| explorations of depth 2*delta_i, one at a
        # time, then the forest growth and path mark-up at that depth.
        depth = 2 * self.deltas[i]
        self.nominal_rounds += len(popular) * depth + 2 * depth
        ruling_set = _sequential_ruling_set(self.graph, popular, separation=depth)
        return self.grow_forest(centers, ruling_set, depth)


def build_elkin05_surrogate_spanner(
    graph: Graph,
    parameters: SpannerParameters,
) -> RunResult:
    """Run the sequential-scan surrogate of the Elkin'05 deterministic algorithm."""
    steps = _SequentialScanSteps(graph, parameters)
    result = run_phases(graph, parameters, steps)
    return RunResult(
        algorithm="elkin05-surrogate",
        graph=graph,
        spanner=result.spanner,
        guarantee=guarantee_from_schedules(steps.radii, steps.deltas),
        nominal_rounds=result.nominal_rounds,
        phases=[
            {key: getattr(record, key) for key in _PHASE_KEYS}
            for record in result.phase_records
        ],
    )
