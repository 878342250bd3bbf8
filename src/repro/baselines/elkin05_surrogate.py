"""Surrogate for the Elkin'05 deterministic CONGEST algorithm (Table 1, row 1).

[Elk05] is, before this paper, the *only* deterministic CONGEST-model
algorithm for near-additive spanners; its running time is superlinear in
``n`` (``O(n^{1 + 1/(2 kappa)})``).  The construction itself is long and quite
different in its details, but the reason for the superlinear running time is
structural: supercluster formation proceeds by *sequential* work over cluster
centers (one candidate after another), instead of the parallel ruling-set
computation of the new algorithm.

Our surrogate keeps the superclustering-and-interconnection skeleton of the
reproduction but replaces the parallel ruling-set step by a sequential greedy
scan over the popular centers: candidates are examined one at a time (in ID
order) and join the center set if no already-chosen center lies within
``2 delta_i``; each examination costs a depth-``2 delta_i`` exploration, i.e.
``2 delta_i`` CONGEST rounds, executed one after the other.  The nominal round
cost is therefore ``sum_i |W_i| * 2 delta_i`` -- superlinear in ``n`` whenever
a constant fraction of the clusters is popular -- which reproduces the
qualitative running-time gap of Table 1.  (The theoretical columns of Table 1
for [Elk05] are reproduced exactly from the published formulas in
:mod:`repro.analysis.bounds`; see DESIGN.md, substitution 3.)
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from ..algorithms.result import RunResult
from ..core.certificate import INTERCONNECTION_STEP, SUPERCLUSTERING_STEP, SpannerCertificate
from ..core.cluster_table import ClusterTable
from ..core.interconnection import count_interconnection_paths, interconnection_requests
from ..core.parameters import SpannerParameters, StretchGuarantee, guarantee_from_schedules
from ..core.superclustering import (
    deterministic_forest,
    forest_path_edges,
    spanned_center_roots,
)
from ..graphs.bfs import bfs_distances
from ..graphs.graph import Graph
from ..primitives.exploration import centralized_bounded_exploration
from ..primitives.traceback import centralized_traceback


def _sequential_ruling_set(graph: Graph, candidates: List[int], separation: int) -> Set[int]:
    """Greedy sequential ``(separation+1, separation)``-ruling set (one scan per candidate)."""
    chosen: Set[int] = set()
    for candidate in sorted(candidates):
        near = bfs_distances(graph, candidate, max_depth=separation)
        if not any(other in chosen for other in near):
            chosen.add(candidate)
    return chosen


def _elkin05_schedules(parameters: SpannerParameters) -> Tuple[List[int], List[int]]:
    """Radius / threshold schedules of the sequential-scan surrogate.

    The greedy sequential ruling set dominates candidates within ``2*delta_i``,
    so superclusters are grown to that depth and radii follow
    ``R_{i+1} = 2*delta_i + R_i``.
    """
    radii = [0]
    deltas: List[int] = []
    for i in parameters.phases():
        delta_i = int(math.ceil(parameters.epsilon ** (-i) - 1e-9)) + 2 * radii[i]
        deltas.append(delta_i)
        radii.append(2 * delta_i + radii[i])
    return radii[: parameters.num_phases], deltas


def elkin05_surrogate_guarantee(parameters: SpannerParameters) -> StretchGuarantee:
    """The ``(1 + alpha, beta)`` guarantee the surrogate declares.

    Computed from the same schedules the builder uses, so the algorithm
    registry can state the guarantee without running the algorithm.
    """
    radii, deltas = _elkin05_schedules(parameters)
    return guarantee_from_schedules(radii, deltas)


def build_elkin05_surrogate_spanner(
    graph: Graph,
    parameters: SpannerParameters,
) -> RunResult:
    """Run the sequential-scan surrogate of the Elkin'05 deterministic algorithm."""
    n = graph.num_vertices
    spanner = Graph(n)
    certificate = SpannerCertificate()
    table = ClusterTable.singletons(n)
    nominal_rounds = 0
    phase_stats: List[Dict[str, int]] = []

    radii, deltas = _elkin05_schedules(parameters)

    for i in parameters.phases():
        delta_i = deltas[i]
        degree_i = parameters.degree_threshold(i, n)
        centers = table.centers()

        exploration = centralized_bounded_exploration(graph, centers, delta_i, degree_i)
        nominal_rounds += exploration.nominal_rounds
        popular = sorted(exploration.popular)

        spanned_centers: List[int] = []
        ruling_set: Set[int] = set()
        if i < parameters.ell and popular:
            # Sequential scans: |W_i| explorations of depth 2*delta_i, one at a time.
            ruling_set = _sequential_ruling_set(graph, popular, separation=2 * delta_i)
            nominal_rounds += len(popular) * 2 * delta_i
            root, _dist, parent = deterministic_forest(graph, ruling_set, 2 * delta_i)
            center_root = spanned_center_roots(centers, root)
            spanned_centers = sorted(center_root)
            forest_edges = forest_path_edges(parent, spanned_centers)
            certificate.record(forest_edges, i, SUPERCLUSTERING_STEP)
            spanner.add_edges(forest_edges)
            unclustered = table.supercluster(center_root)
            nominal_rounds += 2 * 2 * delta_i
        else:
            unclustered = table.retire_all()

        requests = interconnection_requests(unclustered.centers(), exploration)
        interconnection_edges = centralized_traceback(exploration, requests)
        certificate.record(interconnection_edges, i, INTERCONNECTION_STEP)
        spanner.add_edges(interconnection_edges)
        nominal_rounds += degree_i * delta_i

        phase_stats.append(
            {
                "index": i,
                "num_clusters": len(centers),
                "num_popular": len(popular),
                "ruling_set_size": len(ruling_set),
                "num_superclustered": len(spanned_centers),
                "num_unclustered": len(unclustered),
                "interconnection_paths": count_interconnection_paths(requests),
                "delta": delta_i,
                "degree_threshold": degree_i,
            }
        )

    guarantee = guarantee_from_schedules(radii, deltas)
    return RunResult(
        algorithm="elkin05-surrogate",
        graph=graph,
        spanner=spanner,
        guarantee=guarantee,
        nominal_rounds=nominal_rounds,
        phases=phase_stats,
    )
