"""Centralized Elkin-Peleg-style near-additive spanner ([EP01], simplified).

[EP01] introduced the superclustering-and-interconnection scheme in the
centralized setting: in every phase, *consecutive scans* locate clusters with
many nearby clusters and merge their neighbourhoods into superclusters; the
remaining clusters are interconnected.  This module implements that scheme in
its simplest faithful form:

* phase ``i`` repeatedly takes the cluster center with the largest number of
  other centers within ``delta_i`` (ties by smallest ID); if that number is at
  least ``deg_i`` a supercluster is formed from all clusters whose centers lie
  within ``delta_i`` (shortest paths to them enter the spanner) and the merged
  clusters are removed from further scanning;
* when no center has ``deg_i`` near centers left, the remaining clusters are
  interconnected to every original phase-``i`` center within ``delta_i``.

The scan-by-scan nature is exactly what makes the scheme expensive to
distribute (the paper's Section 2.1 discusses this); we use it as the
centralized reference point of Table 2 and as a sanity check that the
deterministic distributed algorithm produces spanners of comparable quality.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..algorithms.result import RunResult
from ..core.cluster_table import ClusterTable
from ..core.parameters import SpannerParameters, StretchGuarantee, guarantee_from_schedules
from ..graphs.bfs import bfs
from ..graphs.graph import Graph, normalize_edge


def _ep_schedules(parameters: SpannerParameters) -> Tuple[List[int], List[int]]:
    """Radius bounds / distance thresholds for the scan-based construction."""
    radii = [0]
    deltas = []
    for i in range(parameters.num_phases):
        delta_i = int(math.ceil(parameters.epsilon ** (-i) - 1e-9)) + 2 * radii[i]
        deltas.append(delta_i)
        radii.append(delta_i + radii[i])
    return radii[: parameters.num_phases], deltas


def elkin_peleg_guarantee(parameters: SpannerParameters) -> StretchGuarantee:
    """The ``(1 + alpha, beta)`` guarantee the scan-based construction declares.

    Computed from the same radius/threshold schedules the builder uses, so the
    algorithm registry can state the guarantee without running the algorithm.
    """
    radii, deltas = _ep_schedules(parameters)
    return guarantee_from_schedules(radii, deltas)


def build_elkin_peleg_spanner(
    graph: Graph,
    parameters: SpannerParameters,
) -> RunResult:
    """Build a near-additive spanner with the centralized [EP01]-style scheme."""
    n = graph.num_vertices
    spanner = Graph(n)
    radii, deltas = _ep_schedules(parameters)
    table = ClusterTable.singletons(n)
    phase_stats: List[Dict[str, int]] = []

    for i in parameters.phases():
        delta_i = deltas[i]
        degree_i = parameters.degree_threshold(i, n)
        centers = table.centers()

        reach: Dict[int, Dict[int, int]] = {}
        parents: Dict[int, List[Optional[int]]] = {}
        for center in centers:
            result = bfs(graph, center, max_depth=delta_i)
            reach[center] = {
                other: result.dist[other]
                for other in centers
                if result.dist[other] is not None and other != center
            }
            parents[center] = result.parent

        available: Set[int] = set(centers)
        superclusters: Dict[int, List[int]] = {}
        scans = 0
        if i < parameters.ell:
            while True:
                scans += 1
                best_center = None
                best_count = -1
                for center in sorted(available):
                    count = sum(1 for other in reach[center] if other in available)
                    if count > best_count:
                        best_count = count
                        best_center = center
                if best_center is None or best_count < degree_i:
                    break
                merged = [best_center] + sorted(
                    other for other in reach[best_center] if other in available
                )
                superclusters[best_center] = merged
                available.difference_update(merged)

        edges_added = 0
        for host, merged in superclusters.items():
            for center in merged:
                if center != host:
                    edges_added += _add_path(spanner, parents[host], center)

        interconnection_paths = 0
        for center in sorted(available):
            for other in reach[center]:
                edges_added += _add_path(spanner, parents[other], center)
                interconnection_paths += 1

        phase_stats.append(
            {
                "index": i,
                "num_clusters": len(centers),
                "num_superclusters": len(superclusters),
                "num_interconnected": len(available),
                "interconnection_paths": interconnection_paths,
                "scans": scans,
                "edges_added": edges_added,
                "delta": delta_i,
                "degree_threshold": degree_i,
            }
        )

        if i < parameters.ell:
            # Batched flat-array sweep: every merged center maps to its scan
            # host; the still-available clusters retire.
            center_host = {
                center: host
                for host, merged in superclusters.items()
                for center in merged
            }
            table.supercluster(center_host)
        else:
            table.retire_all()

    guarantee = guarantee_from_schedules(radii, deltas)
    return RunResult(
        algorithm="elkin-peleg-2001",
        graph=graph,
        spanner=spanner,
        guarantee=guarantee,
        phases=phase_stats,
    )


def _add_path(spanner: Graph, parent: List[Optional[int]], start: int) -> int:
    """Add the BFS-tree path from ``start`` up to the BFS root; return new-edge count."""
    added = 0
    current = start
    while parent[current] is not None:
        nxt = parent[current]
        if spanner.add_edge(*normalize_edge(current, nxt)):
            added += 1
        current = nxt
    return added
