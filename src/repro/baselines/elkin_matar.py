"""Deterministic Elkin-Matar-style linear-size spanner ([EM19], arXiv:1907.10895).

[EM19] shows that near-additive spanners exist with *linear* size: with a
doubly-exponential cluster-degree schedule, the number of clusters that
survive each superclustering phase drops so fast that the total edge count is
``O(n)`` (plus lower-order interconnection terms) instead of the
``O(n^{1+1/kappa})`` of the standard schedule.  This module implements a
centralized surrogate of that scheme on top of the same
superclustering-and-interconnection skeleton as the other baselines:

* phase ``i`` uses the degree threshold ``deg_i = ceil(n^(2^i / 2^levels))``
  (doubly exponential in ``i``; the size exponent of the standard schedule's
  ``n^{1+1/kappa}`` becomes ``1 + 1/2^levels``);
* host selection is *deterministic*: centers are scanned in ascending ID
  order, and a center with at least ``deg_i`` unhosted centers within
  ``delta_i`` becomes a host and superclusters them (the greedy scan replaces
  [EM19]'s existential argument -- no sampling anywhere);
* unhosted centers are interconnected to every center within ``delta_i``,
  which is cheap precisely because they failed the degree threshold;
* the distance thresholds follow the same ``delta_i = ceil(eps^-i) + 2 R_i``,
  ``R_{i+1} = delta_i + R_i`` recursion as the paper's constructions, so the
  declared ``(1 + alpha, beta)`` guarantee comes from the shared Lemma-2.16
  recursion (:func:`repro.core.parameters.guarantee_from_schedules`) -- a
  params-only formula, which is what lets the dynamic tier absorb churn
  against it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..algorithms.result import RunResult
from ..core.cluster_table import ClusterTable
from ..core.parameters import StretchGuarantee, guarantee_from_schedules
from ..graphs.bfs import bfs
from ..graphs.graph import Graph, normalize_edge


def validate_sparse_parameters(epsilon: float, levels: int) -> None:
    """Reject parameter settings outside the schedule's domain."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")


def sparse_schedules(epsilon: float, levels: int) -> Tuple[List[int], List[int]]:
    """Radius bounds and distance thresholds for the sparse-schedule siblings.

    ``levels + 1`` phases with the standard recursion
    ``delta_i = ceil(eps^-i) + 2 R_i`` and ``R_{i+1} = delta_i + R_i`` --
    identical in shape to the [EN17] schedules, so
    :func:`~repro.core.parameters.guarantee_from_schedules` applies verbatim.
    """
    validate_sparse_parameters(epsilon, levels)
    num_phases = levels + 1
    radii = [0]
    deltas = []
    for i in range(num_phases):
        delta_i = int(math.ceil(epsilon ** (-i) - 1e-9)) + 2 * radii[i]
        deltas.append(delta_i)
        radii.append(delta_i + radii[i])
    return radii[:num_phases], deltas


def sparse_degree_threshold(levels: int, phase: int, num_vertices: int) -> int:
    """The doubly-exponential degree threshold ``ceil(n^(2^phase / 2^levels))``."""
    if num_vertices <= 1:
        return 1
    exponent = (2.0 ** phase) / (2.0 ** levels)
    return max(1, int(math.ceil(num_vertices ** exponent - 1e-9)))


def elkin_matar_guarantee(epsilon: float, levels: int) -> StretchGuarantee:
    """The declared ``(1 + alpha, beta)`` guarantee -- a pure params formula."""
    radii, deltas = sparse_schedules(epsilon, levels)
    return guarantee_from_schedules(radii, deltas)


def build_elkin_matar_spanner(
    graph: Graph,
    epsilon: float = 0.5,
    levels: int = 3,
) -> RunResult:
    """Build a linear-size-schedule near-additive spanner deterministically."""
    n = graph.num_vertices
    spanner = Graph(n)
    radii, deltas = sparse_schedules(epsilon, levels)
    table = ClusterTable.singletons(n)
    nominal_rounds = 0
    phase_stats: List[Dict[str, int]] = []
    last_phase = levels

    for i in range(levels + 1):
        delta_i = deltas[i]
        degree_i = sparse_degree_threshold(levels, i, n)
        centers = table.centers()
        nominal_rounds += 1 + degree_i * delta_i

        reach: Dict[int, Dict[int, int]] = {}
        parents: Dict[int, List[Optional[int]]] = {}
        for center in centers:
            result = bfs(graph, center, max_depth=delta_i)
            reach[center] = {
                other: result.dist[other]
                for other in centers
                if result.dist[other] is not None
            }
            parents[center] = result.parent

        superclustered: Dict[int, int] = {}
        if i < last_phase:
            # Deterministic greedy scan: ascending IDs, first qualifying
            # center wins its neighbourhood (so the outcome is a function of
            # the graph alone -- no randomness to derandomize).
            for center in sorted(centers):
                if center in superclustered:
                    continue
                nearby = [
                    other
                    for other in sorted(reach[center])
                    if other != center and other not in superclustered
                ]
                if len(nearby) >= degree_i:
                    superclustered[center] = center
                    for other in nearby:
                        superclustered[other] = center

        interconnected = [c for c in centers if c not in superclustered]

        edges_added = 0
        for center, host in superclustered.items():
            if center == host:
                continue
            edges_added += _add_path(spanner, parents[host], center)
        paths = 0
        for center in interconnected:
            for other in reach[center]:
                if other == center:
                    continue
                edges_added += _add_path(spanner, parents[other], center)
                paths += 1
        nominal_rounds += degree_i * delta_i

        phase_stats.append(
            {
                "index": i,
                "num_clusters": len(centers),
                "num_hosts": sum(1 for c, h in superclustered.items() if c == h),
                "num_interconnected": len(interconnected),
                "interconnection_paths": paths,
                "edges_added": edges_added,
                "delta": delta_i,
                "degree_threshold": degree_i,
            }
        )

        if i < last_phase:
            table.supercluster(superclustered)
        else:
            table.retire_all()

    guarantee = guarantee_from_schedules(radii, deltas)
    return RunResult(
        algorithm="elkin-matar-linear",
        graph=graph,
        spanner=spanner,
        guarantee=guarantee,
        nominal_rounds=nominal_rounds,
        phases=phase_stats,
        details={"levels": levels},
    )


def _add_path(spanner: Graph, parent: List[Optional[int]], start: int) -> int:
    """Add the BFS-tree path from ``start`` to the BFS root; return new-edge count."""
    added = 0
    current = start
    while parent[current] is not None:
        nxt = parent[current]
        if spanner.add_edge(*normalize_edge(current, nxt)):
            added += 1
        current = nxt
    return added
