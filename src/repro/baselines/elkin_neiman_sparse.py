"""Randomized Elkin-Neiman very sparse spanner ([EN16], arXiv:1607.08337).

The "ultra-sparse" end of the Elkin-Neiman spanner family: the same sampled
superclustering-and-interconnection scheme as the [EN17] comparator
(:mod:`repro.baselines.elkin_neiman`), but driven by the doubly-exponential
degree schedule of the sparse siblings -- ``deg_i = ceil(n^(2^i / 2^levels))``
-- instead of the standard ``kappa`` schedule.  Sampling a center with
probability ``1 / deg_i`` then thins the cluster population so aggressively
that the spanner's size exponent is ``1 + 1/2^levels``: arbitrarily close to
linear as ``levels`` grows, at the price of the larger additive term the
longer radius schedule implies.

Schedules, degree thresholds and the declared guarantee are shared with the
deterministic [EM19]-style sibling (:mod:`repro.baselines.elkin_matar`); only
host selection differs (random sampling here, a greedy scan there), which is
exactly the deterministic-vs-randomized contrast the survey tables are meant
to show.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..algorithms.result import RunResult
from ..core.cluster_table import ClusterTable
from ..core.parameters import StretchGuarantee, guarantee_from_schedules
from ..graphs.bfs import bfs
from ..graphs.graph import Graph
from .elkin_matar import _add_path, sparse_degree_threshold, sparse_schedules


def elkin_neiman_sparse_guarantee(epsilon: float, levels: int) -> StretchGuarantee:
    """The declared ``(1 + alpha, beta)`` guarantee -- a pure params formula."""
    radii, deltas = sparse_schedules(epsilon, levels)
    return guarantee_from_schedules(radii, deltas)


def build_elkin_neiman_sparse_spanner(
    graph: Graph,
    epsilon: float = 0.5,
    levels: int = 3,
    seed: int = 0,
) -> RunResult:
    """Build a very sparse near-additive spanner with [EN16]-style sampling."""
    rng = random.Random(seed)
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

        if i < last_phase:
            sampled = sorted(
                center for center in centers if rng.random() < 1.0 / degree_i
            )
        else:
            sampled = []
        sampled_set = set(sampled)

        superclustered: Dict[int, int] = {}
        interconnected: List[int] = []
        for center in centers:
            if center in sampled_set:
                superclustered[center] = center
                continue
            nearby_sampled = [
                (dist, other)
                for other, dist in reach[center].items()
                if other in sampled_set
            ]
            if nearby_sampled:
                _, host = min(nearby_sampled)
                superclustered[center] = host
            else:
                interconnected.append(center)

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
                "num_sampled": len(sampled),
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
        algorithm="elkin-neiman-sparse",
        graph=graph,
        spanner=spanner,
        guarantee=guarantee,
        nominal_rounds=nominal_rounds,
        phases=phase_stats,
        details={"levels": levels, "seed": seed},
    )
