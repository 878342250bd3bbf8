"""Randomized Elkin-Neiman-style near-additive spanner ([EN17]).

This is the paper's direct comparator: the randomized CONGEST algorithm whose
superclustering step the paper derandomizes.  We implement the
superclustering-and-interconnection scheme with [EN17]'s *random sampling* of
cluster centers:

* phase ``i`` samples every cluster center independently with probability
  ``1 / deg_i`` (``deg_i`` follows the same exponential/fixed schedule as the
  deterministic algorithm);
* a cluster whose center has a sampled center within ``delta_i`` joins the
  closest such sampled cluster (a shortest path to it enters the spanner);
* clusters with no sampled center nearby are *interconnected*: a shortest path
  is added to every cluster center within ``delta_i``;
* the concluding phase interconnects every surviving pair within
  ``delta_ell``.

The implementation is centralized (the randomized algorithm needs no
derandomization machinery, and Table 1/2 only require its produced spanner and
its round-cost formula); the nominal CONGEST round count reported is the cost
the distributed execution would incur with the same primitives we use for the
deterministic algorithm: ``Algorithm-1``-style explorations plus Bellman-Ford
interconnections, i.e. ``O(deg_i * delta_i)`` per phase.

The radii follow ``R_{i+1} = delta_i + R_i`` (joining a sampled center within
``delta_i`` extends the radius by the length of the added path), and the
stretch guarantee is computed through the same generic Lemma-2.16 recursion as
the deterministic algorithm (:func:`repro.core.parameters.guarantee_from_schedules`).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..algorithms.result import RunResult
from ..core.cluster_table import ClusterTable
from ..core.parameters import SpannerParameters, StretchGuarantee, guarantee_from_schedules
from ..graphs.bfs import bfs
from ..graphs.graph import Graph, normalize_edge


def _en_schedules(parameters: SpannerParameters) -> Tuple[List[int], List[int]]:
    """Radius bounds and distance thresholds for the randomized construction."""
    radii = [0]
    deltas = []
    for i in range(parameters.num_phases):
        delta_i = int(math.ceil(parameters.epsilon ** (-i) - 1e-9)) + 2 * radii[i]
        deltas.append(delta_i)
        radii.append(delta_i + radii[i])
    return radii[: parameters.num_phases], deltas


def elkin_neiman_guarantee(parameters: SpannerParameters) -> StretchGuarantee:
    """The ``(1 + alpha, beta)`` guarantee the randomized construction declares.

    Computed from the same radius/threshold schedules the builder uses, so the
    algorithm registry can state the guarantee without running the algorithm.
    """
    radii, deltas = _en_schedules(parameters)
    return guarantee_from_schedules(radii, deltas)


def build_elkin_neiman_spanner(
    graph: Graph,
    parameters: SpannerParameters,
    seed: int = 0,
) -> RunResult:
    """Build a near-additive spanner with the randomized [EN17]-style algorithm."""
    rng = random.Random(seed)
    n = graph.num_vertices
    spanner = Graph(n)
    radii, deltas = _en_schedules(parameters)
    table = ClusterTable.singletons(n)
    nominal_rounds = 0
    phase_stats: List[Dict[str, int]] = []

    for i in parameters.phases():
        delta_i = deltas[i]
        degree_i = parameters.degree_threshold(i, n)
        centers = table.centers()
        nominal_rounds += 1 + degree_i * delta_i  # exploration / Bellman-Ford cost

        # Distance knowledge within delta_i of every center (centralized stand-in
        # for the Bellman-Ford explorations of [EN17]).
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

        if i < parameters.ell:
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
        # Superclustering paths: center -> chosen sampled host.
        for center, host in superclustered.items():
            if center == host:
                continue
            edges_added += _add_path(spanner, parents[host], center)
        # Interconnection paths: unsampled-and-uncovered centers connect to
        # every center within delta_i.
        paths = 0
        for center in interconnected:
            for other in reach[center]:
                if other == center:
                    continue
                edges_added += _add_path(spanner, parents[other], center)
                paths += 1
        nominal_rounds += degree_i * delta_i  # path trace-back cost

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

        if i < parameters.ell:
            # One batched flat-array sweep replaces the per-cluster merges:
            # every center maps to its sampled host (hosts map to themselves),
            # uncovered clusters retire.
            table.supercluster(superclustered)
        else:
            table.retire_all()

    guarantee = guarantee_from_schedules(radii, deltas)
    return RunResult(
        algorithm="elkin-neiman-2017",
        graph=graph,
        spanner=spanner,
        guarantee=guarantee,
        nominal_rounds=nominal_rounds,
        phases=phase_stats,
        details={"seed": seed},
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
