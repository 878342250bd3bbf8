"""The four cluster-scan baselines: [EP01], [EN17], [EN16] and [EM19].

All four run one superclustering-and-interconnection loop
(:func:`_scan_phases`), centralized, on the same ``delta_i = ceil(eps^-i) +
2 R_i``, ``R_{i+1} = delta_i + R_i`` schedules (joining a host within
``delta_i`` extends a cluster's radius by the length of the added path).
Every phase ``i`` explores from all cluster centers to depth ``delta_i`` and
traces paths back with the centralized engine's primitives.  Before the
concluding phase a *host rule* maps centers to supercluster hosts, and a
shortest path from each mapped center to its host enters the spanner.  Every
unmapped center is *interconnected*: a shortest path to every center within
``delta_i`` enters the spanner, and its cluster retires.  The concluding phase
maps no center.  The declared ``(1 + alpha, beta)`` guarantee is the shared
Lemma-2.16 recursion over those schedules
(:func:`repro.core.parameters.guarantee_from_schedules`), a params-only
formula the registry and the dynamic tier read without building.

The baselines differ only in the host rule and the degree schedule:

* [EP01] (Elkin-Peleg, centralized): *consecutive scans* repeatedly take the
  center with the most unmerged centers within ``delta_i`` (ties by smallest
  ID) and, while that count reaches ``deg_i``, merge them all under it.  The
  scan-by-scan nature is exactly what makes the scheme expensive to
  distribute (the paper's Section 2.1); it is Table 2's centralized reference
  point.  Degrees follow the paper's ``kappa``/``rho`` schedule.
* [EN17] (Elkin-Neiman, randomized): every center is sampled with
  probability ``1 / deg_i`` and every other center joins the closest sampled
  center within ``delta_i``, on the paper's degree schedule.  This is the
  randomized CONGEST algorithm whose superclustering step the paper
  derandomizes.
* [EN16] (Elkin-Neiman, arXiv:1607.08337, very sparse): the same sampling on
  the doubly-exponential schedule ``deg_i = ceil(n^(2^i / 2^levels))`` with
  ``levels + 1`` phases, which thins the clusters so fast that the size
  exponent is ``1 + 1/2^levels``.
* [EM19] (Elkin-Matar, arXiv:1907.10895, linear size): the same
  doubly-exponential schedule with a deterministic first-fit scan in
  ascending ID order -- a center with at least ``deg_i`` unhosted centers
  within ``delta_i`` hosts them all -- in place of [EM19]'s existential
  argument, so the outcome is a function of the graph alone.

The nominal CONGEST round count reported by the last three is what a
distributed execution would pay with the deterministic algorithm's
primitives: an Algorithm-1-style exploration (``1 + deg_i * delta_i``) and
the path trace-back (``deg_i * delta_i``) per phase.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cluster_table import ClusterTable
from ..core.parameters import SpannerParameters, guarantee_from_schedules, schedules
from ..core.result import RunResult
from ..graphs.graph import Graph
from ..primitives.exploration import CenterExploration, centralized_engine_exploration
from ..primitives.traceback import centralized_traceback_flat

#: ``host_rule(exploration, deg_i)`` -> ``{center: host}``, hosts mapped to
#: themselves; ``exploration.near_centers[c]`` lists every other center within
#: ``delta_i`` of ``c``, in ascending center order.
HostRule = Callable[[CenterExploration, int], Dict[int, int]]

#: The per-phase statistics each baseline reports, in payload order.  The
#: third names the number of hosts; [EP01] also reports its scans (one per
#: host plus the one that finds none).
_EP01_KEYS = (
    "index", "num_clusters", "num_superclusters", "num_interconnected",
    "interconnection_paths", "scans", "edges_added", "delta", "degree_threshold",
)
_SAMPLED_KEYS = (
    "index", "num_clusters", "num_sampled", "num_interconnected",
    "interconnection_paths", "edges_added", "delta", "degree_threshold",
)
_EM19_KEYS = (
    "index", "num_clusters", "num_hosts", "num_interconnected",
    "interconnection_paths", "edges_added", "delta", "degree_threshold",
)


def _scan_phases(
    algorithm: str,
    graph: Graph,
    schedule: Tuple[List[int], List[int]],
    degrees: Sequence[int],
    host_rule: HostRule,
    keys: Tuple[str, ...],
    details: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run every phase on the ``(radii, deltas)`` schedule; return the labelled run."""
    radii, deltas = schedule
    spanner = Graph(graph.num_vertices)
    table = ClusterTable.singletons(graph.num_vertices)
    last = len(deltas) - 1
    phases: List[Dict[str, int]] = []
    nominal_rounds = 0

    for i, (delta_i, degree_i) in enumerate(zip(deltas, degrees)):
        centers = table.centers()
        exploration = centralized_engine_exploration(graph, centers, delta_i, degree_i)
        center_host = host_rule(exploration, degree_i) if i < last else {}
        interconnected = [c for c in centers if c not in center_host]
        requests = {center: [host] for center, host in center_host.items() if center != host}
        for center in interconnected:
            requests[center] = exploration.near_centers[center]
        edges_added = spanner.add_edges(centralized_traceback_flat(exploration, requests))
        nominal_rounds += exploration.nominal_rounds + degree_i * delta_i

        hosts = sum(1 for center, host in center_host.items() if center == host)
        paths = sum(len(exploration.near_centers[c]) for c in interconnected)
        stats = {
            "index": i, "num_clusters": len(centers), keys[2]: hosts,
            "num_interconnected": len(interconnected), "interconnection_paths": paths,
            "scans": hosts + 1 if i < last else 0, "edges_added": edges_added,
            "delta": delta_i, "degree_threshold": degree_i,
        }
        phases.append({key: stats[key] for key in keys})

        if i < last:
            table.supercluster(center_host)
        else:
            table.retire_all()

    return RunResult(
        algorithm=algorithm,
        graph=graph,
        spanner=spanner,
        guarantee=guarantee_from_schedules(radii, deltas),
        nominal_rounds=nominal_rounds,
        phases=phases,
        details=details or {},
    )


def _hops(exploration: CenterExploration, center: int, other: int) -> int:
    """Distance from ``center`` to a center it knows, walked up ``other``'s parent array."""
    if exploration.depth <= 1:
        return 1  # depth-1 explorations carry no parent arrays
    parent, current, hops = exploration.parents[other], center, 0
    while current != other:
        # int(): the compiled path's parent arrays yield numpy scalars.
        current, hops = int(parent[current]), hops + 1
    return hops


# ----------------------------------------------------------------------
# Host rules
# ----------------------------------------------------------------------
def _max_count_hosts(exploration, degree) -> Dict[int, int]:
    """[EP01]: repeatedly merge the center with the most unmerged centers nearby."""
    near = exploration.near_centers
    available = set(exploration.centers)
    center_host: Dict[int, int] = {}
    while True:
        best_center = None
        best_count = -1
        for center in sorted(available):
            count = sum(1 for other in near[center] if other in available)
            if count > best_count:
                best_count = count
                best_center = center
        if best_center is None or best_count < degree:
            return center_host
        merged = [best_center] + [other for other in near[best_center] if other in available]
        for center in merged:
            center_host[center] = best_center
        available.difference_update(merged)


def _first_fit_hosts(exploration, degree) -> Dict[int, int]:
    """[EM19]: in ascending ID order, a center with ``deg_i`` unhosted centers nearby hosts them."""
    near = exploration.near_centers
    center_host: Dict[int, int] = {}
    for center in exploration.centers:
        if center in center_host:
            continue
        nearby = [other for other in near[center] if other not in center_host]
        if len(nearby) >= degree:
            center_host[center] = center
            for other in nearby:
                center_host[other] = center
    return center_host


def _closest_sampled_hosts(rng: random.Random) -> HostRule:
    """[EN17]/[EN16]: sample centers w.p. ``1/deg_i``; others join the closest sample."""

    def rule(exploration, degree) -> Dict[int, int]:
        centers = exploration.centers
        sampled = {center for center in centers if rng.random() < 1.0 / degree}
        center_host: Dict[int, int] = {}
        for center in centers:
            if center in sampled:
                center_host[center] = center
                continue
            nearby = [
                (_hops(exploration, center, other), other)
                for other in exploration.near_centers[center]
                if other in sampled
            ]
            if nearby:
                center_host[center] = min(nearby)[1]
        return center_host

    return rule


# ----------------------------------------------------------------------
# The doubly-exponential schedule of [EN16] / [EM19]
# ----------------------------------------------------------------------
def sparse_schedules(epsilon: float, levels: int) -> Tuple[List[int], List[int]]:
    """Radius bounds and distance thresholds of the ``levels + 1`` sparse phases."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return schedules(epsilon, levels + 1, 1)


def sparse_degree_threshold(levels: int, phase: int, num_vertices: int) -> int:
    """The doubly-exponential degree threshold ``ceil(n^(2^phase / 2^levels))``."""
    if num_vertices <= 1:
        return 1
    exponent = (2.0 ** phase) / (2.0 ** levels)
    return max(1, int(math.ceil(num_vertices ** exponent - 1e-9)))


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_elkin_peleg_spanner(graph: Graph, parameters: SpannerParameters) -> RunResult:
    """Build a near-additive spanner with the centralized [EP01]-style scheme."""
    run = _scan_phases(
        "elkin-peleg-2001",
        graph,
        schedules(parameters.epsilon, parameters.num_phases, 1),
        parameters.degree_thresholds(graph.num_vertices),
        _max_count_hosts,
        _EP01_KEYS,
    )
    run.nominal_rounds = None  # a centralized scheme: no CONGEST round count
    return run


def build_elkin_neiman_spanner(
    graph: Graph,
    parameters: SpannerParameters,
    seed: int = 0,
) -> RunResult:
    """Build a near-additive spanner with the randomized [EN17]-style algorithm."""
    return _scan_phases(
        "elkin-neiman-2017",
        graph,
        schedules(parameters.epsilon, parameters.num_phases, 1),
        parameters.degree_thresholds(graph.num_vertices),
        _closest_sampled_hosts(random.Random(seed)),
        _SAMPLED_KEYS,
        {"seed": seed},
    )


def build_elkin_neiman_sparse_spanner(
    graph: Graph,
    epsilon: float = 0.5,
    levels: int = 3,
    seed: int = 0,
) -> RunResult:
    """Build a very sparse near-additive spanner with [EN16]-style sampling."""
    return _scan_phases(
        "elkin-neiman-sparse",
        graph,
        sparse_schedules(epsilon, levels),
        [sparse_degree_threshold(levels, i, graph.num_vertices) for i in range(levels + 1)],
        _closest_sampled_hosts(random.Random(seed)),
        _SAMPLED_KEYS,
        {"levels": levels, "seed": seed},
    )


def build_elkin_matar_spanner(
    graph: Graph,
    epsilon: float = 0.5,
    levels: int = 3,
) -> RunResult:
    """Build a linear-size-schedule near-additive spanner deterministically."""
    return _scan_phases(
        "elkin-matar-linear",
        graph,
        sparse_schedules(epsilon, levels),
        [sparse_degree_threshold(levels, i, graph.num_vertices) for i in range(levels + 1)],
        _first_fit_hosts,
        _EM19_KEYS,
        {"levels": levels},
    )
