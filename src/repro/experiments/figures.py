"""Experiments F1-F8 -- data-driven analogues of the paper's Figures 1-8.

The paper's figures are illustrations of the algorithm's mechanics, not data
plots; each experiment here measures, on real runs, exactly the quantity the
corresponding figure illustrates, and checks the structural property the
figure is meant to convey:

* Figure 1 -- superclusters are grown around chosen popular centers
  (per-phase counts; Lemma 2.4 check);
* Figure 2 -- BFS trees of the new superclusters enter the spanner
  (per-phase superclustering edges; Lemma 2.3 radius check);
* Figure 3 -- ruling-set vertices have pairwise-disjoint delta-neighbourhoods
  (separation / domination / disjointness measurements);
* Figure 4 -- forest paths from roots to member centers enter the spanner
  (path lengths vs. the superclustering depth bound);
* Figure 5 -- unclustered clusters are interconnected to all nearby centers
  (per-center path counts vs. the deg_i budget);
* Figure 6 -- the "hop through a neighbouring cluster" bound of Lemma 2.15;
* Figure 7 -- the end-to-end stretch decomposition (measured surplus vs.
  graph distance, against the (1+eps, beta) guarantee);
* Figure 8 -- the segmenting argument of Lemma 2.16 (surplus as a function of
  the number of eps^{-ell}-length segments).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..algorithms import get_spec as get_algorithm
from ..analysis.stretch import evaluate_stretch, evaluate_stretch_sampled
from ..core.result import SpannerResult
from ..graphs.bfs import bfs_distances
from ..graphs.generators import planted_partition_graph
from ..graphs.graph import Graph
from .registry import ScenarioSpec, register
from .results import ExperimentRecord


# ----------------------------------------------------------------------
# Figure 1 -- superclustering around popular centers
# ----------------------------------------------------------------------
def figure1_superclustering(result: SpannerResult) -> ExperimentRecord:
    """Per-phase superclustering dynamics (Figure 1)."""
    record = ExperimentRecord(
        name="figure1-superclustering",
        description="Supercluster growth around chosen popular cluster centers, per phase.",
        parameters={"engine": result.engine, "n": result.num_vertices},
    )
    all_popular_covered = True
    for phase in result.phase_records:
        covered = set(phase.popular_centers) <= set(phase.superclustered_centers)
        if phase.index < result.parameters.ell and not covered:
            all_popular_covered = False
        record.rows.append(
            {
                "phase": phase.index,
                "stage": phase.stage,
                "clusters": phase.num_clusters,
                "popular": phase.num_popular,
                "ruling_set": phase.ruling_set_size,
                "superclustered": phase.num_superclustered,
                "unclustered": phase.num_unclustered,
                "popular_all_covered": covered or phase.index == result.parameters.ell,
            }
        )
    record.series["clusters-per-phase"] = [
        float(p.num_clusters) for p in result.phase_records
    ]
    record.series["popular-per-phase"] = [
        float(p.num_popular) for p in result.phase_records
    ]
    record.checks["lemma-2.4-every-popular-cluster-superclustered"] = all_popular_covered
    record.checks["cluster-count-decreases"] = all(
        a >= b
        for a, b in zip(
            record.series["clusters-per-phase"], record.series["clusters-per-phase"][1:]
        )
    )
    return record


# ----------------------------------------------------------------------
# Figure 2 -- BFS trees of superclusters added to H
# ----------------------------------------------------------------------
def figure2_bfs_trees(result: SpannerResult) -> ExperimentRecord:
    """Superclustering edges and measured cluster radii vs. the R_i bounds (Figure 2)."""
    record = ExperimentRecord(
        name="figure2-bfs-trees",
        description="BFS trees of new superclusters added to H; radii vs. the R_i bounds.",
        parameters={"engine": result.engine, "n": result.num_vertices},
    )
    bounds = result.parameters.radius_bounds()
    radii_ok = True
    for i, collection in enumerate(result.cluster_history):
        if len(collection) == 0:
            measured = 0
        else:
            measured = collection.max_radius_in(result.spanner)
        if measured > bounds[i]:
            radii_ok = False
        superclustering_edges = (
            result.phase(i).superclustering_edges if i < len(result.phase_records) else 0
        )
        record.rows.append(
            {
                "phase": i,
                "clusters": len(collection),
                "max_radius_measured": measured,
                "radius_bound_R_i": bounds[i],
                "superclustering_edges": superclustering_edges,
                "edges_at_most_n-1": superclustering_edges <= max(0, result.num_vertices - 1),
            }
        )
    record.checks["lemma-2.3-radius-bounds-hold"] = radii_ok
    record.checks["superclustering-edges-at-most-n-1-per-phase"] = all(
        bool(row["edges_at_most_n-1"]) for row in record.rows
    )
    return record


# ----------------------------------------------------------------------
# Figure 3 -- disjoint delta-neighbourhoods of the ruling set
# ----------------------------------------------------------------------
def figure3_ruling_set(result: SpannerResult) -> ExperimentRecord:
    """Ruling-set separation, domination and neighbourhood disjointness (Figure 3)."""
    graph = result.graph
    parameters = result.parameters
    record = ExperimentRecord(
        name="figure3-ruling-set",
        description="Ruling-set structure per phase: separation, domination, disjoint delta_i-neighbourhoods.",
        parameters={"engine": result.engine, "n": result.num_vertices},
    )
    separation_ok = True
    domination_ok = True
    disjoint_ok = True
    for phase in result.phase_records:
        if not phase.ruling_set:
            continue
        members = sorted(phase.ruling_set)
        delta = phase.delta
        required_separation = 2 * delta + 1
        domination_bound = parameters.domination_multiplier * 2 * delta

        min_separation = math.inf
        neighbourhoods: List[set] = []
        for u in members:
            dist = bfs_distances(graph, u)
            for v in members:
                if v > u and v in dist:
                    min_separation = min(min_separation, dist[v])
            neighbourhoods.append({w for w, d in dist.items() if d <= delta})
        overlaps = 0
        for a in range(len(neighbourhoods)):
            for b in range(a + 1, len(neighbourhoods)):
                if neighbourhoods[a] & neighbourhoods[b]:
                    overlaps += 1

        max_domination = 0
        if members:
            # distance from every popular center to the ruling set
            for w in phase.popular_centers:
                dist = bfs_distances(graph, w, max_depth=domination_bound)
                nearest = min((dist[u] for u in members if u in dist), default=math.inf)
                max_domination = max(max_domination, nearest)

        phase_sep_ok = min_separation >= required_separation
        phase_dom_ok = max_domination <= domination_bound
        phase_disjoint_ok = overlaps == 0
        separation_ok = separation_ok and phase_sep_ok
        domination_ok = domination_ok and phase_dom_ok
        disjoint_ok = disjoint_ok and phase_disjoint_ok
        record.rows.append(
            {
                "phase": phase.index,
                "ruling_set_size": len(members),
                "delta": delta,
                "min_separation": min_separation if min_separation != math.inf else None,
                "required_separation": required_separation,
                "max_domination": max_domination,
                "domination_bound": domination_bound,
                "neighbourhood_overlaps": overlaps,
            }
        )
    record.checks["separation-at-least-2delta+1"] = separation_ok
    record.checks["domination-within-bound"] = domination_ok
    record.checks["delta-neighbourhoods-disjoint"] = disjoint_ok
    return record


# ----------------------------------------------------------------------
# Figure 4 -- forest paths added to H
# ----------------------------------------------------------------------
def figure4_forest_paths(result: SpannerResult) -> ExperimentRecord:
    """Root-to-member-center forest paths: lengths vs. the superclustering depth (Figure 4)."""
    record = ExperimentRecord(
        name="figure4-forest-paths",
        description="Forest paths from supercluster roots to member centers added to H.",
        parameters={"engine": result.engine, "n": result.num_vertices},
    )
    spanner = result.spanner
    lengths_ok = True
    for phase in result.phase_records:
        i = phase.index
        if i >= result.parameters.ell or phase.num_superclustered == 0:
            continue
        depth_bound = result.parameters.superclustering_depth(i)
        next_collection = result.cluster_history[i + 1]
        # Group the spanned member centers by their supercluster through the
        # snapshot's O(1) membership array, then pay one bounded BFS per root.
        centers_by_root: Dict[int, List[int]] = {}
        for member_center in phase.superclustered_centers:
            root = next_collection.center_of_vertex(member_center)
            if root >= 0:
                centers_by_root.setdefault(root, []).append(member_center)
        max_path = 0
        for root, member_centers in centers_by_root.items():
            dist = bfs_distances(spanner, root, max_depth=depth_bound + 1)
            for member_center in member_centers:
                if member_center in dist:
                    max_path = max(max_path, dist[member_center])
        if max_path > depth_bound:
            lengths_ok = False
        record.rows.append(
            {
                "phase": i,
                "superclustered_centers": phase.num_superclustered,
                "superclustering_edges": phase.superclustering_edges,
                "max_root_to_center_distance_in_H": max_path,
                "depth_bound": depth_bound,
            }
        )
    record.checks["forest-paths-within-depth-bound"] = lengths_ok
    record.checks["edges-bounded-by-n-1"] = all(
        row["superclustering_edges"] <= max(0, result.num_vertices - 1) for row in record.rows
    )
    return record


# ----------------------------------------------------------------------
# Figure 5 -- interconnection paths
# ----------------------------------------------------------------------
def figure5_interconnection(result: SpannerResult) -> ExperimentRecord:
    """Interconnection paths per unclustered cluster vs. the deg_i budget (Figure 5)."""
    record = ExperimentRecord(
        name="figure5-interconnection",
        description="Interconnection step: per-center path counts against the deg_i budget.",
        parameters={"engine": result.engine, "n": result.num_vertices},
    )
    budget_ok = True
    for phase in result.phase_records:
        per_center: Dict[int, int] = {}
        for center, _target in phase.interconnection_pairs:
            per_center[center] = per_center.get(center, 0) + 1
        max_per_center = max(per_center.values()) if per_center else 0
        phase_ok = max_per_center < phase.degree_threshold or max_per_center == 0
        budget_ok = budget_ok and phase_ok
        record.rows.append(
            {
                "phase": phase.index,
                "unclustered": phase.num_unclustered,
                "paths": phase.interconnection_paths,
                "max_paths_per_center": max_per_center,
                "deg_i_budget": phase.degree_threshold,
                "edges_added": phase.interconnection_edges,
                "edge_budget": phase.num_unclustered * phase.degree_threshold * phase.delta,
            }
        )
    record.series["interconnection-edges-per-phase"] = [
        float(p.interconnection_edges) for p in result.phase_records
    ]
    record.checks["per-center-paths-below-deg_i"] = budget_ok
    record.checks["edges-within-budget"] = all(
        row["edges_added"] <= row["edge_budget"] or row["edge_budget"] == 0
        for row in record.rows
    )
    return record


# ----------------------------------------------------------------------
# Figure 6 -- hop through a neighbouring cluster (Lemma 2.15)
# ----------------------------------------------------------------------
def figure6_cluster_hop(result: SpannerResult) -> ExperimentRecord:
    """Measured d_H(w, r_C') for neighbouring clusters C in U_j, C' in U_i (Figure 6 / Lemma 2.15)."""
    record = ExperimentRecord(
        name="figure6-cluster-hop",
        description="Lemma 2.15: distance in H from a vertex of a lower-phase cluster to the center of a neighbouring higher-phase cluster.",
        parameters={"engine": result.engine, "n": result.num_vertices},
    )
    graph = result.graph
    spanner = result.spanner
    bounds = result.parameters.radius_bounds()

    # Dense vertex -> (retirement phase, cluster center) labels, one sweep per
    # snapshot's flat membership arrays (Corollary 2.5: the U_i partition V).
    n = result.num_vertices
    phase_of = [-1] * n
    center_of = [-1] * n
    for i, collection in enumerate(result.unclustered_history):
        cluster_of = collection.cluster_of_array()
        for v in collection.members_array():
            phase_of[v] = i
            center_of[v] = collection.center(cluster_of[v])

    # Group candidate edges by the higher-phase cluster center so we need one
    # spanner BFS per such center.
    by_high_center: Dict[int, List[Tuple[int, int, int]]] = {}
    for u, v in graph.edges():
        ju, jv = phase_of[u], phase_of[v]
        if ju < 0 or jv < 0 or ju == jv:
            continue
        low, high = (u, v) if ju < jv else (v, u)
        j, i = min(ju, jv), max(ju, jv)
        by_high_center.setdefault(center_of[high], []).append((low, j, i))

    worst_by_pair: Dict[Tuple[int, int], Dict[str, int]] = {}
    all_within = True
    for high_center, entries in by_high_center.items():
        dist = bfs_distances(spanner, high_center)
        for low_vertex, j, i in entries:
            bound = 3 * bounds[j] + 1 + bounds[i]
            measured = dist.get(low_vertex)
            if measured is None or measured > bound:
                all_within = False
                measured_value = measured if measured is not None else -1
            else:
                measured_value = measured
            key = (j, i)
            row = worst_by_pair.setdefault(
                key, {"phase_low": j, "phase_high": i, "max_measured": 0, "bound": bound, "samples": 0}
            )
            row["max_measured"] = max(row["max_measured"], measured_value)
            row["bound"] = bound
            row["samples"] += 1

    for key in sorted(worst_by_pair.keys()):
        record.rows.append(worst_by_pair[key])
    record.checks["lemma-2.15-bound-holds"] = all_within
    if not record.rows:
        record.add_note("no pair of neighbouring clusters from different phases in this run")
    return record


# ----------------------------------------------------------------------
# Figure 7 -- end-to-end stretch decomposition
# ----------------------------------------------------------------------
def figure7_stretch_decomposition(
    result: SpannerResult,
    sample_pairs: int = 500,
    seed: int = 3,
) -> ExperimentRecord:
    """Measured additive surplus vs. graph distance against the (1+eps, beta) guarantee (Figure 7)."""
    graph = result.graph
    guarantee = result.parameters.stretch_bound()
    if graph.num_vertices <= 80:
        report = evaluate_stretch(graph, result.spanner, guarantee=guarantee)
    else:
        report = evaluate_stretch_sampled(
            graph, result.spanner, num_pairs=sample_pairs, seed=seed, guarantee=guarantee
        )
    record = ExperimentRecord(
        name="figure7-stretch-decomposition",
        description="Additive surplus of the spanner as a function of the original distance.",
        parameters={
            "engine": result.engine,
            "n": result.num_vertices,
            "multiplicative_bound": guarantee.multiplicative,
            "additive_bound": guarantee.additive,
        },
    )
    for distance in sorted(report.surplus_by_distance.keys()):
        surplus = report.surplus_by_distance[distance]
        allowed = (guarantee.multiplicative - 1.0) * distance + guarantee.additive
        record.rows.append(
            {
                "graph_distance": distance,
                "max_additive_surplus": surplus,
                "allowed_surplus": allowed,
                "within_guarantee": surplus <= allowed + 1e-9,
            }
        )
    record.series["graph-distance"] = [float(d) for d in sorted(report.surplus_by_distance)]
    record.series["max-additive-surplus"] = [
        report.surplus_by_distance[d] for d in sorted(report.surplus_by_distance)
    ]
    record.checks["guarantee-holds-on-all-pairs"] = report.satisfies_guarantee
    record.checks["surplus-below-allowance-everywhere"] = all(
        bool(row["within_guarantee"]) for row in record.rows
    )
    record.parameters["pairs_checked"] = report.pairs_checked
    record.parameters["max_multiplicative_measured"] = report.max_multiplicative
    return record


# ----------------------------------------------------------------------
# Figure 8 -- the segmenting argument
# ----------------------------------------------------------------------
def figure8_segment_argument(
    result: SpannerResult,
    sample_pairs: int = 500,
    seed: int = 9,
) -> ExperimentRecord:
    """Surplus as a function of the number of eps^{-ell}-length segments (Figure 8 / eq. 15)."""
    graph = result.graph
    parameters = result.parameters
    guarantee = parameters.stretch_bound()
    segment_length = parameters.segment_length(parameters.ell)
    if graph.num_vertices <= 80:
        report = evaluate_stretch(graph, result.spanner, guarantee=guarantee)
    else:
        report = evaluate_stretch_sampled(
            graph, result.spanner, num_pairs=sample_pairs, seed=seed, guarantee=guarantee
        )
    by_segments: Dict[int, float] = {}
    for distance, surplus in report.surplus_by_distance.items():
        segments = max(1, math.ceil(distance / segment_length))
        by_segments[segments] = max(by_segments.get(segments, 0.0), surplus)

    record = ExperimentRecord(
        name="figure8-segment-argument",
        description="Lemma 2.16's segmenting: measured surplus bucketed by the number of length-L_ell segments.",
        parameters={
            "engine": result.engine,
            "n": result.num_vertices,
            "segment_length": segment_length,
            "per_segment_budget": guarantee.additive,
        },
    )
    within = True
    for segments in sorted(by_segments.keys()):
        allowance = segments * guarantee.additive + (guarantee.multiplicative - 1.0) * segments * segment_length
        surplus = by_segments[segments]
        ok = surplus <= allowance + 1e-9
        within = within and ok
        record.rows.append(
            {
                "segments": segments,
                "max_surplus": surplus,
                "per-segment-allowance": allowance,
                "within": ok,
            }
        )
    record.series["segments"] = [float(s) for s in sorted(by_segments)]
    record.series["max-surplus"] = [by_segments[s] for s in sorted(by_segments)]
    record.checks["surplus-grows-at-most-linearly-in-segments"] = within
    record.checks["guarantee-holds"] = report.satisfies_guarantee
    return record


ALL_FIGURES = {
    "figure1": figure1_superclustering,
    "figure2": figure2_bfs_trees,
    "figure3": figure3_ruling_set,
    "figure4": figure4_forest_paths,
    "figure5": figure5_interconnection,
    "figure6": figure6_cluster_hop,
    "figure7": figure7_stretch_decomposition,
    "figure8": figure8_segment_argument,
}

_FIGURE_CAPTIONS = {
    "figure1": "Supercluster growth around popular cluster centers (Lemma 2.4).",
    "figure2": "BFS trees of new superclusters added to H; radii vs. R_i (Lemma 2.3).",
    "figure3": "Ruling-set separation / domination / disjointness (Theorem 2.2).",
    "figure4": "Forest paths from roots to member centers (superclustering depth bound).",
    "figure5": "Interconnection paths per unclustered cluster vs. the deg_i budget (Lemma 2.12).",
    "figure6": "Hop through a neighbouring cluster costs at most 3R_j + 1 + R_i (Lemma 2.15).",
    "figure7": "End-to-end stretch decomposition against the (1+eps, beta) guarantee.",
    "figure8": "The segmenting argument: surplus per eps^{-ell}-length segment (Lemma 2.16).",
}


# ----------------------------------------------------------------------
# Pipeline integration: one scenario per figure, a shared task function
# ----------------------------------------------------------------------
def figure_workload(params: Dict[str, object]) -> Graph:
    """The community workload all figure scenarios measure on."""
    graph = params.get("graph")
    if isinstance(graph, Graph):
        return graph
    return planted_partition_graph(
        int(params["clusters"]),
        int(params["cluster_size"]),
        p_intra=float(params["p_intra"]),
        p_inter=float(params["p_inter"]),
        seed=int(params["workload_seed"]),
    )


def figure_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Build the spanner run and evaluate one figure experiment on it."""
    graph = figure_workload(params)
    spec = get_algorithm(str(params["algorithm"]))
    run = spec.run(
        graph,
        spec.subset_params(
            {
                "epsilon": float(params["epsilon"]),
                "kappa": int(params["kappa"]),
                "rho": float(params["rho"]),
                "epsilon_is_internal": True,
            }
        ),
    )
    if not isinstance(run.source, SpannerResult):
        raise ValueError(
            f"figure experiments need an engine run with full phase structure; "
            f"{run.algorithm!r} is not an engine algorithm"
        )
    record = ALL_FIGURES[str(params["figure"])](run.source)
    return record.to_dict()


def figure_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    """A figure scenario is a single task; its payload already is the record."""
    return ExperimentRecord.from_dict(payloads[0])


def figure_spec(
    figure: str,
    clusters: int = 10,
    cluster_size: int = 14,
    p_intra: float = 0.5,
    p_inter: float = 0.02,
    workload_seed: int = 13,
    epsilon: float = 0.25,
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    algorithm: str = "new-centralized",
    graph: Optional[Graph] = None,
) -> ScenarioSpec:
    """One figure experiment as a pipeline scenario.

    ``algorithm`` must name a registered *engine* algorithm (the figure
    experiments inspect the full phase structure of a
    :class:`SpannerResult`).
    """
    if figure not in ALL_FIGURES:
        raise KeyError(f"unknown figure {figure!r}")
    defaults: Dict[str, object] = {
        "figure": figure,
        "clusters": clusters,
        "cluster_size": cluster_size,
        "p_intra": p_intra,
        "p_inter": p_inter,
        "workload_seed": workload_seed,
        "epsilon": epsilon,
        "kappa": kappa,
        "rho": rho,
        "algorithm": algorithm,
    }
    if graph is not None:
        defaults["graph"] = graph
    return ScenarioSpec(
        name=figure,
        description=_FIGURE_CAPTIONS[figure],
        tags=("figure", "paper"),
        defaults=defaults,
        workload=figure_workload,
        workload_keys=("clusters", "cluster_size", "p_intra", "p_inter", "workload_seed"),
        task=figure_task,
        merge=figure_merge,
        version="2",
    )


#: The registered, CLI-scale figure scenarios (figure1 .. figure8).
FIGURE_SPECS = {name: register(figure_spec(name)) for name in sorted(ALL_FIGURES)}
