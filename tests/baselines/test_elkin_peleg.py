"""Tests for the centralized Elkin-Peleg-style baseline."""

from __future__ import annotations

from repro.analysis import evaluate_stretch
from repro.baselines import build_elkin_peleg_spanner
from repro.graphs import complete_graph, gnp_random_graph, same_component_structure


def test_stretch_guarantee_holds(default_params):
    graph = gnp_random_graph(40, 0.12, seed=6)
    result = build_elkin_peleg_spanner(graph, default_params)
    stretch = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert stretch.satisfies_guarantee


def test_spanner_is_subgraph(community_graph, default_params):
    result = build_elkin_peleg_spanner(community_graph, default_params)
    assert result.spanner.is_subgraph_of(community_graph)


def test_connectivity_preserved(community_graph, default_params):
    result = build_elkin_peleg_spanner(community_graph, default_params)
    assert same_component_structure(community_graph, result.spanner)


def test_deterministic(default_params):
    graph = gnp_random_graph(30, 0.15, seed=2)
    assert (
        build_elkin_peleg_spanner(graph, default_params).spanner
        == build_elkin_peleg_spanner(graph, default_params).spanner
    )


def test_dense_graph_sparsified(default_params):
    graph = complete_graph(30)
    result = build_elkin_peleg_spanner(graph, default_params)
    assert result.num_edges < graph.num_edges


def test_scan_counts_recorded(community_graph, default_params):
    result = build_elkin_peleg_spanner(community_graph, default_params)
    phases = result.phases
    assert len(phases) == default_params.num_phases
    assert all("scans" in phase for phase in phases)
    assert phases[0]["num_superclusters"] >= 1
