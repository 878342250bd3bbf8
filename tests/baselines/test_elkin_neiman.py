"""Tests for the randomized Elkin-Neiman-style baseline."""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_stretch
from repro.baselines import build_elkin_neiman_spanner
from repro.graphs import gnp_random_graph, grid_graph, planted_partition_graph, same_component_structure


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stretch_guarantee_holds(seed, default_params):
    graph = gnp_random_graph(40, 0.1, seed=seed)
    result = build_elkin_neiman_spanner(graph, default_params, seed=seed)
    stretch = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert stretch.satisfies_guarantee


def test_spanner_is_subgraph(community_graph, default_params):
    result = build_elkin_neiman_spanner(community_graph, default_params, seed=3)
    assert result.spanner.is_subgraph_of(community_graph)


def test_connectivity_preserved(community_graph, default_params):
    result = build_elkin_neiman_spanner(community_graph, default_params, seed=4)
    assert same_component_structure(community_graph, result.spanner)


def test_reproducible_for_fixed_seed(default_params):
    graph = gnp_random_graph(30, 0.15, seed=8)
    a = build_elkin_neiman_spanner(graph, default_params, seed=11)
    b = build_elkin_neiman_spanner(graph, default_params, seed=11)
    assert a.spanner == b.spanner


def test_different_seeds_usually_differ(default_params):
    graph = planted_partition_graph(4, 8, 0.6, 0.05, seed=1)
    a = build_elkin_neiman_spanner(graph, default_params, seed=0)
    b = build_elkin_neiman_spanner(graph, default_params, seed=1)
    assert a.spanner != b.spanner or a.phases != b.phases or a.details != b.details


def test_round_cost_reported(default_params):
    graph = grid_graph(5, 5)
    result = build_elkin_neiman_spanner(graph, default_params, seed=0)
    assert result.nominal_rounds is not None and result.nominal_rounds > 0


def test_phase_stats_recorded(default_params):
    graph = gnp_random_graph(30, 0.1, seed=3)
    result = build_elkin_neiman_spanner(graph, default_params, seed=3)
    phases = result.phases
    assert len(phases) == default_params.num_phases
    assert phases[0]["num_clusters"] == 30
