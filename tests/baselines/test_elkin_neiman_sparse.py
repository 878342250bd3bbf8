"""Tests for the sampled very-sparse-schedule spanner (Elkin-Neiman style)."""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_stretch
from repro.algorithms import get_spec
from repro.baselines import build_elkin_neiman_sparse_spanner
from repro.graphs import gnp_random_graph, planted_partition_graph, same_component_structure


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stretch_guarantee_holds(seed):
    graph = gnp_random_graph(40, 0.1, seed=seed)
    result = build_elkin_neiman_sparse_spanner(graph, epsilon=0.5, levels=3, seed=seed)
    assert result.guarantee == get_spec("elkin-neiman-sparse").declared_guarantee(
        {"epsilon": 0.5, "levels": 3}
    )
    stretch = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert stretch.satisfies_guarantee


def test_spanner_is_subgraph_preserving_components(community_graph):
    result = build_elkin_neiman_sparse_spanner(community_graph, seed=3)
    assert result.spanner.is_subgraph_of(community_graph)
    assert same_component_structure(community_graph, result.spanner)


def test_reproducible_for_fixed_seed():
    graph = gnp_random_graph(30, 0.15, seed=8)
    a = build_elkin_neiman_sparse_spanner(graph, seed=11)
    b = build_elkin_neiman_sparse_spanner(graph, seed=11)
    assert a.spanner == b.spanner


def test_different_seeds_usually_differ():
    graph = planted_partition_graph(4, 8, 0.6, 0.05, seed=1)
    a = build_elkin_neiman_sparse_spanner(graph, seed=0)
    b = build_elkin_neiman_sparse_spanner(graph, seed=1)
    assert a.spanner != b.spanner or a.phases != b.phases or a.details != b.details


def test_seed_recorded_in_details():
    graph = gnp_random_graph(24, 0.2, seed=2)
    result = build_elkin_neiman_sparse_spanner(graph, seed=5)
    assert result.details["seed"] == 5
    assert len(result.phases) == 4  # levels + 1
