"""Tests for the Baswana-Sen multiplicative spanner baseline."""

from __future__ import annotations

import pytest

from repro import StretchGuarantee
from repro.analysis import evaluate_stretch
from repro.baselines import build_baswana_sen_spanner
from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    planted_partition_graph,
    same_component_structure,
)


@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_multiplicative_stretch_guarantee(kappa, seed):
    graph = gnp_random_graph(45, 0.12, seed=seed + 10)
    result = build_baswana_sen_spanner(graph, kappa, seed=seed)
    stretch = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert stretch.satisfies_guarantee
    assert stretch.max_multiplicative <= 2 * kappa - 1 + 1e-9


def test_spanner_is_subgraph(grid_5x5):
    result = build_baswana_sen_spanner(grid_5x5, 3, seed=2)
    assert result.spanner.is_subgraph_of(grid_5x5)


def test_connectivity_preserved():
    graph = planted_partition_graph(4, 8, 0.7, 0.05, seed=3)
    result = build_baswana_sen_spanner(graph, 3, seed=5)
    assert same_component_structure(graph, result.spanner)


def test_kappa_one_keeps_every_edge(small_random):
    result = build_baswana_sen_spanner(small_random, 1, seed=0)
    assert result.spanner == small_random


def test_dense_graph_is_sparsified():
    graph = complete_graph(40)
    result = build_baswana_sen_spanner(graph, 3, seed=1)
    assert result.num_edges < graph.num_edges


def test_empty_graph():
    result = build_baswana_sen_spanner(Graph(0), 3)
    assert result.num_edges == 0


def test_invalid_kappa_rejected(small_random):
    with pytest.raises(ValueError):
        build_baswana_sen_spanner(small_random, 0)


def test_result_metadata(small_random):
    result = build_baswana_sen_spanner(small_random, 3, seed=7)
    assert result.algorithm == "baswana-sen"
    assert result.guarantee == StretchGuarantee(5.0, 0.0)
    assert result.details["kappa"] == 3
    assert result.to_dict()["guarantee"]["additive"] == 0.0
