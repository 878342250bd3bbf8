"""Tests for the greedy multiplicative spanner baseline."""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_stretch
from repro.baselines import build_greedy_spanner
from repro.graphs import complete_graph, cycle_graph, gnp_random_graph, same_component_structure


@pytest.mark.parametrize("stretch", [1, 3, 5])
def test_stretch_guarantee(stretch):
    graph = gnp_random_graph(35, 0.15, seed=2)
    result = build_greedy_spanner(graph, stretch)
    report = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert report.satisfies_guarantee


def test_stretch_one_keeps_all_edges(small_random):
    result = build_greedy_spanner(small_random, 1)
    assert result.spanner == small_random


def test_size_bound_for_stretch_3():
    """A greedy 3-spanner has girth > 4, hence at most ~n^{1.5} edges."""
    graph = complete_graph(30)
    result = build_greedy_spanner(graph, 3)
    assert result.num_edges <= 30 ** 1.5 + 30


def test_connectivity_preserved(community_graph):
    result = build_greedy_spanner(community_graph, 5)
    assert same_component_structure(community_graph, result.spanner)


def test_cycle_drops_no_edges_when_stretch_small():
    graph = cycle_graph(10)
    result = build_greedy_spanner(graph, 3)
    # removing any cycle edge forces a detour of length 9 > 3
    assert result.num_edges == 10


def test_cycle_drops_one_edge_when_stretch_huge():
    graph = cycle_graph(10)
    result = build_greedy_spanner(graph, 9)
    assert result.num_edges == 9


def test_invalid_stretch_rejected(small_random):
    with pytest.raises(ValueError):
        build_greedy_spanner(small_random, 0)


def test_deterministic(small_random):
    a = build_greedy_spanner(small_random, 5)
    b = build_greedy_spanner(small_random, 5)
    assert a.spanner == b.spanner
