"""Tests for the deterministic linear-size-schedule spanner (Elkin-Matar)."""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_stretch
from repro.algorithms import get_spec
from repro.baselines import build_elkin_matar_spanner
from repro.baselines.cluster_scan import sparse_degree_threshold, sparse_schedules
from repro.graphs import gnp_random_graph, grid_graph, same_component_structure


def test_schedules_shape_and_monotonicity():
    radii, deltas = sparse_schedules(0.5, 3)
    assert len(radii) == len(deltas) == 4
    assert radii[0] == 0
    for i in range(3):
        assert radii[i + 1] == deltas[i] + radii[i]
        assert deltas[i] >= 1


def test_degree_threshold_doubly_exponential():
    # ceil(n^(2^i / 2^levels)) for n = 256, levels = 3.
    assert sparse_degree_threshold(3, 0, 256) == 2
    assert sparse_degree_threshold(3, 1, 256) == 4
    assert sparse_degree_threshold(3, 2, 256) == 16
    assert sparse_degree_threshold(3, 3, 256) == 256
    assert sparse_degree_threshold(3, 0, 1) == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        sparse_schedules(0.0, 3)
    with pytest.raises(ValueError):
        sparse_schedules(1.5, 3)
    with pytest.raises(ValueError):
        sparse_schedules(0.5, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stretch_guarantee_holds(seed):
    graph = gnp_random_graph(40, 0.1, seed=seed)
    result = build_elkin_matar_spanner(graph, epsilon=0.5, levels=3)
    assert result.guarantee == get_spec("elkin-matar-linear").declared_guarantee(
        {"epsilon": 0.5, "levels": 3}
    )
    stretch = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert stretch.satisfies_guarantee


def test_spanner_is_subgraph_preserving_components(community_graph):
    result = build_elkin_matar_spanner(community_graph)
    assert result.spanner.is_subgraph_of(community_graph)
    assert same_component_structure(community_graph, result.spanner)


def test_deterministic():
    graph = gnp_random_graph(36, 0.12, seed=7)
    a = build_elkin_matar_spanner(graph, epsilon=0.5, levels=2)
    b = build_elkin_matar_spanner(graph, epsilon=0.5, levels=2)
    assert a.spanner == b.spanner
    assert a.phases == b.phases
    assert a.details == b.details


def test_phase_stats_and_rounds_reported():
    result = build_elkin_matar_spanner(grid_graph(6, 6), epsilon=0.5, levels=3)
    phases = result.phases
    assert len(phases) == 4  # levels + 1
    assert result.nominal_rounds is not None and result.nominal_rounds > 0
    assert all("num_hosts" in stats for stats in phases[:-1])
