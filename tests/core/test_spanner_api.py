"""Tests for the public build_spanner / make_parameters API and result objects."""

from __future__ import annotations

import pytest

from repro import build_spanner, make_parameters
from repro.congest import Simulator
from repro.core import ENGINE_CENTRALIZED, ENGINE_DISTRIBUTED
from repro.graphs import gnp_random_graph


@pytest.fixture
def graph():
    return gnp_random_graph(35, 0.1, seed=1)


def test_make_parameters_user_mode():
    params = make_parameters(0.5, 3, 1 / 3)
    assert params.user_epsilon == 0.5
    assert params.stretch_bound().multiplicative <= 1.5 + 1e-6


def test_make_parameters_internal_mode():
    params = make_parameters(0.25, 3, 1 / 3, epsilon_is_internal=True)
    assert params.epsilon == 0.25
    assert params.user_epsilon is None


def test_unknown_engine_rejected(graph):
    with pytest.raises(ValueError):
        build_spanner(graph, engine="quantum")


def test_simulator_only_valid_for_distributed_engine(graph):
    with pytest.raises(ValueError):
        build_spanner(graph, engine=ENGINE_CENTRALIZED, simulator=Simulator(graph))


def test_explicit_parameters_override_scalars(graph, default_params):
    result = build_spanner(graph, epsilon=0.9, kappa=2, rho=0.5, parameters=default_params)
    assert result.parameters is default_params


def test_result_to_dict_round_trips_key_fields(graph, default_params):
    result = build_spanner(graph, parameters=default_params)
    data = result.to_dict()
    assert data["engine"] == ENGINE_CENTRALIZED
    assert data["num_vertices"] == graph.num_vertices
    assert data["num_spanner_edges"] == result.num_edges
    assert len(data["phases"]) == default_params.num_phases
    assert data["ledger"] is None


def test_result_to_dict_distributed_includes_ledger(graph, default_params):
    result = build_spanner(graph, parameters=default_params, engine=ENGINE_DISTRIBUTED)
    data = result.to_dict()
    assert data["ledger"] is not None
    assert data["ledger"]["nominal_rounds"] == result.nominal_rounds


def test_edges_by_step_sums_to_total(graph, default_params):
    result = build_spanner(graph, parameters=default_params)
    by_step = result.edges_by_step()
    assert by_step["total"] == result.num_edges
    assert by_step["superclustering"] + by_step["interconnection"] == by_step["total"]


def test_clusters_at_phase_accessors(graph, default_params):
    result = build_spanner(graph, parameters=default_params)
    assert len(result.cluster_history[0]) == graph.num_vertices
    assert len(result.unclustered_history[0]) == result.phase_records[0].num_unclustered


def test_top_level_package_exports():
    import repro

    assert repro.__version__
    assert callable(repro.build_spanner)
    assert callable(repro.build_spanner_centralized)
    assert callable(repro.build_spanner_distributed)
