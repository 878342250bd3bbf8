"""Integration tests for the CONGEST-simulated engine."""

from __future__ import annotations

import json

import pytest

import repro
from repro.analysis import evaluate_stretch, verify_run
from repro.congest import Simulator
from repro.core import build_spanner
from repro.graphs import Graph, cycle_graph, gnp_random_graph, grid_graph, planted_partition_graph
from repro.primitives.exploration import run_bounded_exploration

SMALL_GRAPHS = {
    "cycle": cycle_graph(12),
    "grid": grid_graph(6, 6),
    "gnp": gnp_random_graph(45, 0.08, seed=3),
    "planted": planted_partition_graph(4, 9, 0.6, 0.03, seed=1),
    "disconnected": Graph(12, [(0, 1), (1, 2), (2, 3), (6, 7), (7, 8), (9, 10)]),
}


@pytest.fixture(params=sorted(SMALL_GRAPHS.keys()))
def small_graph(request):
    return SMALL_GRAPHS[request.param]


def test_all_lemmas_hold(small_graph, default_params):
    result = build_spanner(small_graph, parameters=default_params, engine="distributed")
    report = verify_run(result)
    assert report.all_passed, [f"{c.name}: {c.details}" for c in report.failures()]


def test_stretch_guarantee_holds(small_graph, default_params):
    result = build_spanner(small_graph, parameters=default_params, engine="distributed")
    stretch = evaluate_stretch(small_graph, result.spanner, guarantee=default_params.stretch_bound())
    assert stretch.satisfies_guarantee


def test_congestion_never_exceeds_one_message_per_edge(small_graph, default_params):
    simulator = Simulator(small_graph, strict_congestion=True)
    result = build_spanner(
        small_graph, parameters=default_params, engine="distributed", simulator=simulator
    )
    assert result.ledger is simulator.ledger
    assert simulator.ledger.max_edge_congestion <= 1


def test_a_simulator_that_has_run_protocols_is_rejected():
    # Its ledger would count the earlier rounds as the new run's.
    graph = gnp_random_graph(40, 0.15, seed=1)
    simulator = Simulator(graph)
    repro.build("new-distributed", graph, simulator=simulator)
    with pytest.raises(ValueError, match="already run protocols"):
        repro.build("new-distributed", graph, simulator=simulator)


def test_a_run_keeps_its_payload_when_its_simulator_runs_again():
    graph = gnp_random_graph(40, 0.15, seed=1)
    simulator = Simulator(graph)
    run = repro.build("new-distributed", graph, simulator=simulator)
    payload = json.dumps(run.to_dict(), sort_keys=True)
    charges = len(simulator.ledger.charges)
    run_bounded_exploration(simulator, range(graph.num_vertices), depth=2, cap=3)
    assert len(simulator.ledger.charges) > charges
    assert json.dumps(run.to_dict(), sort_keys=True) == payload


def test_nominal_rounds_within_theoretical_bound(small_graph, default_params):
    result = build_spanner(small_graph, parameters=default_params, engine="distributed")
    assert result.nominal_rounds <= default_params.round_bound(small_graph.num_vertices)


def test_simulated_rounds_much_smaller_than_nominal(default_params):
    graph = gnp_random_graph(40, 0.1, seed=5)
    result = build_spanner(graph, parameters=default_params, engine="distributed")
    assert result.ledger is not None
    assert result.ledger.simulated_rounds <= result.ledger.nominal_rounds


def test_ledger_phases_cover_all_steps(default_params):
    graph = planted_partition_graph(4, 8, 0.6, 0.05, seed=2)
    result = build_spanner(graph, parameters=default_params, engine="distributed")
    labels = {charge.label.split(":")[1] for charge in result.ledger.charges if ":" in charge.label}
    assert "explore" in labels
    assert "interconnect" in labels
    # superclustering steps appear whenever popular clusters existed
    if any(r.num_popular for r in result.phase_records):
        assert "ruling-set" in labels or "forest" in labels


def test_external_simulator_must_match_graph(default_params):
    graph_a = cycle_graph(8)
    graph_b = cycle_graph(9)
    with pytest.raises(ValueError):
        build_spanner(graph_a, parameters=default_params, engine="distributed", simulator=Simulator(graph_b))


def test_second_parameter_setting(default_params, tight_params):
    graph = grid_graph(5, 5)
    result = build_spanner(graph, parameters=tight_params, engine="distributed")
    assert verify_run(result).all_passed
