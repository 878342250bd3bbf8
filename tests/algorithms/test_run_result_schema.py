"""Regression tests pinning the unified run-result serialization schema.

Every registered algorithm returns a :class:`~repro.algorithms.RunResult`,
and so does :func:`repro.build_spanner`, so one ``repro-run-result/v1``
schema covers every serialized run.  These tests pin
the exact key set, and the payload of every registered algorithm on two
fixed graphs, so neither can drift.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import RunResult, build, build_spanner, make_parameters
from repro.algorithms import RUN_RESULT_KEYS, RUN_RESULT_SCHEMA, algorithm_names
from repro.baselines import build_baswana_sen_spanner, build_greedy_spanner
from repro.graphs import clustered_path_graph, gnp_random_graph

#: The one schema every serialized run must emit, pinned key by key.
PINNED_KEYS = (
    "schema",
    "algorithm",
    "engine",
    "num_vertices",
    "num_graph_edges",
    "num_spanner_edges",
    "nominal_rounds",
    "guarantee",
    "phases",
    "details",
    "ledger",
)


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(30, 0.15, seed=4)


@pytest.fixture(scope="module")
def parameters():
    return make_parameters(0.25, 3, 1.0 / 3.0, epsilon_is_internal=True)


def test_pinned_keys_match_declared_constant():
    assert RUN_RESULT_KEYS == PINNED_KEYS


def _assert_unified(data, algorithm):
    assert tuple(data.keys()) == PINNED_KEYS
    assert data["schema"] == RUN_RESULT_SCHEMA
    assert data["algorithm"] == algorithm
    assert data["num_vertices"] == 30
    assert isinstance(data["num_graph_edges"], int)
    assert isinstance(data["num_spanner_edges"], int)
    guarantee = data["guarantee"]
    assert guarantee is None or set(guarantee) == {"multiplicative", "additive"}
    json.dumps(data)  # the whole record must be JSON-safe


def test_spanner_result_emits_unified_schema(graph, parameters):
    result = build_spanner(graph, parameters=parameters)
    data = result.to_dict()
    _assert_unified(data, "new-centralized")
    assert data["engine"] == "centralized"
    assert data["ledger"] is None
    assert len(data["phases"]) == parameters.num_phases
    assert data["details"]["edges_by_step"]["total"] == result.num_edges
    guarantee = parameters.stretch_bound()
    assert data["guarantee"] == {
        "multiplicative": guarantee.multiplicative,
        "additive": guarantee.additive,
    }


def test_distributed_spanner_result_emits_ledger(graph, parameters):
    result = build_spanner(graph, parameters=parameters, engine="distributed")
    data = result.to_dict()
    _assert_unified(data, "new-distributed")
    assert data["ledger"]["nominal_rounds"] == result.nominal_rounds


def test_baseline_result_emits_unified_schema(graph):
    result = build_greedy_spanner(graph, 5)
    data = result.to_dict()
    _assert_unified(data, "greedy")
    assert data["engine"] is None
    assert data["guarantee"] == {"multiplicative": 5.0, "additive": 0.0}
    assert data["details"]["stretch"] == 5


def test_baseline_phase_stats_land_in_phases_key(graph):
    from repro.baselines import build_elkin_neiman_spanner

    parameters = make_parameters(0.25, 3, 1.0 / 3.0, epsilon_is_internal=True)
    result = build_elkin_neiman_spanner(graph, parameters, seed=2)
    data = result.to_dict()
    _assert_unified(data, "elkin-neiman-2017")
    assert result.phases, "per-phase stats belong in phases, not details"
    assert data["phases"] == result.phases
    assert "phases" not in data["details"]


def test_facade_and_legacy_serializations_agree(graph):
    run = build("baswana-sen", graph, kappa=3, seed=7)
    direct = build_baswana_sen_spanner(graph, 3, seed=7)
    assert isinstance(direct, RunResult)
    assert direct == run
    assert direct.to_dict() == run.to_dict()


#: ``sha256(to_dict JSON + sorted edge list JSON)[:16]`` of every registered
#: algorithm on each of the fixed ``PIN_GRAPHS``, identical under every kernel
#: backend: any drift means a builder changed its payload or its spanner.
PINNED_PAYLOADS = {
    "baswana-sen": ("c00f4d4964c900b3", "210e1ac43a557756"),
    "eest-low-stretch-tree": ("2909514831d236f7", "4bfd777a373f081e"),
    "elkin-matar-linear": ("edb74528e4db126c", "6db968ff6066ae9d"),
    "elkin-mst-2017": ("db48fe7f4bb56bdf", "9b36b0191e86e14d"),
    "elkin-neiman-2017": ("0b99acc3025f27f9", "b2f12d0114f013db"),
    "elkin-neiman-sparse": ("9c7e5adda1a07161", "9dbff14e22e2b3c8"),
    "elkin-peleg-2001": ("c37a0d7edc56e155", "eb14ea62f8371358"),
    "elkin05-surrogate": ("dc6daab766c0533a", "cee00a9fef1f4cde"),
    "greedy": ("02e556f53fe6dda5", "251201ce62b45c42"),
    "new-centralized": ("52f2652cffb4432b", "f3dc1402c67508b6"),
    "new-distributed": ("a80bc84be3af9512", "9f3de8f61592539f"),
}

#: gnp-40 superclusters only in phase 0 for [EP01] and [EN17]; the clustered
#: path (n=160) superclusters in phases 0-1 for all four superclustering
#: baselines and in phase 2 for both Elkin-Neiman variants.
PIN_GRAPHS = (
    lambda: gnp_random_graph(40, 0.15, seed=4),
    lambda: clustered_path_graph(20, 8),
)


def test_every_registered_algorithm_has_a_pinned_payload():
    assert sorted(PINNED_PAYLOADS) == algorithm_names()


@pytest.mark.parametrize("name", sorted(PINNED_PAYLOADS))
def test_registered_payloads_are_pinned(name):
    digests = []
    for make_graph in PIN_GRAPHS:
        run = build(name, make_graph(), seed=3)
        payload = json.dumps(run.to_dict()) + json.dumps(sorted(run.spanner.edge_set()))
        digests.append(hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16])
    assert tuple(digests) == PINNED_PAYLOADS[name]
