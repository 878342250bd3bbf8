"""Integration tests for the centralized reference engine.

Every exact statement of the paper is verified on concrete runs over a range
of graph families and parameter settings via ``repro.analysis.verify_run``,
plus end-to-end stretch, size and subgraph checks.
"""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_stretch, size_report, verify_run
from repro.core import SpannerParameters, build_spanner
from repro.graphs import (
    Graph,
    complete_graph,
    empty_graph,
    path_graph,
    star_graph,
)

PARAMETER_SETTINGS = [
    SpannerParameters.from_internal_epsilon(0.25, kappa=3, rho=1 / 3),
    SpannerParameters.from_internal_epsilon(0.5, kappa=2, rho=0.5),
    SpannerParameters.from_internal_epsilon(0.2, kappa=4, rho=0.4),
]


@pytest.mark.parametrize("parameters", PARAMETER_SETTINGS, ids=["k3", "k2", "k4"])
def test_all_lemmas_hold_on_every_graph_family(any_graph, parameters):
    result = build_spanner(any_graph, parameters=parameters)
    report = verify_run(result)
    assert report.all_passed, [f"{c.name}: {c.details}" for c in report.failures()]


@pytest.mark.parametrize("parameters", PARAMETER_SETTINGS, ids=["k3", "k2", "k4"])
def test_stretch_guarantee_holds_exactly(any_graph, parameters):
    result = build_spanner(any_graph, parameters=parameters)
    stretch = evaluate_stretch(any_graph, result.spanner, guarantee=parameters.stretch_bound())
    assert stretch.satisfies_guarantee, stretch.violations[:3]


def test_spanner_is_subgraph_and_preserves_components(medium_random, default_params):
    result = build_spanner(medium_random, parameters=default_params)
    assert result.spanner.is_subgraph_of(medium_random)
    report = verify_run(result)
    assert report.by_name("connectivity-preserved").passed


def test_size_within_theoretical_bound(medium_random, default_params):
    result = build_spanner(medium_random, parameters=default_params)
    assert size_report(result).within_bound


def test_unclustered_collections_partition_vertices(community_graph, default_params):
    result = build_spanner(community_graph, parameters=default_params)
    assert result.unclustered_partitions_vertices()


def test_phase_records_cover_all_phases(medium_random, default_params):
    result = build_spanner(medium_random, parameters=default_params)
    assert [r.index for r in result.phase_records] == list(default_params.phases())
    assert result.phase(0).num_clusters == medium_random.num_vertices
    with pytest.raises(KeyError):
        result.phase(99)


def test_cluster_count_shrinks_by_degree_threshold(community_graph, default_params):
    """|P_{i+1}| <= |P_i| / deg_i -- the counting heart of Lemmas 2.10/2.11."""
    result = build_spanner(community_graph, parameters=default_params)
    for current, nxt in zip(result.phase_records, result.phase_records[1:]):
        if nxt.num_clusters:
            assert nxt.num_clusters <= current.num_clusters / current.degree_threshold + 1e-9


def test_concluding_phase_has_no_popular_clusters(community_graph, default_params):
    result = build_spanner(community_graph, parameters=default_params)
    assert result.phase_records[-1].num_popular == 0


def test_no_superclustering_in_concluding_phase(community_graph, default_params):
    result = build_spanner(community_graph, parameters=default_params)
    last = result.phase_records[-1]
    assert last.ruling_set_size == 0
    assert last.superclustering_edges == 0
    assert last.num_unclustered == last.num_clusters


class TestDegenerateGraphs:
    def test_empty_graph(self, default_params):
        result = build_spanner(empty_graph(6), parameters=default_params)
        assert result.num_edges == 0
        assert result.unclustered_partitions_vertices()

    def test_single_vertex(self, default_params):
        result = build_spanner(Graph(1), parameters=default_params)
        assert result.num_edges == 0

    def test_zero_vertices(self, default_params):
        result = build_spanner(Graph(0), parameters=default_params)
        assert result.num_edges == 0

    def test_single_edge(self, default_params):
        result = build_spanner(Graph(2, [(0, 1)]), parameters=default_params)
        assert result.spanner.has_edge(0, 1)

    def test_star_keeps_all_edges_reachable(self, default_params):
        graph = star_graph(8)
        result = build_spanner(graph, parameters=default_params)
        stretch = evaluate_stretch(graph, result.spanner, guarantee=default_params.stretch_bound())
        assert stretch.satisfies_guarantee

    def test_complete_graph_is_heavily_sparsified(self, default_params):
        graph = complete_graph(30)
        result = build_spanner(graph, parameters=default_params)
        assert result.num_edges < graph.num_edges
        assert verify_run(result).all_passed

    def test_disconnected_graph(self, default_params):
        graph = Graph(10, [(0, 1), (1, 2), (5, 6), (6, 7), (7, 8)])
        result = build_spanner(graph, parameters=default_params)
        report = verify_run(result)
        assert report.all_passed
        stretch = evaluate_stretch(graph, result.spanner, guarantee=default_params.stretch_bound())
        assert stretch.disconnected_mismatches == 0

    def test_tree_input_keeps_every_edge_distance(self, default_params):
        graph = path_graph(20)
        result = build_spanner(graph, parameters=default_params)
        # A path has no redundant edges; connectivity preservation forces all of them.
        assert result.num_edges == graph.num_edges


class TestUserEpsilonMode:
    def test_user_epsilon_guarantee(self, small_random):
        result = build_spanner(small_random, epsilon=0.5, kappa=3, rho=1 / 3)
        guarantee = result.parameters.stretch_bound()
        assert guarantee.multiplicative <= 1.5 + 1e-6
        stretch = evaluate_stretch(small_random, result.spanner, guarantee=guarantee)
        assert stretch.satisfies_guarantee

    def test_defaults_produce_valid_run(self, small_random):
        result = build_spanner(small_random)
        assert verify_run(result).all_passed
