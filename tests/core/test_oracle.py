"""The spanner as an approximate distance oracle.

Near-additive spanners exist to answer distance queries on a sparser
subgraph: every spanner distance is at least the host distance and at most
``(1 + eps) * d + beta``.  These tests ask those queries directly of a built
spanner through its distance cache and BFS paths.
"""

from __future__ import annotations

import pytest

from repro.analysis import size_report
from repro.core import build_spanner
from repro.graphs import (
    INFINITY,
    Graph,
    clustered_path_graph,
    gnp_random_graph,
    shortest_path,
    single_source_distances,
)


@pytest.fixture(scope="module")
def run():
    graph = clustered_path_graph(6, 8)
    return build_spanner(graph, epsilon=0.5, kappa=3, rho=1 / 3)


def exact(graph, u, v):
    return single_source_distances(graph, u)[v]


def test_distance_respects_guarantee(run):
    guarantee = run.parameters.stretch_bound()
    spanner_cache = run.spanner.distance_cache()
    for u, v in [(0, 47), (0, 1), (3, 40), (10, 30)]:
        d = exact(run.graph, u, v)
        approx = spanner_cache.distance(u, v)
        assert approx >= d
        assert approx <= guarantee.multiplicative * d + guarantee.additive + 1e-9


def test_distances_from_matches_single_queries(run):
    vector = run.spanner.distance_cache().vector(0)
    assert vector[5] == run.spanner.distance_cache().distance(0, 5)
    assert len(vector) == run.graph.num_vertices


def test_path_is_valid_and_matches_distance(run):
    path = shortest_path(run.spanner, 0, 47)
    assert path[0] == 0 and path[-1] == 47
    for a, b in zip(path, path[1:]):
        assert run.spanner.has_edge(a, b)
    assert len(path) - 1 == run.spanner.distance_cache().distance(0, 47)


def test_disconnected_pairs():
    graph = Graph(4, [(0, 1), (2, 3)])
    run = build_spanner(graph)
    assert run.spanner.distance_cache().distance(0, 3) == INFINITY
    assert shortest_path(run.spanner, 0, 3) is None
    assert run.spanner.distance_cache().distance(0, 1) == 1


def test_error_bound_dominates_actual_error(run):
    # d_H - d_G <= (mult - 1) * d_H + add, read off the spanner side alone.
    guarantee = run.parameters.stretch_bound()
    for u, v in [(0, 47), (4, 44)]:
        approx = run.spanner.distance_cache().distance(u, v)
        bound = (guarantee.multiplicative - 1.0) * approx + guarantee.additive
        assert approx - exact(run.graph, u, v) <= bound + 1e-9


def test_compression_and_edge_count(run):
    report = size_report(run)
    assert 0 < report.density_ratio <= 1.0
    assert report.num_spanner_edges == run.spanner.num_edges == run.num_edges


def test_source_caching_returns_same_answers():
    graph = gnp_random_graph(40, 0.1, seed=3)
    spanner = build_spanner(graph).spanner
    cache = spanner.distance_cache()
    for v in (1, 7, 20):
        assert cache.distance(0, v) == cache.distance(0, v)
        assert cache.distance(0, v) == single_source_distances(spanner, 0)[v]
    assert 0 in cache


def test_distributed_engine_oracle():
    graph = gnp_random_graph(30, 0.12, seed=4)
    run = build_spanner(graph, engine="distributed")
    guarantee = run.parameters.stretch_bound()
    for v in (5, 15, 29):
        d = exact(graph, 0, v)
        approx = run.spanner.distance_cache().distance(0, v)
        if d == INFINITY:
            assert approx == INFINITY
        else:
            assert d <= approx <= guarantee.multiplicative * d + guarantee.additive + 1e-9
