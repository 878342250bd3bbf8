"""Cross-validation: the distributed engine agrees with the centralized one.

The two engines share the phase logic but exchange information very
differently (message passing with truncation vs. global knowledge); the paper
guarantees they agree on all *structural* quantities -- popular sets, ruling
sets, cluster collections -- and both must satisfy the same guarantees.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import build_spanner
from repro.graphs import (
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    planted_partition_graph,
    sparse_gnp_random_graph,
)

GRAPHS = {
    "gnp": gnp_random_graph(40, 0.1, seed=7),
    "grid": grid_graph(6, 6),
    "cycle": cycle_graph(15),
    "planted": planted_partition_graph(4, 8, 0.6, 0.04, seed=4),
    # The graph of the golden distributed build (test_golden_run.py).
    "gnp120": gnp_random_graph(120, 0.05, seed=21),
}


@pytest.fixture(params=sorted(GRAPHS.keys()))
def graph(request):
    return GRAPHS[request.param]


@pytest.fixture
def both_results(graph, default_params):
    centralized = build_spanner(graph, parameters=default_params, engine="centralized")
    distributed = build_spanner(graph, parameters=default_params, engine="distributed")
    return centralized, distributed


def test_popular_sets_match(both_results):
    centralized, distributed = both_results
    for rc, rd in zip(centralized.phase_records, distributed.phase_records):
        assert rc.popular_centers == rd.popular_centers


def test_ruling_sets_match(both_results):
    centralized, distributed = both_results
    for rc, rd in zip(centralized.phase_records, distributed.phase_records):
        assert rc.ruling_set == rd.ruling_set


def test_cluster_collections_match(both_results):
    centralized, distributed = both_results
    assert len(centralized.cluster_history) == len(distributed.cluster_history)
    for pc, pd in zip(centralized.cluster_history, distributed.cluster_history):
        assert pc.centers() == pd.centers()
        assert pc.vertex_to_center() == pd.vertex_to_center()


def test_unclustered_collections_match(both_results):
    centralized, distributed = both_results
    for uc, ud in zip(centralized.unclustered_history, distributed.unclustered_history):
        assert uc.centers() == ud.centers()
    for result in both_results:
        assert result.unclustered_partitions_vertices()
        assert result.num_edges > 0


def test_interconnection_pairs_match(both_results):
    centralized, distributed = both_results
    for rc, rd in zip(centralized.phase_records, distributed.phase_records):
        assert sorted(rc.interconnection_pairs) == sorted(rd.interconnection_pairs)


def test_edge_counts_are_close(both_results):
    """Both engines add shortest paths for the same pairs; tie-breaking may differ slightly."""
    centralized, distributed = both_results
    assert centralized.num_edges <= distributed.num_edges * 1.5 + 5
    assert distributed.num_edges <= centralized.num_edges * 1.5 + 5


def test_engines_agree_at_benchmark_scale():
    """The ``congest-4k`` benchmark graph (n=4096, expected degree 16, seed 3).

    The small graphs above never reach the later phases' ruling sets and
    forests at scale; here every phase must agree on every structural set.
    """
    graph = sparse_gnp_random_graph(4096, 16 / 4095, seed=3)
    centralized = repro.build("new-centralized", graph, seed=3).source
    distributed = repro.build("new-distributed", graph, seed=3).source
    assert len(centralized.phase_records) == len(distributed.phase_records)
    for rc, rd in zip(centralized.phase_records, distributed.phase_records):
        assert rc.popular_centers == rd.popular_centers
        assert rc.ruling_set == rd.ruling_set
        assert rc.superclustered_centers == rd.superclustered_centers
        assert sorted(rc.interconnection_pairs) == sorted(rd.interconnection_pairs)
    assert len(centralized.cluster_history) == len(distributed.cluster_history)
    for pc, pd in zip(centralized.cluster_history, distributed.cluster_history):
        assert pc.vertex_to_center() == pd.vertex_to_center()
    assert any(record.ruling_set for record in distributed.phase_records)
