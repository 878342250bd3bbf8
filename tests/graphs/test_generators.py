"""Unit tests for the graph generators / workload families."""

from __future__ import annotations

import pytest

from repro.graphs import (
    WORKLOAD_FAMILIES,
    barbell_graph,
    caterpillar_graph,
    clustered_path_graph,
    complete_graph,
    cycle_graph,
    diameter,
    empty_graph,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    is_connected,
    lollipop_graph,
    make_workload,
    path_graph,
    planted_partition_graph,
    preferential_attachment_graph,
    random_connected_graph,
    random_regular_like_graph,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.graphs.generators import disjoint_union


class TestDeterministicFamilies:
    def test_complete_graph(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert all(g.degree(v) == 5 for v in g.vertices())

    def test_empty_graph(self):
        assert empty_graph(7).num_edges == 0

    def test_path_and_cycle(self):
        assert path_graph(10).num_edges == 9
        assert cycle_graph(10).num_edges == 10
        assert cycle_graph(2).num_edges == 1  # degrades to a path

    def test_star(self):
        g = star_graph(5)
        assert g.num_edges == 5
        assert g.degree(0) == 5

    def test_grid_dimensions(self):
        g = grid_graph(4, 6)
        assert g.num_vertices == 24
        assert g.num_edges == 4 * 5 + 6 * 3
        assert diameter(g) == 3 + 5

    def test_torus_is_regular(self):
        g = torus_graph(4, 4)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_hypercube(self):
        g = hypercube_graph(4)
        assert g.num_vertices == 16
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert diameter(g) == 4

    def test_caterpillar(self):
        g = caterpillar_graph(5, 2)
        assert g.num_vertices == 15
        assert g.num_edges == 4 + 10
        assert is_connected(g)

    def test_barbell(self):
        g = barbell_graph(4, 3)
        assert g.num_vertices == 11
        assert is_connected(g)
        assert diameter(g) == 1 + 4 + 1

    def test_lollipop(self):
        g = lollipop_graph(4, 5)
        assert g.num_vertices == 9
        assert is_connected(g)

    def test_clustered_path(self):
        g = clustered_path_graph(4, 5)
        assert g.num_vertices == 20
        assert is_connected(g)
        # diameter: within-cluster 1, plus 3 bridges plus intra hops
        assert diameter(g) >= 4


class TestRandomFamilies:
    def test_gnp_reproducible(self):
        assert gnp_random_graph(30, 0.2, seed=5) == gnp_random_graph(30, 0.2, seed=5)
        assert gnp_random_graph(30, 0.2, seed=5) != gnp_random_graph(30, 0.2, seed=6)

    def test_gnp_extreme_probabilities(self):
        assert gnp_random_graph(10, 0.0, seed=0).num_edges == 0
        assert gnp_random_graph(10, 1.0, seed=0).num_edges == 45

    def test_gnp_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gnp_random_graph(10, 1.5)

    def test_gnm_exact_edge_count(self):
        g = gnm_random_graph(25, 60, seed=2)
        assert g.num_edges == 60

    def test_gnm_rejects_impossible_edge_count(self):
        with pytest.raises(ValueError):
            gnm_random_graph(4, 10)

    def test_random_connected_is_connected(self):
        for seed in range(3):
            g = random_connected_graph(40, 30, seed=seed)
            assert is_connected(g)

    def test_random_tree_has_n_minus_1_edges(self):
        g = random_tree(25, seed=9)
        assert g.num_edges == 24
        assert is_connected(g)

    def test_random_tree_is_seeded(self):
        assert random_tree(25, seed=9) == random_tree(25, seed=9)
        assert random_tree(25, seed=9) != random_tree(25, seed=10)

    def test_random_connected_is_tree_plus_chords(self):
        # The chords are drawn after the tree from the same stream, so the
        # seeded tree is a subgraph of the graph with chords.
        tree = random_tree(30, seed=2)
        graph = random_connected_graph(30, 10, seed=2)
        assert graph.num_edges == tree.num_edges + 10
        assert tree.is_subgraph_of(graph)

    def test_regular_like_degree_bounded(self):
        g = random_regular_like_graph(30, 4, seed=1)
        assert g.max_degree() <= 4
        assert g.num_edges > 0

    def test_planted_partition_structure(self):
        g = planted_partition_graph(4, 10, 1.0, 0.0, seed=0)
        # p_intra=1, p_inter=0: four disjoint cliques
        assert g.num_edges == 4 * 45
        from repro.graphs import num_components

        assert num_components(g) == 4

    def test_preferential_attachment(self):
        g = preferential_attachment_graph(40, 2, seed=3)
        assert is_connected(g)
        assert g.num_edges >= 39

    def test_preferential_attachment_rejects_zero_m(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(10, 0)


class TestCombinators:
    def test_disjoint_union(self):
        g = disjoint_union([path_graph(3), cycle_graph(4)])
        assert g.num_vertices == 7
        assert g.num_edges == 2 + 4
        assert not g.has_edge(2, 3)

    def test_disjoint_union_keeps_parts_apart(self):
        from repro.graphs import num_components

        g = disjoint_union([path_graph(3), cycle_graph(4), star_graph(2)])
        assert num_components(g) == 3
        assert g.degree(7) == 2 and g.has_edge(7, 9)

    def test_disjoint_union_of_nothing_is_empty(self):
        g = disjoint_union([])
        assert (g.num_vertices, g.num_edges) == (0, 0)


class TestWorkloadFactory:
    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_every_family_builds(self, family):
        g = make_workload(family, 48, seed=3)
        assert g.num_vertices > 0
        # no self-loops / duplicates by construction
        assert all(u != v for u, v in g.edges())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_workload("no-such-family", 10)

    def test_workload_respects_seed(self):
        assert make_workload("gnp", 40, seed=1) == make_workload("gnp", 40, seed=1)


class TestNewFamilies:
    def test_watts_strogatz_no_rewiring_is_ring_lattice(self):
        from repro.graphs import watts_strogatz_graph

        g = watts_strogatz_graph(20, nearest_neighbors=4, rewire_probability=0.0, seed=1)
        assert g.num_edges == 20 * 2  # k/2 = 2 edges per vertex
        assert is_connected(g)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_watts_strogatz_rewiring_is_seeded(self):
        from repro.graphs import watts_strogatz_graph

        a = watts_strogatz_graph(40, 4, 0.3, seed=7)
        b = watts_strogatz_graph(40, 4, 0.3, seed=7)
        c = watts_strogatz_graph(40, 4, 0.3, seed=8)
        assert a == b
        assert a != c

    def test_watts_strogatz_rejects_bad_probability(self):
        from repro.graphs import watts_strogatz_graph

        with pytest.raises(ValueError):
            watts_strogatz_graph(10, 4, 1.5)

    def test_random_geometric_radius_monotone(self):
        from repro.graphs import random_geometric_graph

        sparse = random_geometric_graph(60, radius=0.1, seed=3)
        dense = random_geometric_graph(60, radius=0.3, seed=3)
        assert sparse.num_edges <= dense.num_edges
        assert sparse.is_subgraph_of(dense)

    def test_random_geometric_extreme_radii(self):
        from repro.graphs import random_geometric_graph

        assert random_geometric_graph(20, radius=0.0, seed=1).num_edges == 0
        assert random_geometric_graph(20, radius=2.0, seed=1).num_edges == 190

    def test_multi_component_is_disconnected(self):
        from repro.graphs import multi_component_graph, num_components

        g = multi_component_graph(4, 12, seed=5)
        assert num_components(g) == 4

    def test_multi_component_rejects_zero_components(self):
        from repro.graphs import multi_component_graph

        with pytest.raises(ValueError):
            multi_component_graph(0, 5)


class TestScaleTierFamilies:
    """The PR 5 large-n generators: O(n + m) batched construction."""

    def test_sparse_gnp_matches_dense_gnp_statistics(self):
        from repro.graphs import sparse_gnp_random_graph

        # Same distribution as gnp_random_graph (different stream): compare
        # the mean edge count over a few seeds against the expectation.
        n, p = 400, 0.02
        expected = p * n * (n - 1) / 2
        mean = sum(
            sparse_gnp_random_graph(n, p, seed=s).num_edges for s in range(8)
        ) / 8
        assert 0.8 * expected <= mean <= 1.2 * expected

    def test_sparse_gnp_is_seeded_and_validates(self):
        from repro.graphs import sparse_gnp_random_graph

        assert sparse_gnp_random_graph(200, 0.05, seed=4) == sparse_gnp_random_graph(
            200, 0.05, seed=4
        )
        assert sparse_gnp_random_graph(200, 0.05, seed=4) != sparse_gnp_random_graph(
            200, 0.05, seed=5
        )
        with pytest.raises(ValueError):
            sparse_gnp_random_graph(10, 1.5)

    def test_sparse_gnp_extremes(self):
        from repro.graphs import sparse_gnp_random_graph

        assert sparse_gnp_random_graph(30, 0.0, seed=1).num_edges == 0
        assert sparse_gnp_random_graph(30, 1.0, seed=1).num_edges == 435

    def test_powerlaw_cluster_edge_count_and_hubs(self):
        from repro.graphs import powerlaw_cluster_graph

        # Each arriving vertex v wires exactly min(m, v) edges.
        n, m = 300, 2
        g = powerlaw_cluster_graph(n, m, 0.3, seed=9)
        assert g.num_edges == sum(min(m, v) for v in range(1, n))
        # Preferential attachment concentrates degree far above the mean.
        assert g.max_degree() >= 5 * (2 * g.num_edges / n)

    def test_powerlaw_cluster_is_seeded_and_validates(self):
        from repro.graphs import powerlaw_cluster_graph

        assert powerlaw_cluster_graph(120, 2, 0.5, seed=2) == powerlaw_cluster_graph(
            120, 2, 0.5, seed=2
        )
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(10, 0)
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(10, 2, triangle_probability=1.5)

    def test_hyperbolic_like_is_connected_with_powerlaw_hubs(self):
        from repro.graphs import hyperbolic_like_graph, num_components

        g = hyperbolic_like_graph(500, avg_degree=6.0, gamma=2.5, seed=3)
        # The angular ring alone keeps the graph connected.
        assert num_components(g) == 1
        # Vertex 0 carries the largest weight: it must be a genuine hub.
        assert g.degree(0) >= 3 * (2 * g.num_edges / g.num_vertices)

    def test_hyperbolic_like_is_seeded_and_validates(self):
        from repro.graphs import hyperbolic_like_graph

        assert hyperbolic_like_graph(100, seed=6) == hyperbolic_like_graph(100, seed=6)
        assert hyperbolic_like_graph(100, seed=6) != hyperbolic_like_graph(100, seed=7)
        with pytest.raises(ValueError):
            hyperbolic_like_graph(10, avg_degree=-1.0)
        with pytest.raises(ValueError):
            hyperbolic_like_graph(10, gamma=2.0)

    def test_batched_grid_and_torus_shapes_unchanged(self):
        from repro.graphs import grid_graph, torus_graph

        grid = grid_graph(4, 5)
        assert grid.num_vertices == 20
        assert grid.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical
        torus = torus_graph(4, 5)
        assert torus.num_edges == grid.num_edges + 4 + 5  # wrap edges
        assert grid.is_subgraph_of(torus)

    @pytest.mark.parametrize("family", ["sparse_gnp", "powerlaw", "hyperbolic"])
    def test_scale_tier_workloads_build_through_the_factory(self, family):
        g = make_workload(family, 256, seed=11)
        assert g.num_vertices == 256
        assert g.num_edges >= 256  # sparse but not degenerate
        assert g == make_workload(family, 256, seed=11)
