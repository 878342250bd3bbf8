"""Unit tests for exact / sampled distance computations."""

from __future__ import annotations

import pytest

from repro.graphs import (
    INFINITY,
    DistanceCache,
    Graph,
    cycle_graph,
    diameter,
    distance_histogram,
    eccentricity,
    grid_graph,
    path_graph,
    radius,
    sample_vertex_pairs,
    single_source_distances,
)


class TestSingleSource:
    def test_dense_vector(self):
        g = Graph(4, [(0, 1), (1, 2)])
        vec = single_source_distances(g, 0)
        # list() normalizes the backend-dependent container (list vs numpy
        # array); element values are identical on both kernel backends.
        assert list(vec) == [0.0, 1.0, 2.0, INFINITY]

    def test_pairwise_distance(self, cycle_8):
        cache = DistanceCache(cycle_8)
        assert cache.distance(0, 4) == 4
        assert cache.distance(0, 7) == 1

    def test_pairwise_disconnected(self):
        g = Graph(3, [(0, 1)])
        assert DistanceCache(g).distance(0, 2) == INFINITY


def all_pairs(graph):
    return [single_source_distances(graph, s) for s in graph.vertices()]


class TestAllPairs:
    def test_matrix_symmetry(self, grid_5x5):
        matrix = all_pairs(grid_5x5)
        for u in range(25):
            assert matrix[u][u] == 0
            for v in range(25):
                assert matrix[u][v] == matrix[v][u]

    def test_matrix_matches_manhattan_distance_on_grid(self):
        g = grid_graph(3, 3)
        matrix = all_pairs(g)
        assert matrix[0][8] == 4
        assert matrix[0][2] == 2

    def test_triangle_inequality(self, small_random):
        matrix = all_pairs(small_random)
        n = small_random.num_vertices
        for u in range(0, n, 7):
            for v in range(0, n, 5):
                for w in range(0, n, 11):
                    if matrix[u][v] != INFINITY and matrix[v][w] != INFINITY:
                        assert matrix[u][w] <= matrix[u][v] + matrix[v][w]


class TestGlobalMeasures:
    def test_path_diameter_and_radius(self):
        g = path_graph(7)
        assert diameter(g) == 6
        assert radius(g) == 3

    def test_cycle_eccentricity(self):
        g = cycle_graph(8)
        assert eccentricity(g, 0) == 4
        assert diameter(g) == 4

    def test_diameter_of_disconnected_graph_is_per_component(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert diameter(g) == 2

    def test_empty_graph_measures(self):
        assert diameter(Graph(0)) == 0
        assert radius(Graph(0)) == 0

    def test_average_distance_on_triangle(self, triangle):
        # All three pairs are one hop apart: the mean distance is 1.
        histogram = distance_histogram(triangle)
        assert histogram == {1: 3}
        assert sum(d * c for d, c in histogram.items()) / sum(histogram.values()) == 1.0

    def test_average_distance_with_explicit_pairs(self, path_6):
        cache = path_6.distance_cache()
        pairs = [(0, 5), (0, 1)]
        assert sum(cache.distance(u, v) for u, v in pairs) / len(pairs) == 3.0


class TestSampling:
    def test_sampled_pairs_are_distinct_and_in_range(self):
        pairs = sample_vertex_pairs(30, 50, seed=1)
        assert len(pairs) == 50
        assert len(set(pairs)) == 50
        for u, v in pairs:
            assert 0 <= u < v < 30

    def test_sampling_is_deterministic(self):
        assert sample_vertex_pairs(50, 20, seed=3) == sample_vertex_pairs(50, 20, seed=3)
        assert sample_vertex_pairs(50, 20, seed=3) != sample_vertex_pairs(50, 20, seed=4)

    def test_sampling_caps_at_total_pairs(self):
        pairs = sample_vertex_pairs(4, 100, seed=0)
        assert len(pairs) == 6

    def test_sampling_degenerate_cases(self):
        assert sample_vertex_pairs(1, 10) == []
        assert sample_vertex_pairs(10, 0) == []

    def test_distance_histogram(self, path_6):
        histogram = distance_histogram(path_6)
        assert histogram[1] == 5
        assert histogram[5] == 1
        assert 0 not in histogram

    def test_sampling_dense_requests_stay_distinct(self):
        # Above a 50% fill ratio the sampler switches from rejection sampling
        # (which thrashes near saturation) to shuffling the pair space.
        max_pairs = 12 * 11 // 2
        for requested in (max_pairs, max_pairs - 1, max_pairs // 2 + 1):
            pairs = sample_vertex_pairs(12, requested, seed=5)
            assert len(pairs) == requested
            assert len(set(pairs)) == requested
            for u, v in pairs:
                assert 0 <= u < v < 12

    def test_dense_sampling_is_deterministic(self):
        assert sample_vertex_pairs(10, 44, seed=2) == sample_vertex_pairs(10, 44, seed=2)
        assert sample_vertex_pairs(10, 44, seed=2) != sample_vertex_pairs(10, 44, seed=3)

    def test_sampled_histogram_counts_unordered_pairs(self, path_6):
        # With k sampled sources on a connected n-vertex graph the histogram
        # must cover k*(k-1)/2 source-source pairs plus k*(n-k) source-other
        # pairs, each exactly once.
        histogram = distance_histogram(path_6, max_sources=3, seed=1)
        assert sum(histogram.values()) == 3 + 3 * 3
        assert 0 not in histogram

    def test_sampled_histogram_with_all_sources_matches_full(self, path_6):
        full = distance_histogram(path_6)
        sampled = distance_histogram(path_6, max_sources=6)
        assert sampled == full


class TestDistanceCache:
    def test_vectors_match_single_source(self, grid_5x5):
        cache = grid_5x5.distance_cache()
        for source in (0, 7, 24):
            assert list(cache.vector(source)) == list(
                single_source_distances(grid_5x5, source)
            )

    def test_vector_is_memoized(self, grid_5x5):
        cache = grid_5x5.distance_cache()
        assert cache.vector(3) is cache.vector(3)
        assert len(cache) == 1

    def test_shared_instance_per_graph(self, grid_5x5):
        assert grid_5x5.distance_cache() is grid_5x5.distance_cache()

    def test_mutation_invalidates_cached_vectors(self):
        graph = path_graph(6)
        cache = graph.distance_cache()
        assert cache.vector(0)[5] == 5.0
        graph.add_edge(0, 5)
        # The graph drops its cache reference on mutation...
        assert graph.distance_cache().vector(0)[5] == 1.0
        # ...and a stale handle self-heals via the version guard.
        assert cache.vector(0)[5] == 1.0

    def test_distance_helper(self, cycle_8):
        cache = DistanceCache(cycle_8)
        assert cache.distance(0, 4) == 4.0
        assert cache.distance(0, 7) == 1.0

    def test_clear_drops_vectors(self, grid_5x5):
        cache = grid_5x5.distance_cache()
        cache.vector(0)
        cache.clear()
        assert len(cache) == 0


class TestDistanceCacheLRU:
    """The opt-in entry cap (PR 9's serving tier); unbounded stays the default."""

    def test_unbounded_by_default(self, grid_5x5):
        cache = DistanceCache(grid_5x5)
        assert cache.max_entries is None
        for source in range(20):
            cache.vector(source)
        assert len(cache) == 20

    def test_cap_evicts_least_recently_used(self, grid_5x5):
        cache = DistanceCache(grid_5x5, max_entries=2)
        cache.vector(0)
        cache.vector(1)
        cache.vector(2)  # evicts 0
        assert 0 not in cache
        assert 1 in cache and 2 in cache
        assert len(cache) == 2

    def test_hit_refreshes_recency(self, grid_5x5):
        cache = DistanceCache(grid_5x5, max_entries=2)
        cache.vector(0)
        cache.vector(1)
        cache.vector(0)  # 1 is now the LRU entry
        cache.vector(2)  # evicts 1, not 0
        assert 0 in cache and 2 in cache
        assert 1 not in cache

    def test_capped_hits_still_memoize(self, grid_5x5):
        cache = DistanceCache(grid_5x5, max_entries=4)
        assert cache.vector(3) is cache.vector(3)

    def test_set_max_entries_trims_immediately(self, grid_5x5):
        cache = DistanceCache(grid_5x5)
        for source in range(5):
            cache.vector(source)
        cache.set_max_entries(2)
        assert len(cache) == 2
        # The two most recently inserted survive.
        assert 3 in cache and 4 in cache

    def test_uncapping_restores_unbounded_growth(self, grid_5x5):
        cache = DistanceCache(grid_5x5, max_entries=1)
        cache.set_max_entries(None)
        for source in range(6):
            cache.vector(source)
        assert len(cache) == 6

    def test_set_max_entries_validation(self, grid_5x5):
        cache = DistanceCache(grid_5x5)
        with pytest.raises(ValueError):
            cache.set_max_entries(0)
        with pytest.raises(ValueError):
            DistanceCache(grid_5x5, max_entries=-1)

    def test_contains_respects_mutation(self):
        graph = path_graph(6)
        cache = DistanceCache(graph, max_entries=8)
        cache.vector(0)
        assert 0 in cache
        graph.add_edge(0, 5)
        # Memoized but stale: the version guard makes it a miss.
        assert 0 not in cache
        assert cache.vector(0)[5] == 1.0
        assert 0 in cache

    def test_capped_vectors_match_uncapped(self, grid_5x5):
        capped = DistanceCache(grid_5x5, max_entries=3)
        plain = DistanceCache(grid_5x5)
        for source in range(10):
            assert list(capped.vector(source)) == list(plain.vector(source))
