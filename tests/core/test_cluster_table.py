"""Tests for the flat-array clustering core (:mod:`repro.core.cluster_table`).

Four layers of coverage:

* unit tests of the :class:`ClusterTable` invariants (singleton construction,
  O(1) queries, batched merge/retire semantics, version bumps, snapshot
  freezing);
* the :class:`FlatClusters` queries the analysis layer reads;
* a randomized cross-check: random merge/retire schedules are applied to
  both a :class:`ClusterTable` and a small ``center -> frozenset`` oracle,
  and every observable must match exactly;
* the engine-level invariant: on real runs, the partition property holds on
  every phase boundary.
"""

from __future__ import annotations

import random

import pytest

from repro.core import build_spanner, make_parameters
from repro.core.cluster_table import (
    ClusterTable,
    FlatClusters,
    flat_collections_partition_vertices,
)
from repro.graphs import gnp_random_graph
from repro.graphs.graph import Graph

from reference_programs import flat_clusters


def path_graph(n: int) -> Graph:
    graph = Graph(n)
    for v in range(n - 1):
        graph.add_edge(v, v + 1)
    return graph


class TestClusterTableBasics:
    def test_singletons(self):
        table = ClusterTable.singletons(4)
        assert table.num_active == 4
        assert table.centers() == [0, 1, 2, 3]
        for v in range(4):
            assert table.center_of(v) == v
            assert table.is_center(v)
            assert table.members_of_center(v) == [v]

    def test_empty_table(self):
        table = ClusterTable(3)
        assert table.num_active == 0
        assert table.centers() == []
        assert table.center_of(1) == -1

    def test_supercluster_merges_and_retires(self):
        table = ClusterTable.singletons(6)
        # Merge clusters 0,1,2 under root 1 and 4,5 under root 4; retire 3.
        unclustered = table.supercluster({0: 1, 1: 1, 2: 1, 4: 4, 5: 4})
        assert table.num_active == 2
        assert table.centers() == [1, 4]
        assert table.members_of_center(1) == [0, 1, 2]
        assert table.members_of_center(4) == [4, 5]
        for v in (0, 1, 2):
            assert table.center_of(v) == 1
        assert table.center_of(3) == -1
        assert len(unclustered) == 1
        assert unclustered.centers() == [3]
        assert unclustered.vertex_to_center() == {3: 3}

    def test_supercluster_then_again(self):
        table = ClusterTable.singletons(6)
        table.supercluster({v: v // 2 * 2 for v in range(6)})
        assert table.centers() == [0, 2, 4]
        unclustered = table.supercluster({0: 0, 2: 0})
        assert table.centers() == [0]
        assert table.members_of_center(0) == [0, 1, 2, 3]
        assert unclustered.centers() == [4]
        assert list(unclustered.members_of(0)) == [4, 5]

    def test_retire_all(self):
        table = ClusterTable.singletons(3)
        view = table.retire_all()
        assert table.num_active == 0
        assert table.centers() == []
        assert len(view) == 3
        assert view.total_vertices() == 3
        for v in range(3):
            assert table.center_of(v) == -1

    def test_phase_operation_mix(self):
        # The operation mix of one engine phase: merge every run of 8
        # consecutive singletons under its first vertex (roots always span
        # themselves), retiring every 5th non-root cluster.
        n = 400
        table = ClusterTable.singletons(n)
        p0 = table.snapshot()
        center_root = {
            v: (v // 8) * 8 for v in range(n) if v % 5 != 4 or v == (v // 8) * 8
        }
        unclustered = table.supercluster(center_root)
        p1 = table.snapshot()
        final = table.retire_all()
        assert len(p0) == n
        assert p1.total_vertices() + unclustered.total_vertices() == n
        assert len(final) == len(p1)

    def test_version_bumps_on_mutation(self):
        table = ClusterTable.singletons(4)
        v0 = table.version
        table.supercluster({0: 0, 1: 0})
        assert table.version == v0 + 1
        table.retire_all()
        assert table.version == v0 + 2

    def test_snapshot_is_frozen(self):
        table = ClusterTable.singletons(4)
        snap = table.snapshot()
        table.supercluster({0: 0, 1: 0, 2: 0, 3: 0})
        # The snapshot still shows the singleton partition.
        assert len(snap) == 4
        assert snap.vertex_to_center() == {v: v for v in range(4)}


class TestFlatClustersQueries:
    """The snapshot queries the analysis layer reads."""

    def _view(self) -> FlatClusters:
        return flat_clusters(6, {0: 0, 1: 0, 3: 3, 4: 3, 5: 3})

    def test_len_centers_and_members(self):
        view = self._view()
        assert len(view) == 2
        assert view.centers() == [0, 3]
        assert view.center(1) == 3
        assert list(view.members_of(1)) == [3, 4, 5]

    def test_vertex_queries(self):
        view = self._view()
        assert view.vertex_to_center() == {0: 0, 1: 0, 3: 3, 4: 3, 5: 3}
        assert view.total_vertices() == 5
        assert view.cluster_index_of(4) == 1
        assert view.center_of_vertex(4) == 3
        assert view.center_of_vertex(2) == -1

    def test_max_radius_in(self):
        graph = path_graph(6)
        view = flat_clusters(6, {0: 0, 1: 0, 3: 4, 4: 4, 5: 4})
        assert view.max_radius_in(graph) == 1
        assert FlatClusters.empty(6).max_radius_in(graph) == 0

    def test_max_radius_unreachable_raises(self):
        graph = Graph(4)
        graph.add_edge(0, 1)
        view = flat_clusters(4, {0: 0, 3: 0})
        with pytest.raises(ValueError, match="unreachable"):
            view.max_radius_in(graph)

    def test_partition_check(self):
        a = flat_clusters(4, {0: 0, 1: 0})
        b = flat_clusters(4, {2: 2, 3: 3})
        assert flat_collections_partition_vertices([a, b], 4)
        overlap = flat_clusters(4, {1: 1, 2: 1})
        assert not flat_collections_partition_vertices([a, overlap], 4)
        assert not flat_collections_partition_vertices([a], 4)

    def test_partition_check_rejects_a_vertex_repeated_after_a_full_cover(self):
        n = 40
        full = flat_clusters(n, {v: 0 for v in range(n)})
        extra = flat_clusters(n, {0: 0})
        assert flat_collections_partition_vertices([full], n)
        assert not flat_collections_partition_vertices([full, extra], n)


class TestRandomizedCrossCheck:
    """Random merge/retire schedules vs. a ``center -> frozenset`` oracle."""

    @staticmethod
    def reference_supercluster(clusters, center_root):
        """One superclustering step: every spanned cluster merges into the
        supercluster of its root, the rest retire.  Returns ``(P_{i+1}, U_i)``."""
        merged, retired = {}, {}
        for center, members in clusters.items():
            root = center_root.get(center)
            if root is None:
                retired[center] = members
            else:
                merged[root] = merged.get(root, frozenset()) | members
        return merged, retired

    @staticmethod
    def as_center_map(clusters):
        return {v: center for center, members in clusters.items() for v in members}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_frozenset_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 40)
        table = ClusterTable.singletons(n)
        reference = {v: frozenset({v}) for v in range(n)}

        for _step in range(rng.randrange(1, 5)):
            centers = sorted(reference)
            assert table.centers() == centers
            if not centers:
                break
            # Random superclustering step: every center is spanned with
            # probability 1/2; spanned centers group under a random root
            # drawn from the spanned set.
            spanned = [c for c in centers if rng.random() < 0.5]
            center_root = {}
            if spanned:
                roots = [c for c in spanned if rng.random() < 0.4] or [spanned[0]]
                for c in spanned:
                    center_root[c] = rng.choice(roots)
                for r in roots:
                    center_root[r] = r
            next_reference, unclustered_ref = self.reference_supercluster(
                reference, center_root
            )
            unclustered_flat = table.supercluster(center_root)

            # The retired views agree with the reference U_i ...
            assert unclustered_flat.vertex_to_center() == self.as_center_map(unclustered_ref)
            assert unclustered_flat.centers() == sorted(unclustered_ref)
            # ... and the live table agrees with the reference P_{i+1}.
            snapshot = table.snapshot()
            assert snapshot.vertex_to_center() == self.as_center_map(next_reference)
            assert snapshot.centers() == sorted(next_reference)
            for index, center in enumerate(snapshot.centers()):
                members = list(snapshot.members_of(index))
                assert members == sorted(next_reference[center])
                assert table.members_of_center(center) == members
            reference = next_reference


class TestEnginePhaseBoundaries:
    """On real runs the table keeps the partition property at every boundary."""

    @pytest.mark.parametrize("engine", ["centralized", "distributed"])
    def test_partition_property_each_phase(self, engine):
        graph = gnp_random_graph(36, 0.12, seed=7)
        parameters = make_parameters(0.25, 3, 1.0 / 3.0, epsilon_is_internal=True)
        result = build_spanner(graph, parameters=parameters, engine=engine)
        n = graph.num_vertices

        # U_0..U_ell partition V (Corollary 2.5) via the flat checker.
        assert flat_collections_partition_vertices(
            result.unclustered_history, n
        )
        # Every P_i is internally a partition of a subset of V, and
        # P_{i+1} + U_i together cover exactly the vertices of P_i.
        for i, p_i in enumerate(result.cluster_history):
            members = list(p_i.members_array())
            assert len(set(members)) == len(members)
            if i < len(result.unclustered_history):
                u_i = result.unclustered_history[i]
                if i + 1 < len(result.cluster_history):
                    p_next = result.cluster_history[i + 1]
                    assert flat_collections_partition_vertices(
                        [p_next, u_i], n
                    ) == (p_i.total_vertices() == n)
                    assert (
                        p_next.total_vertices() + u_i.total_vertices()
                        == p_i.total_vertices()
                    )

    def test_phase_counters_match_views(self):
        graph = gnp_random_graph(30, 0.15, seed=3)
        parameters = make_parameters(0.25, 3, 1.0 / 3.0, epsilon_is_internal=True)
        result = build_spanner(graph, parameters=parameters, engine="centralized")
        for record in result.phase_records:
            p_i = result.cluster_history[record.index]
            u_i = result.unclustered_history[record.index]
            assert record.num_clusters == len(p_i)
            assert record.num_unclustered == len(u_i)
            assert record.cluster_merges + record.num_unclustered == record.num_clusters
            if record.index + 1 < len(result.cluster_history):
                assert record.clusters_out == len(
                    result.cluster_history[record.index + 1]
                )
