"""Legacy cluster / cluster-collection objects (API boundary only).

A *cluster* is a set of vertices centered around a designated center vertex
(paper, Section 2.1).  A *cluster collection* ``P_i`` is the input of phase
``i``; ``P_0`` is the partition of ``V`` into singletons, and the
superclustering step of phase ``i`` produces ``P_{i+1}``.  The clusters of
``P_i`` that are *not* superclustered form ``U_i``; the paper proves
(Corollary 2.5) that ``U_0, ..., U_ell`` together partition ``V``.

.. note::
   The build hot path no longer runs on these ``frozenset``-backed objects:
   both engines and all baselines carry a flat-array
   :class:`~repro.core.cluster_table.ClusterTable` and record
   :class:`~repro.core.cluster_table.FlatClusters` snapshots in their
   histories.  This module remains as the readable reference implementation
   -- the randomized cross-check in ``tests/core/test_cluster_table.py``
   validates the flat structures against it -- and as a convenience API for
   constructing small collections by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from ..graphs.bfs import bfs_distances
from ..graphs.graph import Graph


@dataclass(frozen=True)
class Cluster:
    """A cluster: a center vertex plus the set of vertices it contains.

    The center always belongs to the cluster's vertex set.
    """

    center: int
    vertices: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.center not in self.vertices:
            raise ValueError(f"cluster center {self.center} must belong to its vertex set")

    @classmethod
    def singleton(cls, vertex: int) -> "Cluster":
        """The singleton cluster ``{v}`` centered at ``v``."""
        return cls(center=vertex, vertices=frozenset({vertex}))

    @classmethod
    def merge(cls, center: int, clusters: Iterable["Cluster"]) -> "Cluster":
        """Union of several clusters, re-centered at ``center``.

        This is the supercluster construction: the vertex set of the new
        cluster is the union of the constituent clusters' vertex sets.
        """
        vertices: Set[int] = set()
        for cluster in clusters:
            vertices.update(cluster.vertices)
        if center not in vertices:
            raise ValueError("the new center must belong to one of the merged clusters")
        return cls(center=center, vertices=frozenset(vertices))

    @property
    def size(self) -> int:
        """Number of vertices in the cluster."""
        return len(self.vertices)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.vertices

    def radius_in(self, graph: Graph) -> int:
        """Radius of the cluster measured in ``graph`` (typically the spanner ``H``).

        ``Rad(C) = max_{v in C} d(center, v)``; unreachable members yield an
        error because a correctly built spanner always connects a cluster.
        """
        dist = bfs_distances(graph, self.center)
        worst = 0
        for v in self.vertices:
            if v not in dist:
                raise ValueError(
                    f"vertex {v} of the cluster centered at {self.center} is unreachable"
                )
            worst = max(worst, dist[v])
        return worst


class ClusterCollection:
    """An ordered collection of vertex-disjoint clusters (one ``P_i`` or ``U_i``)."""

    def __init__(self, clusters: Iterable[Cluster] = ()) -> None:
        self._clusters: List[Cluster] = []
        self._by_center: Dict[int, Cluster] = {}
        for cluster in clusters:
            self.add(cluster)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, num_vertices: int) -> "ClusterCollection":
        """The phase-0 collection: every vertex is its own cluster."""
        collection = cls()
        clusters = collection._clusters
        by_center = collection._by_center
        for v in range(num_vertices):
            cluster = Cluster.singleton(v)
            clusters.append(cluster)
            by_center[v] = cluster
        return collection

    def add(self, cluster: Cluster) -> None:
        """Add a cluster; centers must be unique within a collection."""
        if cluster.center in self._by_center:
            raise ValueError(f"duplicate cluster center {cluster.center}")
        self._clusters.append(cluster)
        self._by_center[cluster.center] = cluster

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._clusters)

    def __iter__(self):
        return iter(self._clusters)

    def __contains__(self, center: int) -> bool:
        return center in self._by_center

    def clusters(self) -> List[Cluster]:
        """All clusters in insertion order."""
        return list(self._clusters)

    def centers(self) -> List[int]:
        """All cluster centers (the set ``S_i``), sorted."""
        return sorted(self._by_center.keys())

    def by_center(self, center: int) -> Cluster:
        """The cluster centered at ``center``."""
        return self._by_center[center]

    def vertex_set(self) -> Set[int]:
        """Union of all clusters' vertex sets (the set ``V P_i``)."""
        vertices: Set[int] = set()
        for cluster in self._clusters:
            vertices.update(cluster.vertices)
        return vertices

    def vertex_to_center(self) -> Dict[int, int]:
        """Map every clustered vertex to its cluster center.

        Raises ``ValueError`` if two clusters overlap, because collections
        produced by the algorithm are always vertex-disjoint.
        """
        mapping: Dict[int, int] = {}
        for cluster in self._clusters:
            for v in cluster.vertices:
                if v in mapping:
                    raise ValueError(f"vertex {v} belongs to two clusters")
                mapping[v] = cluster.center
        return mapping

    def total_vertices(self) -> int:
        """Total number of clustered vertices."""
        return sum(cluster.size for cluster in self._clusters)

    def is_vertex_disjoint(self) -> bool:
        """Whether no vertex belongs to two clusters."""
        try:
            self.vertex_to_center()
        except ValueError:
            return False
        return True

    def max_radius_in(self, graph: Graph) -> int:
        """``Rad(P_i)`` measured in ``graph`` (0 for an empty collection)."""
        worst = 0
        for cluster in self._clusters:
            worst = max(worst, cluster.radius_in(graph))
        return worst

    def summary(self) -> Dict[str, int]:
        """Compact statistics used by the phase records."""
        sizes = [cluster.size for cluster in self._clusters]
        return {
            "num_clusters": len(self._clusters),
            "num_vertices": sum(sizes),
            "max_cluster_size": max(sizes) if sizes else 0,
        }


def collections_partition_vertices(
    collections: Sequence[ClusterCollection], num_vertices: int
) -> bool:
    """Check Corollary 2.5: the given collections together partition ``0..n-1``.

    Used with the history of ``U_0, ..., U_ell`` produced by a run.
    """
    seen: Set[int] = set()
    for collection in collections:
        for cluster in collection:
            for v in cluster.vertices:
                if v in seen:
                    return False
                seen.add(v)
    return seen == set(range(num_vertices))
