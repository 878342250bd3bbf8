"""Flat-array clustering core: the partition structure behind every builder.

The superclustering/interconnection phases (paper Sections 2.2-2.3) reduce to
repeated maintenance of a *partition of a subset of V into clusters*: phase
``i`` receives ``P_i``, merges the spanned clusters into superclusters
(``P_{i+1}``) and retires the rest (``U_i``).  The paper proves
(Corollary 2.5) that ``U_0, ..., U_ell`` together partition ``V``.  Following
the flat-array hot-path contract (ROADMAP, "Performance architecture"), the
partition lives in two array-backed structures and no per-cluster object or
vertex set is ever built:

* :class:`ClusterTable` -- the *mutable* partition the engines carry across
  phases: a dense ``cluster_of[v]`` membership array plus parallel per-slot
  center bookkeeping, with O(1) membership queries and **batched**
  merge/retire sweeps (:meth:`ClusterTable.supercluster`,
  :meth:`ClusterTable.retire_all`).  A ``version`` counter bumps on every
  mutation, mirroring the ``Graph.csr()`` invalidation contract: snapshots
  taken from the table stay frozen at their version.
* :class:`FlatClusters` -- the *frozen* snapshot recorded in result histories
  (one ``P_i`` or ``U_i``): a compact ``cluster_of`` array (vertex -> local
  cluster index), parallel center tuple and CSR-style member lists
  (``indptr``/``members``).  The analysis layer reads it through ``len``,
  ``centers()``, ``vertex_to_center()``, ``max_radius_in()``, ``summary()``
  and the flat accessors; every bulk query is an array sweep.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.bfs import _flat_bfs_distances, _np_bfs_dist_array
from ..graphs.graph import Graph
from ..kernels import require_numpy, use_numpy


def _np_of(buf):
    """A flat int buffer (``array('q')``, list or range) as a numpy array.

    ``array('q')`` buffers are wrapped zero-copy via the buffer protocol;
    list/range buffers (snapshot fast paths) are materialized once.
    """
    np = require_numpy()
    if isinstance(buf, array):
        if len(buf) == 0:
            return np.empty(0, dtype=np.int64)
        return np.frombuffer(buf, dtype=np.int64)
    return np.asarray(buf, dtype=np.int64)


def _np_members_radius(graph: Graph, center: int, members) -> int:
    """Vectorized ``max dist(center, v) for v in members`` with error parity.

    Raises on the first unreachable member in member order, exactly like the
    pure-Python sweep.
    """
    np = require_numpy()
    dist = _np_bfs_dist_array(graph, (center,))
    idx = _np_of(members)
    if idx.size == 0:
        return 0
    d = dist[idx]
    bad = np.flatnonzero(d < 0)
    if bad.size:
        raise ValueError(
            f"vertex {int(idx[bad[0]])} of the cluster centered at {center} "
            "is unreachable"
        )
    return int(d.max())


class FlatClusters:
    """A frozen, array-backed cluster collection (one ``P_i`` or ``U_i``).

    Clusters are indexed ``0..k-1`` in ascending center order.  Storage is
    three flat buffers:

    * ``cluster_of[v]`` -- local cluster index of vertex ``v``, or ``-1``;
    * ``centers[i]`` -- center vertex of cluster ``i`` (ascending);
    * ``indptr``/``members`` -- CSR member lists, each segment sorted.
    """

    __slots__ = ("num_vertices", "_centers", "_indptr", "_members", "_cluster_of")

    def __init__(
        self,
        num_vertices: int,
        centers: Sequence[int],
        indptr: Sequence[int],
        members: Sequence[int],
        cluster_of: Sequence[int],
    ) -> None:
        self.num_vertices = num_vertices
        self._centers: Tuple[int, ...] = tuple(centers)
        # The buffers are stored as handed in (flat int sequences -- lists,
        # ranges or array('q')); snapshots own them exclusively, so no copy.
        self._indptr = indptr
        self._members = members
        self._cluster_of = cluster_of

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_vertices: int) -> "FlatClusters":
        """A collection with no clusters."""
        return cls(num_vertices, (), array("q", [0]), array("q"), array("q", [-1]) * num_vertices)

    # ------------------------------------------------------------------
    # Flat accessors (the hot-path API)
    # ------------------------------------------------------------------
    def cluster_of_array(self) -> array:
        """The dense ``vertex -> local cluster index`` array (read-only)."""
        return self._cluster_of

    def members_array(self) -> array:
        """All clustered vertices, grouped by cluster (read-only CSR payload)."""
        return self._members

    def indptr_array(self) -> array:
        """CSR offsets into :meth:`members_array` (read-only)."""
        return self._indptr

    def cluster_index_of(self, vertex: int) -> int:
        """Local cluster index of ``vertex`` (``-1`` if unclustered) -- O(1)."""
        return self._cluster_of[vertex]

    def center_of_vertex(self, vertex: int) -> int:
        """Center of the cluster containing ``vertex`` (``-1`` if unclustered)."""
        idx = self._cluster_of[vertex]
        return self._centers[idx] if idx >= 0 else -1

    def members_of(self, index: int) -> array:
        """Member vertices of cluster ``index`` (sorted array slice)."""
        return self._members[self._indptr[index]: self._indptr[index + 1]]

    def center(self, index: int) -> int:
        """Center vertex of cluster ``index``."""
        return self._centers[index]

    # ------------------------------------------------------------------
    # Collection-level queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._centers)

    def centers(self) -> List[int]:
        """All cluster centers (the set ``S_i``), sorted."""
        return list(self._centers)

    def vertex_to_center(self) -> Dict[int, int]:
        """Map every clustered vertex to its cluster center (one array sweep)."""
        centers = self._centers
        cluster_of = self._cluster_of
        if use_numpy(self.num_vertices):
            np = require_numpy()
            idx = _np_of(cluster_of)
            clustered = np.flatnonzero(idx >= 0)
            center_arr = _np_of(centers)
            return dict(
                zip(clustered.tolist(), center_arr[idx[clustered]].tolist())
            )
        return {
            v: centers[idx]
            for v, idx in enumerate(cluster_of)
            if idx >= 0
        }

    def total_vertices(self) -> int:
        """Total number of clustered vertices."""
        return len(self._members)

    def max_radius_in(self, graph: Graph) -> int:
        """``Rad(P_i)`` measured in ``graph`` (0 for an empty collection).

        One flat BFS per cluster center; membership is read straight off the
        CSR member segments.
        """
        worst = 0
        indptr = self._indptr
        members = self._members
        if use_numpy(graph.num_vertices):
            for idx, center in enumerate(self._centers):
                radius = _np_members_radius(
                    graph, center, members[indptr[idx]: indptr[idx + 1]]
                )
                if radius > worst:
                    worst = radius
            return worst
        for idx, center in enumerate(self._centers):
            dist, _ = _flat_bfs_distances(graph, (center,))
            for v in members[indptr[idx]: indptr[idx + 1]]:
                d = dist[v]
                if d < 0:
                    raise ValueError(
                        f"vertex {v} of the cluster centered at {center} is unreachable"
                    )
                if d > worst:
                    worst = d
        return worst

    def summary(self) -> Dict[str, int]:
        """Compact statistics used by the phase records."""
        indptr = self._indptr
        max_size = 0
        if self._centers and use_numpy(self.num_vertices):
            np = require_numpy()
            max_size = int(np.diff(_np_of(indptr)).max())
        else:
            for i in range(len(self._centers)):
                size = indptr[i + 1] - indptr[i]
                if size > max_size:
                    max_size = size
        return {
            "num_clusters": len(self._centers),
            "num_vertices": len(self._members),
            "max_cluster_size": max_size,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatClusters(clusters={len(self._centers)}, "
            f"vertices={len(self._members)}/{self.num_vertices})"
        )


def flat_collections_partition_vertices(
    collections: Sequence[FlatClusters], num_vertices: int
) -> bool:
    """Check Corollary 2.5 over snapshots: one pass over each ``cluster_of``.

    The collections partition ``0..n-1`` iff every vertex is covered exactly
    once; with array-backed snapshots this is a byte-table sweep (or, under
    the vectorized tier, a summed bincount) instead of per-vertex set
    bookkeeping.
    """
    if use_numpy(num_vertices):
        np = require_numpy()
        counts = np.zeros(num_vertices, dtype=np.int64)
        total = 0
        for collection in collections:
            payload = _np_of(collection.members_array())
            if payload.size:
                counts += np.bincount(payload, minlength=num_vertices)
            total += collection.total_vertices()
        if total != num_vertices:
            return False
        return not counts.size or int(counts.max()) == 1
    seen = bytearray(num_vertices)
    total = 0
    for collection in collections:
        for v in collection.members_array():
            if seen[v]:
                return False
            seen[v] = 1
        total += collection.total_vertices()
    return total == num_vertices


class ClusterTable:
    """Mutable flat-array partition of (a subset of) ``V`` into clusters.

    The engines carry exactly one table through a build.  State is flat
    structures only -- no per-cluster objects, no vertex sets:

    * ``cluster_of[v]`` -- storage *slot* of the cluster containing ``v``
      (``-1`` once ``v``'s cluster has been retired): the O(1) membership
      query;
    * ``slot_center[s]`` / ``slot_members[s]`` -- per-slot center vertex and
      sorted member list (slots are append-only; superclusters get fresh
      slots, retired slots drop their member storage);
    * ``center_slot[c]`` -- the *active* slot centered at vertex ``c`` (or
      ``-1``), which doubles as the O(1) "is ``c`` a live center" query;
    * ``active_centers`` -- the sorted live center list (the set ``S_i``),
      maintained incrementally.

    Mutations are **batched**: :meth:`supercluster` applies one whole
    superclustering step (merge every spanned cluster into its root's new
    supercluster, retire the rest) touching only the vertices that actually
    move -- O(moved + retired), independent of ``n`` -- and
    :meth:`retire_all` ends the concluding phase.  Every mutation bumps
    ``version`` -- mirroring the ``Graph.csr()`` contract -- while snapshots
    (:class:`FlatClusters`) stay frozen at the version they were taken.
    """

    __slots__ = (
        "num_vertices",
        "version",
        "_cluster_of",
        "_slot_center",
        "_slot_members",
        "_center_slot",
        "_active_centers",
    )

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = num_vertices
        self.version = 0
        self._cluster_of: List[int] = [-1] * num_vertices
        self._slot_center: List[int] = []
        self._slot_members: List[Optional[List[int]]] = []
        self._center_slot: List[int] = [-1] * num_vertices
        self._active_centers: List[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, num_vertices: int) -> "ClusterTable":
        """The phase-0 partition: every vertex is its own cluster."""
        table = cls(num_vertices)
        table._cluster_of = list(range(num_vertices))
        table._slot_center = list(range(num_vertices))
        table._slot_members = [[v] for v in range(num_vertices)]
        table._center_slot = list(range(num_vertices))
        table._active_centers = list(range(num_vertices))
        return table

    # ------------------------------------------------------------------
    # O(1) queries
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Number of live clusters."""
        return len(self._active_centers)

    def cluster_slot(self, vertex: int) -> int:
        """Storage slot of the live cluster containing ``vertex`` (or ``-1``)."""
        return self._cluster_of[vertex]

    def center_of(self, vertex: int) -> int:
        """Center of the live cluster containing ``vertex`` (or ``-1``)."""
        slot = self._cluster_of[vertex]
        return self._slot_center[slot] if slot >= 0 else -1

    def is_center(self, vertex: int) -> bool:
        """Whether ``vertex`` is the center of a live cluster -- O(1)."""
        return self._center_slot[vertex] >= 0

    def centers(self) -> List[int]:
        """Centers of all live clusters (the set ``S_i``), sorted."""
        return list(self._active_centers)

    def members_of_center(self, center: int) -> List[int]:
        """Sorted member list of the live cluster centered at ``center``.

        The list is the table's own storage -- treat it as read-only.
        """
        slot = self._center_slot[center]
        if slot < 0:
            raise KeyError(center)
        members = self._slot_members[slot]
        assert members is not None
        return members

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> FlatClusters:
        """Freeze the current partition as a :class:`FlatClusters` view.

        Costs O(clustered vertices + clusters); the phase-0 singleton shape
        is recognized and emitted as pure range buffers.
        """
        n = self.num_vertices
        centers = self._active_centers
        if len(centers) == n:
            # Singleton partition: identity buffers, no per-cluster walk.
            return FlatClusters(
                n, range(n), range(n + 1), range(n), range(n)
            )
        center_slot = self._center_slot
        slot_members = self._slot_members
        local_of = [-1] * n
        members: List[int] = []
        indptr = [0]
        push_offset = indptr.append
        for idx, c in enumerate(centers):
            cluster = slot_members[center_slot[c]]
            for v in cluster:
                local_of[v] = idx
            members.extend(cluster)
            push_offset(len(members))
        return FlatClusters(n, list(centers), indptr, members, local_of)

    # ------------------------------------------------------------------
    # Batched mutations
    # ------------------------------------------------------------------
    def supercluster(self, center_root: Dict[int, int]) -> FlatClusters:
        """Apply one whole superclustering step; returns the retired ``U_i``.

        ``center_root`` maps every *spanned* live cluster center to the root
        of its forest tree (the output of
        :func:`~repro.core.superclustering.spanned_center_roots`):

        * every spanned cluster is merged into a fresh supercluster slot
          centered at its root (one new slot per distinct root);
        * every unspanned cluster is retired; the retired sub-partition is
          returned as a frozen :class:`FlatClusters` (the phase's ``U_i``).

        The table itself becomes ``P_{i+1}``.  Only the member lists of the
        touched clusters are walked -- the cost is O(moved + retired +
        #clusters), independent of ``n``.
        """
        n = self.num_vertices
        cluster_of = self._cluster_of
        slot_center = self._slot_center
        slot_members = self._slot_members
        center_slot = self._center_slot

        # Classify live clusters (ascending center order): spanned slots
        # group under their root, the rest retire into the U_i view.
        groups: Dict[int, List[int]] = {}
        u_centers: List[int] = []
        u_lists: List[List[int]] = []
        self_rooted = set()
        get_root = center_root.get
        for center in self._active_centers:
            slot = center_slot[center]
            root = get_root(center)
            if root is None:
                retired = slot_members[slot]
                u_centers.append(center)
                u_lists.append(retired)
                for v in retired:
                    cluster_of[v] = -1
                slot_members[slot] = None
            else:
                if root == center:
                    self_rooted.add(center)
                groups.setdefault(root, []).append(slot)
            center_slot[center] = -1

        # One fresh slot per distinct root, ascending; constituent member
        # lists are spliced (and re-sorted on a true merge) into the new slot.
        # Every root must be a live center whose own cluster merges under
        # itself (forest roots span themselves at distance 0) -- otherwise
        # the new supercluster would not contain its center and the partition
        # would silently corrupt.
        new_roots = sorted(groups)
        for root in new_roots:
            if root not in self_rooted:
                raise ValueError(
                    f"supercluster root {root} must be a live cluster center "
                    "mapped to itself in center_root"
                )
        for root in new_roots:
            slots = groups[root]
            if len(slots) == 1:
                merged = slot_members[slots[0]]
            else:
                merged = []
                for slot in slots:
                    merged.extend(slot_members[slot])
                merged.sort()
            fresh = len(slot_center)
            for slot in slots:
                slot_members[slot] = None
            slot_center.append(root)
            slot_members.append(merged)
            for v in merged:
                cluster_of[v] = fresh
            center_slot[root] = fresh
        self._active_centers = new_roots
        self.version += 1

        # Assemble the retired view's CSR buffers from the spliced lists.
        u_local_of = [-1] * n
        u_members: List[int] = []
        u_indptr = [0]
        push_offset = u_indptr.append
        for idx, cluster in enumerate(u_lists):
            for v in cluster:
                u_local_of[v] = idx
            u_members.extend(cluster)
            push_offset(len(u_members))
        return FlatClusters(n, u_centers, u_indptr, u_members, u_local_of)

    def retire_all(self) -> FlatClusters:
        """Retire every live cluster (concluding phase); returns the view.

        One fused sweep builds the frozen view's CSR buffers *and* clears the
        table -- the concluding phase walks each member list once instead of
        snapshotting first and clearing second.
        """
        n = self.num_vertices
        cluster_of = self._cluster_of
        center_slot = self._center_slot
        slot_members = self._slot_members
        centers = self._active_centers
        local_of = [-1] * n
        members: List[int] = []
        indptr = [0]
        push_offset = indptr.append
        for idx, center in enumerate(centers):
            slot = center_slot[center]
            cluster = slot_members[slot]
            assert cluster is not None
            for v in cluster:
                local_of[v] = idx
                cluster_of[v] = -1
            members.extend(cluster)
            push_offset(len(members))
            slot_members[slot] = None
            center_slot[center] = -1
        view = FlatClusters(n, list(centers), indptr, members, local_of)
        self._active_centers = []
        self.version += 1
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterTable(n={self.num_vertices}, active={self.num_active}, "
            f"version={self.version})"
        )
