"""Frozen compressed-sparse-row (CSR) adjacency snapshots.

A :class:`CSRGraph` is an immutable flat-array view of a :class:`~repro.graphs.graph.Graph`
taken at a point in time: two ``array('q')`` buffers, ``indptr`` (length
``n + 1``) and ``adj`` (length ``2m``), with the neighbours of vertex ``v``
stored sorted in ``adj[indptr[v]:indptr[v + 1]]``.  Every hot path in the
reproduction -- BFS sweeps, the CONGEST simulator's per-node neighbour
tables, distance caches -- iterates this snapshot instead of the mutable
per-vertex ``set`` adjacency.

Row entries are interned: :meth:`CSRGraph.rows` and ``Graph`` adjacency sets
hold the one ``int`` object per vertex id from :func:`vertex_ids`.

Snapshot contract: a ``CSRGraph`` never changes.  ``Graph.csr()`` returns a
cached snapshot and invalidates it on any mutation (``add_edge`` /
``remove_edge``), so holding on to a snapshot across mutations yields the
*old* topology by design; re-call ``csr()`` to observe the new one.

Vectorized kernel tier (PR 7): :attr:`CSRGraph.indptr_np` / :attr:`CSRGraph.adj_np`
expose the same two buffers as **zero-copy, read-only** NumPy views, and
:meth:`CSRGraph.scipy_csr` wraps them in a cached ``scipy.sparse.csr_matrix``
handle sharing the index storage, with broadcast ``float64`` unit data that
``scipy.sparse.csgraph`` traversals (the centralized engine's per-center
exploration) read without a per-call conversion.  Because the views live on
the snapshot, the existing ``Graph.version`` contract is exactly their
invalidation rule: a mutation drops the cached snapshot, and the next
``Graph.csr()`` call yields a fresh one with fresh views, while views held
from the old snapshot keep showing the old topology.
"""

from __future__ import annotations

import threading
from array import array
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import Edge, Graph

_vertex_ids: List[int] = []
_vertex_ids_lock = threading.Lock()


def vertex_ids(n: int) -> List[int]:
    """The process-wide id list: ``vertex_ids(n)[v]`` is *the* ``int`` for ``v``.

    Every id above CPython's small-int cache is otherwise a fresh object per
    occurrence: each adjacency entry a generator inserts, each row entry read
    back from an ``array('q')``.  ``Graph`` adjacency sets and
    :meth:`CSRGraph.rows` store ids from this one list instead, so a vertex
    is one object however many graphs and snapshots mention it.  The list
    only grows (to the largest ``n`` asked for) and is at least ``n`` long.
    """
    ids = _vertex_ids
    if len(ids) < n:
        with _vertex_ids_lock:
            # Appending under the lock keeps ids[v] == v for racing callers.
            ids.extend(range(len(ids), n))
    return ids


class CSRGraph:
    """Immutable CSR adjacency snapshot of an undirected simple graph.

    Attributes
    ----------
    indptr:
        ``array('q')`` of length ``n + 1``; row ``v`` spans
        ``adj[indptr[v]:indptr[v + 1]]``.
    adj:
        ``array('q')`` of length ``2m`` holding all neighbour lists
        back-to-back, each row sorted ascending.
    """

    __slots__ = ("indptr", "adj", "_n", "_m", "_rows", "_np_views", "_scipy")

    def __init__(self, indptr: array, adj: array) -> None:
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(adj):
            raise ValueError("malformed CSR: indptr must start at 0 and end at len(adj)")
        self.indptr = indptr
        self.adj = adj
        self._n = len(indptr) - 1
        self._m = len(adj) // 2
        # Per-row tuples are the fastest pure-Python iteration surface; they
        # are materialized lazily because not every consumer needs them.
        self._rows: List[Tuple[int, ...]] = []
        # Lazy derived handles of the vectorized tier: zero-copy NumPy views
        # of the two buffers and the scipy.sparse matrix wrapping them.
        self._np_views = None
        self._scipy = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Snapshot ``graph``'s current adjacency into flat arrays."""
        n = graph.num_vertices
        indptr = array("q", bytes(8 * (n + 1)))
        adj = array("q")
        extend = adj.extend
        adjacency = graph._adj
        for v in range(n):
            extend(sorted(adjacency[v]))
            indptr[v + 1] = len(adj)
        return cls(indptr, adj)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return self.indptr[v + 1] - self.indptr[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbours of ``v`` as an immutable tuple."""
        return self.rows()[v]

    def rows(self) -> List[Tuple[int, ...]]:
        """All neighbour rows as a list of sorted tuples (built once, cached).

        This is the iteration surface the BFS kernels use: indexing a list of
        tuples is measurably faster in CPython than slicing the flat array on
        every visit, while the flat ``indptr``/``adj`` pair remains the
        canonical storage.

        The rows share one ``int`` object per vertex id, the same one the
        graph's adjacency sets hold: every neighbour entry is looked up in
        :func:`vertex_ids` and the rows are slices of that interned flat
        tuple.  Reading a row back from the ``array('q')`` buffer would
        allocate a fresh object per entry for every id above CPython's
        small-int cache, which on sparse graphs outweighs the tuples
        themselves.
        """
        if not self._rows and self._n:
            indptr = self.indptr
            flat = tuple(map(vertex_ids(self._n).__getitem__, self.adj))
            self._rows = [flat[a:b] for a, b in zip(indptr, islice(indptr, 1, None))]
        return self._rows

    # ------------------------------------------------------------------
    # Vectorized tier: zero-copy NumPy views and the scipy CSR handle
    # ------------------------------------------------------------------
    def _numpy_views(self):
        from ..kernels import require_numpy

        views = self._np_views
        if views is None:
            np = require_numpy()
            if len(self.adj):
                adj_np = np.frombuffer(self.adj, dtype=np.int64)
            else:
                adj_np = np.empty(0, dtype=np.int64)
            indptr_np = np.frombuffer(self.indptr, dtype=np.int64)
            # The views share the snapshot's memory; freeze them so no
            # vectorized kernel can mutate an "immutable" snapshot.
            indptr_np.flags.writeable = False
            adj_np.flags.writeable = False
            views = self._np_views = (indptr_np, adj_np)
        return views

    @property
    def indptr_np(self):
        """``indptr`` as a zero-copy, read-only ``numpy.int64`` view."""
        return self._numpy_views()[0]

    @property
    def adj_np(self):
        """``adj`` as a zero-copy, read-only ``numpy.int64`` view."""
        return self._numpy_views()[1]

    def scipy_csr(self):
        """The snapshot as a cached ``scipy.sparse.csr_matrix`` (n x n, 0/1).

        The matrix's ``indptr``/``indices`` share this snapshot's buffers
        (zero-copy), and its unit ``data`` is one read-only ``float64`` 1.0
        broadcast over all ``2m`` entries, so the handle pins no O(m) array of
        its own.  ``float64`` is the dtype ``scipy.sparse.csgraph`` works in:
        its traversals read this matrix as is instead of converting the data
        on every call.  Like every derived view
        it is invalidated through the ``Graph.version`` contract: mutations
        drop the graph's cached snapshot, and the next ``Graph.csr()`` hands
        out a fresh snapshot with a fresh matrix, while a held handle keeps
        showing the topology at snapshot time.
        """
        matrix = self._scipy
        if matrix is None:
            from ..kernels import require_numpy, require_scipy_sparse

            np = require_numpy()
            sparse = require_scipy_sparse()
            indptr_np, adj_np = self._numpy_views()
            # The validating constructor copies (and possibly downcasts) the
            # index arrays; assembling the matrix attribute-wise keeps the
            # zero-copy contract.  Rows are sorted and duplicate-free by
            # CSRGraph construction, so the canonical-format flags hold.
            matrix = sparse.csr_matrix((self._n, self._n), dtype=np.float64)
            matrix.data = np.broadcast_to(np.float64(1.0), (len(self.adj),))
            matrix.indices = adj_np
            matrix.indptr = indptr_np
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
            self._scipy = matrix
        return matrix

    def edges(self) -> Iterator["Edge"]:
        """Iterate all undirected edges in canonical ``(min, max)`` form."""
        indptr, adj = self.indptr, self.adj
        for u in range(self._n):
            for i in range(indptr[u], indptr[u + 1]):
                v = adj[i]
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in ``u``'s sorted row."""
        indptr, adj = self.indptr, self.adj
        lo, hi = indptr[u], indptr[u + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            w = adj[mid]
            if w == v:
                return True
            if w < v:
                lo = mid + 1
            else:
                hi = mid
        return False

    def __repr__(self) -> str:
        return f"CSRGraph(n={self._n}, m={self._m})"
