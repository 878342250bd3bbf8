"""Lightweight adjacency-list graph used throughout the reproduction.

The paper works on unweighted, undirected, simple graphs whose vertices carry
unique IDs in ``[n]``.  We mirror that convention: vertices are the integers
``0 .. n-1`` and the vertex ID *is* the vertex.  The class is intentionally
small and dependency-free so that both the CONGEST simulator and the
centralized reference algorithms can share it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .csr import CSRGraph, vertex_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distances import DistanceCache

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """An unweighted, undirected, simple graph on vertices ``0..n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertices are always the integers ``0..n-1``.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are rejected and
        parallel edges are collapsed.
    """

    __slots__ = ("_n", "_adj", "_num_edges", "_version", "_csr", "_dcache")

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._n = int(num_vertices)
        self._adj: List[Set[int]] = [set() for _ in range(self._n)]
        self._num_edges = 0
        self._version = 0
        self._csr: Optional[CSRGraph] = None
        self._dcache: Optional["DistanceCache"] = None
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter: bumped only when the edge set actually changes.

        Snapshots and caches (:meth:`csr`, :meth:`distance_cache`) use this to
        detect staleness.  No-op mutations -- adding an edge that is already
        present, removing one that is absent, or a batch of such edges --
        leave the counter (and therefore every derived cache) untouched.
        """
        return self._version

    def vertices(self) -> range:
        """Iterate over all vertex IDs."""
        return range(self._n)

    def neighbors(self, v: int) -> Set[int]:
        """Return the set of neighbours of ``v`` (do not mutate)."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Return the degree of vertex ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Return the maximum degree of the graph (0 for an empty graph)."""
        if self._n == 0:
            return 0
        return max(len(adj) for adj in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``{u, v}`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical ``(min, max)`` form."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> Set[Edge]:
        """Return all edges as a set of canonical pairs."""
        return set(self.edges())

    # ------------------------------------------------------------------
    # Flat-array snapshots and caches
    # ------------------------------------------------------------------
    def csr(self) -> CSRGraph:
        """Return a frozen CSR snapshot of the current adjacency.

        The snapshot (``indptr``/``adj`` flat arrays, rows sorted) is cached
        and shared by all callers until the graph mutates; any ``add_edge`` /
        ``remove_edge`` invalidates it and the next call builds a fresh one.
        Snapshots themselves never change, so holding one across mutations
        observes the topology at snapshot time.
        """
        csr = self._csr
        if csr is None:
            csr = self._csr = CSRGraph.from_graph(self)
        return csr

    def distance_cache(self) -> "DistanceCache":
        """Return the per-graph BFS distance cache (created on first use).

        The cache memoizes single-source distance vectors and is shared by
        every analysis that sweeps BFS over this graph (stretch verification,
        additive-term fitting, distance histograms).  Like :meth:`csr` it is
        dropped on mutation.
        """
        cache = self._dcache
        if cache is None:
            from .distances import DistanceCache

            cache = self._dcache = DistanceCache(self)
        return cache

    def _invalidate(self) -> None:
        """Drop derived snapshots/caches after a mutation."""
        self._version += 1
        self._csr = None
        self._dcache = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``{u, v}``.

        Returns ``True`` if the edge was new, ``False`` if it already existed.
        Self-loops raise ``ValueError``.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        if v in self._adj[u]:
            return False
        ids = vertex_ids(self._n)
        self._adj[u].add(ids[v])
        self._adj[v].add(ids[u])
        self._num_edges += 1
        self._invalidate()
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Add many edges; return the number of edges actually inserted.

        Batch path: validates and inserts inline and invalidates the derived
        snapshots once at the end instead of per edge.  Like :meth:`add_edge`
        it stores the shared :func:`~repro.graphs.csr.vertex_ids` objects,
        not the caller's: a sparse graph's adjacency would otherwise hold one
        ``int`` per edge endpoint.
        """
        added = 0
        adj = self._adj
        n = self._n
        ids = vertex_ids(n)
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    self._check_vertex(u)
                    self._check_vertex(v)
                if u == v:
                    raise ValueError(f"self-loops are not allowed (vertex {u})")
                adj_u = adj[u]
                if v in adj_u:
                    continue
                adj_u.add(ids[v])
                adj[v].add(ids[u])
                added += 1
        finally:
            # An invalid edge mid-batch must not desynchronize the edge count
            # or leave stale CSR/distance snapshots for the edges already in.
            if added:
                self._num_edges += added
                self._invalidate()
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``{u, v}`` if present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._invalidate()
        return True

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Remove many edges; return the number of edges actually removed.

        Batch path mirroring :meth:`add_edges`: absent edges are skipped and
        the derived snapshots are invalidated once at the end (and only when
        something was actually removed), so a no-op batch leaves
        :attr:`version`, the CSR snapshot and the distance cache untouched.
        """
        removed = 0
        adj = self._adj
        n = self._n
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    self._check_vertex(u)
                    self._check_vertex(v)
                adj_u = adj[u]
                if v not in adj_u:
                    continue
                adj_u.discard(v)
                adj[v].discard(u)
                removed += 1
        finally:
            # An invalid edge mid-batch must not desynchronize the edge count
            # or leave stale CSR/distance snapshots for the edges already out.
            if removed:
                self._num_edges -= removed
                self._invalidate()
        return removed

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy of this graph."""
        other = Graph(self._n)
        other._adj = [set(adj) for adj in self._adj]
        other._num_edges = self._num_edges
        # Snapshots are immutable, so the copy may share the current one.
        other._csr = self._csr
        return other

    def subgraph_from_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Return a spanning subgraph (same vertex set) with only ``edges``.

        Every edge must be an edge of this graph; otherwise ``ValueError`` is
        raised, because a spanner must be a subgraph of its host graph.
        """
        sub = Graph(self._n)
        for u, v in edges:
            if not self.has_edge(u, v):
                raise ValueError(f"edge {(u, v)} is not present in the host graph")
            sub.add_edge(u, v)
        return sub

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Return whether every edge of ``self`` is an edge of ``other``."""
        if self._n != other.num_vertices:
            return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[int, Set[int]]:
        """Return a fresh adjacency dictionary (copies of neighbour sets)."""
        return {v: set(self._adj[v]) for v in range(self._n)}

    def density(self) -> float:
        """Return the edge density ``m / (n choose 2)`` (0 for n < 2)."""
        if self._n < 2:
            return 0.0
        return self._num_edges / (self._n * (self._n - 1) / 2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} is out of range [0, {self._n})")
