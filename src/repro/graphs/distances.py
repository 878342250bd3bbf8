"""Exact and sampled distance computations.

Used by the stretch-verification code (:mod:`repro.analysis.stretch`) and by
several experiments that need all-pairs or sampled-pairs distances in both the
host graph and the spanner.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..kernels import (
    AUTO_MIN_TRAVERSAL_VERTICES,
    require_csgraph,
    require_numpy,
    use_numpy,
)
from .bfs import bfs_distances
from .graph import Graph

INFINITY: float = float("inf")


def array_vectors(num_vertices: int) -> bool:
    """Whether distance vectors over ``num_vertices`` vertices are NumPy arrays.

    The one switch of the distance layer: :func:`single_source_distances`
    returns arrays exactly when this holds, and the loops that read the
    vectors (stretch reports, additive terms, histograms) pick their array
    form by the same test, so vector and reader always agree on the type.
    Under ``auto`` it holds from
    :data:`~repro.kernels.AUTO_MIN_TRAVERSAL_VERTICES` vertices up, the
    threshold of the compiled traversal that computes the arrays.
    """
    return use_numpy(num_vertices, AUTO_MIN_TRAVERSAL_VERTICES)


def single_source_distances(graph: Graph, source: int) -> List[float]:
    """Return a dense distance vector from ``source`` (``inf`` if unreachable).

    This is the distance-only hot path, with no intermediate dict.  It has
    two backends, chosen by :func:`array_vectors`: a level-synchronous
    CPython sweep over ``CSRGraph.rows()`` writing straight into a float
    list, and SciPy's compiled ``breadth_first_order`` over
    ``CSRGraph.scipy_csr()``, whose predecessors give the hop counts by
    pointer doubling (O(n log D) work for eccentricity D).  The compiled
    vector is a read-only ``numpy.float64`` array; element values are
    identical either way (whole hop counts, ``inf`` for unreachable), and
    every consumer treats the vector as read-only.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} is out of range [0, {n})")
    if array_vectors(n):
        np = require_numpy()
        order, parent = require_csgraph().breadth_first_order(
            graph.csr().scipy_csr(), source, directed=True, return_predecessors=True
        )
        # Work in BFS-order positions: ``up[i]`` is the position of an
        # ancestor of ``order[i]`` and ``hops[i]`` its distance from it.  Each
        # round doubles the jump, and the root (position 0) is a fixed point.
        # The last vertex in BFS order is the farthest, so once its jump lands
        # on the root every jump has.
        pos = np.empty(n, dtype=order.dtype)
        pos[order] = np.arange(order.size, dtype=order.dtype)
        parent[source] = source
        up = pos[parent[order]]
        hops = np.ones(order.size)
        hops[0] = 0.0
        while up[-1] != 0:
            hops += hops[up]
            up = up[up]
        vec = np.full(n, np.inf)
        vec[order] = hops
        # Cached vectors are shared by reference; freeze the numpy ones so a
        # stray in-place edit cannot corrupt every later analysis.
        vec.flags.writeable = False
        return vec
    inf = INFINITY
    dist = [inf] * n
    dist[source] = 0.0
    rows = graph.csr().rows()
    frontier = [source]
    depth = 0.0
    while frontier:
        depth += 1.0
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            for v in rows[u]:
                if dist[v] is inf:
                    dist[v] = depth
                    push(v)
        frontier = next_frontier
    return dist


class DistanceCache:
    """Memoized single-source BFS distance vectors over one graph.

    The cache is keyed by source vertex and guarded by the graph's mutation
    :attr:`~repro.graphs.graph.Graph.version`: any edge change clears it, so a
    cached vector is always consistent with the current topology.  Vectors are
    returned *by reference* for speed -- callers must treat them as read-only.

    Obtain the shared per-graph instance through ``graph.distance_cache()``;
    all analyses that sweep BFS over the same host graph (stretch guarantee
    checks, sampled stretch evaluation, additive-term fitting, distance
    histograms) then share one sweep per source.

    Memory is O(#sources * n) and unbounded by default (analyses sweep a
    graph and move on, and the committed benchmarks measure that regime).
    Long-lived holders -- the serving tier -- opt into an LRU entry cap via
    :meth:`set_max_entries`; capped caches evict the least-recently-used
    vector once the cap is exceeded.

    The vectors are lists or NumPy arrays as :func:`array_vectors` decides
    for the graph's order (arrays from
    :data:`~repro.kernels.AUTO_MIN_TRAVERSAL_VERTICES` vertices up under
    ``auto``).  A kernel switch that flips that answer drops the memoized
    vectors, so a reader never gets a vector of the other type.
    """

    __slots__ = ("_graph", "_version", "_arrays", "_vectors", "_max_entries")

    def __init__(self, graph: Graph, max_entries: Optional[int] = None) -> None:
        self._graph = graph
        self._version = graph.version
        self._arrays = array_vectors(graph.num_vertices)
        self._vectors: Dict[int, List[float]] = {}
        self._max_entries: Optional[int] = None
        if max_entries is not None:
            self.set_max_entries(max_entries)

    @property
    def graph(self) -> Graph:
        """The graph this cache serves."""
        return self._graph

    @property
    def max_entries(self) -> Optional[int]:
        """The LRU entry cap (``None`` = unbounded, the default)."""
        return self._max_entries

    def set_max_entries(self, max_entries: Optional[int]) -> None:
        """Cap the number of memoized vectors (LRU eviction); ``None`` uncaps."""
        if max_entries is not None:
            max_entries = int(max_entries)
            if max_entries < 1:
                raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self._max_entries = max_entries
        self._evict()

    def _evict(self) -> None:
        if self._max_entries is None:
            return
        while len(self._vectors) > self._max_entries:
            # Dict preserves insertion order and capped lookups re-insert on
            # access, so the first key is always the least recently used.
            del self._vectors[next(iter(self._vectors))]

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, source: int) -> bool:
        """Whether ``source``'s vector is memoized *and still valid*."""
        return (
            self._version == self._graph.version
            and self._arrays == array_vectors(self._graph.num_vertices)
            and source in self._vectors
        )

    def clear(self) -> None:
        """Drop all memoized vectors (e.g. to benchmark cold-cache paths)."""
        self._vectors.clear()

    def vector(self, source: int) -> List[float]:
        """Dense distance vector from ``source`` (read-only; memoized)."""
        if self._version != self._graph.version:
            self._vectors.clear()
            self._version = self._graph.version
        arrays = array_vectors(self._graph.num_vertices)
        if arrays != self._arrays:
            # A kernel switch mid-session (CLI --kernel, tests) must not hand
            # out vectors of the previous backend's type.
            self._vectors.clear()
            self._arrays = arrays
        vec = self._vectors.get(source)
        if vec is None:
            vec = self._vectors[source] = single_source_distances(self._graph, source)
            self._evict()
        elif self._max_entries is not None:
            # Refresh recency only when capped: the unbounded default keeps
            # its zero-overhead hit path (and its exact historical behavior).
            del self._vectors[source]
            self._vectors[source] = vec
        return vec

    def distance(self, u: int, v: int) -> float:
        """Exact ``u``-``v`` distance through the cache."""
        return self.vector(u)[v]


def eccentricity(graph: Graph, v: int) -> float:
    """Return the eccentricity of ``v`` within its connected component."""
    dist = bfs_distances(graph, v)
    return float(max(dist.values())) if dist else 0.0


def diameter(graph: Graph) -> float:
    """Return the diameter (max eccentricity over the whole graph).

    Disconnected graphs report the maximum *intra-component* eccentricity; a
    graph with no vertices has diameter 0.
    """
    best = 0.0
    for v in graph.vertices():
        best = max(best, eccentricity(graph, v))
    return best


def radius(graph: Graph) -> float:
    """Return the radius (min eccentricity) of a non-empty graph."""
    if graph.num_vertices == 0:
        return 0.0
    return min(eccentricity(graph, v) for v in graph.vertices())


def sample_vertex_pairs(
    num_vertices: int,
    num_pairs: int,
    seed: int = 0,
    distinct: bool = True,
) -> List[Tuple[int, int]]:
    """Deterministically sample vertex pairs for stretch estimation.

    Parameters
    ----------
    num_vertices:
        The graph order; pairs are drawn from ``0..n-1``.
    num_pairs:
        How many pairs to draw (capped at ``n*(n-1)/2`` when ``distinct``).
    seed:
        RNG seed; sampling is reproducible.
    distinct:
        When true, all returned pairs are distinct unordered pairs.
    """
    if num_vertices < 2 or num_pairs <= 0:
        return []
    rng = random.Random(seed)
    if distinct:
        max_pairs = num_vertices * (num_vertices - 1) // 2
        num_pairs = min(num_pairs, max_pairs)
        if 2 * num_pairs >= max_pairs:
            # Dense request: rejection sampling would thrash as the pool of
            # unseen pairs empties, so shuffle the enumerated pair space.
            universe = [
                (u, v)
                for u in range(num_vertices - 1)
                for v in range(u + 1, num_vertices)
            ]
            rng.shuffle(universe)
            return universe[:num_pairs]
        seen = set()
        pairs: List[Tuple[int, int]] = []
        while len(pairs) < num_pairs:
            u = rng.randrange(num_vertices)
            v = rng.randrange(num_vertices)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            pairs.append(key)
        return pairs
    return [
        tuple(sorted(rng.sample(range(num_vertices), 2)))  # type: ignore[misc]
        for _ in range(num_pairs)
    ]


def distance_histogram(graph: Graph, max_sources: Optional[int] = None, seed: int = 0) -> Dict[int, int]:
    """Histogram of pairwise distances (possibly from a sample of sources).

    Both the exhaustive and the sampled branch count *unordered* pairs exactly
    once: a pair of sampled sources is counted from its smaller endpoint only,
    and a (source, non-source) pair is counted from the source.  BFS sweeps go
    through the graph's shared :class:`DistanceCache`.
    """
    sources = list(graph.vertices())
    if max_sources is not None and len(sources) > max_sources:
        rng = random.Random(seed)
        sources = sorted(rng.sample(sources, max_sources))
    source_set = frozenset(sources)
    cache = graph.distance_cache()
    inf = INFINITY
    histogram: Dict[int, int] = {}
    if array_vectors(graph.num_vertices):
        np = require_numpy()
        n = graph.num_vertices
        is_source = np.zeros(n, dtype=bool)
        is_source[sources] = True
        vertex_ids = np.arange(n)
        for s in sources:
            vec = cache.vector(s)
            keep = vec != np.inf
            keep[s] = False
            # Source-source pairs count from the smaller endpoint only.
            keep &= ~(is_source & (vertex_ids < s))
            counts = np.bincount(vec[keep].astype(np.int64))
            for key in np.flatnonzero(counts).tolist():
                histogram[key] = histogram.get(key, 0) + int(counts[key])
        return histogram
    for s in sources:
        vec = cache.vector(s)
        for v, d in enumerate(vec):
            if d == inf or v == s:
                continue
            if v in source_set and v < s:
                continue  # already counted from the smaller sampled endpoint
            key = int(d)
            histogram[key] = histogram.get(key, 0) + 1
    return histogram
