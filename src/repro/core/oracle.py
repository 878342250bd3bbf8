"""Approximate distance queries on top of a spanner.

The original motivation for near-additive spanners ("computing almost shortest
paths", [Elk01]/[EP01]) is to answer distance queries on a much sparser
subgraph while distorting every distance by at most ``(1+eps)`` plus a fixed
additive term.  :class:`SpannerDistanceOracle` packages that workflow: build
the spanner once, then answer single-pair, single-source and path queries on
it, with the guarantee carried along.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graphs.bfs import bfs, bfs_distances
from ..graphs.distances import INFINITY
from ..graphs.graph import Graph
from .parameters import SpannerParameters, StretchGuarantee
from .result import SpannerResult
from .spanner import build_spanner


class SpannerDistanceOracle:
    """Answers approximate distance queries through a near-additive spanner.

    Parameters
    ----------
    graph:
        The host graph.
    epsilon, kappa, rho, engine, parameters:
        Forwarded to :func:`repro.core.spanner.build_spanner`.
    cache_sources:
        When true (default), single-source BFS results on the spanner are
        memoized, so repeated queries from the same source are O(1).
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float = 0.5,
        kappa: int = 3,
        rho: float = 1.0 / 3.0,
        engine: str = "centralized",
        parameters: Optional[SpannerParameters] = None,
        cache_sources: bool = True,
    ) -> None:
        self.graph = graph
        self.result: SpannerResult = build_spanner(
            graph, epsilon=epsilon, kappa=kappa, rho=rho, engine=engine, parameters=parameters
        )
        self.spanner = self.result.spanner
        self.guarantee: StretchGuarantee = self.result.parameters.stretch_bound()
        self._cache_sources = cache_sources
        self._cache: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, u: int, v: int) -> float:
        """Approximate distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        distances = self._distances_from(u)
        return float(distances.get(v, INFINITY))

    def distances_from(self, source: int) -> List[float]:
        """Approximate distances from ``source`` to every vertex."""
        distances = self._distances_from(source)
        return [float(distances.get(v, INFINITY)) for v in range(self.graph.num_vertices)]

    def path(self, u: int, v: int) -> Optional[List[int]]:
        """An approximately-shortest ``u``-``v`` path (through the spanner)."""
        result = bfs(self.spanner, u)
        if result.dist[v] is None:
            return None
        path = result.path_to_source(v)
        path.reverse()
        return path

    def error_bound(self, u: int, v: int) -> float:
        """Upper bound on the absolute error of :meth:`distance` for this pair.

        ``d_H(u,v) - d_G(u,v) <= (mult - 1) * d_H(u,v) + add`` -- computed from
        the spanner-side distance, so no exact distance is needed.
        """
        approx = self.distance(u, v)
        if approx == INFINITY:
            return 0.0
        return (self.guarantee.multiplicative - 1.0) * approx + self.guarantee.additive

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_spanner_edges(self) -> int:
        """Edges retained by the oracle."""
        return self.spanner.num_edges

    def compression_ratio(self) -> float:
        """Fraction of the host graph's edges the oracle keeps."""
        if self.graph.num_edges == 0:
            return 1.0
        return self.spanner.num_edges / self.graph.num_edges

    def _distances_from(self, source: int) -> Dict[int, int]:
        if self._cache_sources and source in self._cache:
            return self._cache[source]
        distances = bfs_distances(self.spanner, source)
        if self._cache_sources:
            self._cache[source] = distances
        return distances
