"""Greedy multiplicative spanner (Althofer et al. [ADD+93]).

Process the edges in a fixed order and add an edge only if the current
spanner distance between its endpoints exceeds the target stretch ``t``.
The result is a ``t``-spanner with at most ``n^{1 + 2/(t+1)}`` edges
(for ``t = 2 kappa - 1``, at most ``n^{1 + 1/kappa}`` edges) -- the
existentially optimal multiplicative trade-off.

The construction is inherently sequential and quadratic-ish; it is used on
small graphs only, as the "ground truth" sparsest multiplicative spanner
against which both the near-additive constructions and Baswana-Sen are
compared in Table 2's measured columns.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..algorithms.result import RunResult
from ..core.parameters import StretchGuarantee
from ..graphs.graph import Graph


def _bounded_distance(graph: Graph, source: int, target: int, limit: int) -> Optional[int]:
    """Distance from ``source`` to ``target`` if it is at most ``limit``, else ``None``."""
    if source == target:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u]
        if d >= limit:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = d + 1
                if v == target:
                    return d + 1
                queue.append(v)
    return None


def build_greedy_spanner(graph: Graph, stretch: int) -> RunResult:
    """Build a ``stretch``-multiplicative spanner greedily.

    Edges are processed in sorted order (the graph is unweighted, so any fixed
    order yields a valid spanner; sorting keeps the output deterministic).
    """
    if stretch < 1:
        raise ValueError("stretch must be >= 1")
    n = graph.num_vertices
    spanner = Graph(n)
    added = 0
    for u, v in sorted(graph.edges()):
        current = _bounded_distance(spanner, u, v, stretch)
        if current is None:
            spanner.add_edge(u, v)
            added += 1
    return RunResult(
        algorithm="greedy",
        graph=graph,
        spanner=spanner,
        guarantee=StretchGuarantee(multiplicative=float(stretch), additive=0.0),
        details={"stretch": stretch, "edges_added": added},
    )
