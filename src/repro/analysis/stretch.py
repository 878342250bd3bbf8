"""Stretch verification: does a candidate spanner satisfy its guarantee?

Provides exact (all-pairs) and sampled-pairs verification, plus the bucketed
"additive surplus vs. original distance" view that reproduces what the paper's
Figure 7/8 argument is about: near-additive spanners distort *large* distances
only by the ``1 + eps`` factor, with a fixed additive term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.parameters import StretchGuarantee
from ..graphs.distances import INFINITY, array_vectors, sample_vertex_pairs
from ..graphs.graph import Graph
from ..kernels import require_numpy

#: Graphs of at most this many vertices get an exhaustive (all-pairs) stretch
#: check; larger ones are checked on sampled pairs.
EXHAUSTIVE_MAX_VERTICES = 60


@dataclass
class PairStretch:
    """Measured distances for a single vertex pair."""

    u: int
    v: int
    graph_distance: float
    spanner_distance: float


@dataclass
class StretchReport:
    """Aggregate stretch statistics over a set of vertex pairs."""

    pairs_checked: int
    max_multiplicative: float
    max_additive_surplus: float
    mean_multiplicative: float
    mean_additive_surplus: float
    violations: List[PairStretch] = field(default_factory=list)
    disconnected_mismatches: int = 0
    surplus_by_distance: Dict[int, float] = field(default_factory=dict)

    @property
    def satisfies_guarantee(self) -> bool:
        """Whether no checked pair violated the guarantee (and connectivity was preserved)."""
        return not self.violations and self.disconnected_mismatches == 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary."""
        return {
            "pairs_checked": self.pairs_checked,
            "max_multiplicative": self.max_multiplicative,
            "max_additive_surplus": self.max_additive_surplus,
            "mean_multiplicative": self.mean_multiplicative,
            "mean_additive_surplus": self.mean_additive_surplus,
            "num_violations": len(self.violations),
            "disconnected_mismatches": self.disconnected_mismatches,
            "surplus_by_distance": dict(sorted(self.surplus_by_distance.items())),
        }


def _iter_pair_sources(
    graph: Graph,
    pairs: Optional[Sequence[Tuple[int, int]]],
) -> Dict[int, List[int]]:
    """Group the pairs to check by their first vertex (one BFS per source)."""
    grouped: Dict[int, List[int]] = {}
    if pairs is None:
        for u in graph.vertices():
            grouped[u] = [v for v in range(u + 1, graph.num_vertices)]
    else:
        for u, v in pairs:
            grouped.setdefault(u, []).append(v)
    return grouped


def evaluate_stretch(
    graph: Graph,
    spanner: Graph,
    guarantee: Optional[StretchGuarantee] = None,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    slack: float = 1e-9,
) -> StretchReport:
    """Measure the stretch of ``spanner`` relative to ``graph``.

    ``pairs=None`` checks *all* pairs (quadratic; use on small graphs), else
    only the given pairs.  When ``guarantee`` is supplied, every pair with
    ``d_H > mult * d_G + add`` is recorded as a violation; pairs connected in
    the graph but not in the spanner count as ``disconnected_mismatches``.
    """
    if graph.num_vertices != spanner.num_vertices:
        raise ValueError("graph and spanner must have the same vertex set")

    grouped = _iter_pair_sources(graph, pairs)
    checked = 0
    max_mult = 1.0
    max_add = 0.0
    sum_mult = 0.0
    sum_add = 0.0
    violations: List[PairStretch] = []
    disconnected = 0
    surplus_by_distance: Dict[int, float] = {}

    # The host-graph (and spanner) BFS sweeps go through the per-graph
    # distance caches, so repeated verification passes over the same build --
    # guarantee checks, sampled evaluation, additive-term fitting, histograms
    # -- each pay for every source's sweep at most once.
    graph_cache = graph.distance_cache()
    spanner_cache = spanner.distance_cache()

    inf = INFINITY
    if guarantee is not None:
        mult_bound = guarantee.multiplicative
        add_bound = guarantee.additive

    if array_vectors(graph.num_vertices):
        # Vectorized sweep.  All per-pair quantities are the same IEEE-754
        # operations as the scalar loop below, the running maxima are exact,
        # and the two means are accumulated *sequentially in the identical
        # pair order*, so the report matches the pure-Python backend
        # bit-for-bit (see tests/graphs/test_kernel_backends.py).
        np = require_numpy()
        neg_inf = -np.inf
        for source in sorted(grouped.keys()):
            targets = grouped[source]
            if not targets:
                continue
            t = np.asarray(targets, dtype=np.int64)
            dg_all = graph_cache.vector(source)[t]
            dh_all = spanner_cache.vector(source)[t]
            g_fin = dg_all != inf
            h_fin = dh_all != inf
            disconnected += int(np.count_nonzero(g_fin != h_fin))
            valid = g_fin & h_fin
            if not valid.any():
                continue
            dg = dg_all[valid]
            dh = dh_all[valid]
            checked += int(dg.size)
            surplus = dh - dg
            ratio = np.divide(dh, dg, out=np.ones_like(dh), where=dg != 0.0)
            peak = float(ratio.max())
            if peak > max_mult:
                max_mult = peak
            peak = float(surplus.max())
            if peak > max_add:
                max_add = peak
            # add.accumulate adds in order; np.sum would pair terms up.
            sum_mult = float(np.add.accumulate(np.concatenate(([sum_mult], ratio)))[-1])
            sum_add = float(np.add.accumulate(np.concatenate(([sum_add], surplus)))[-1])
            buckets = dg.astype(np.int64)
            bucket_peak = np.full(int(buckets.max()) + 1, neg_inf)
            np.maximum.at(bucket_peak, buckets, surplus)
            for b in np.flatnonzero(bucket_peak > neg_inf).tolist():
                value = float(bucket_peak[b])
                prev = surplus_by_distance.get(b)
                if prev is None:
                    surplus_by_distance[b] = value if value > 0.0 else 0.0
                elif value > prev:
                    surplus_by_distance[b] = value
            if guarantee is not None:
                viol = ~(dh <= mult_bound * dg + add_bound + slack)
                if viol.any():
                    tv = t[valid]
                    for i in np.flatnonzero(viol).tolist():
                        violations.append(
                            PairStretch(
                                source, int(tv[i]), float(dg[i]), float(dh[i])
                            )
                        )
        return StretchReport(
            pairs_checked=checked,
            max_multiplicative=max_mult,
            max_additive_surplus=max_add,
            mean_multiplicative=sum_mult / checked if checked else 1.0,
            mean_additive_surplus=sum_add / checked if checked else 0.0,
            violations=violations,
            disconnected_mismatches=disconnected,
            surplus_by_distance=surplus_by_distance,
        )

    for source in sorted(grouped.keys()):
        targets = grouped[source]
        if not targets:
            continue
        dist_graph = graph_cache.vector(source)
        dist_spanner = spanner_cache.vector(source)
        for v in targets:
            dg = dist_graph[v]
            dh = dist_spanner[v]
            if dg == inf:
                if dh != inf:
                    # A spanner is a subgraph, so this cannot happen; flag it.
                    disconnected += 1
                continue
            if dh == inf:
                disconnected += 1
                continue
            checked += 1
            # Inline PairStretch's derived quantities; the object itself is
            # only materialized for violations (the rare case).
            surplus = dh - dg
            ratio = dh / dg if dg else 1.0
            if ratio > max_mult:
                max_mult = ratio
            if surplus > max_add:
                max_add = surplus
            sum_mult += ratio
            sum_add += surplus
            bucket = int(dg)
            prev = surplus_by_distance.get(bucket)
            if prev is None:
                surplus_by_distance[bucket] = surplus if surplus > 0.0 else 0.0
            elif surplus > prev:
                surplus_by_distance[bucket] = surplus
            if guarantee is not None and not dh <= mult_bound * dg + add_bound + slack:
                violations.append(PairStretch(source, v, dg, dh))

    return StretchReport(
        pairs_checked=checked,
        max_multiplicative=max_mult,
        max_additive_surplus=max_add,
        mean_multiplicative=sum_mult / checked if checked else 1.0,
        mean_additive_surplus=sum_add / checked if checked else 0.0,
        violations=violations,
        disconnected_mismatches=disconnected,
        surplus_by_distance=surplus_by_distance,
    )


def evaluate_stretch_sampled(
    graph: Graph,
    spanner: Graph,
    num_pairs: int = 500,
    seed: int = 0,
    guarantee: Optional[StretchGuarantee] = None,
) -> StretchReport:
    """Sampled-pairs variant of :func:`evaluate_stretch` for larger graphs."""
    pairs = sample_vertex_pairs(graph.num_vertices, num_pairs, seed=seed)
    return evaluate_stretch(graph, spanner, guarantee=guarantee, pairs=pairs)


def evaluate_run_stretch(
    run,
    num_pairs: int = 400,
    seed: int = 0,
    guarantee: Optional[StretchGuarantee] = None,
) -> StretchReport:
    """Stretch report for a :class:`~repro.core.result.RunResult`.

    The unified-result accessor used by the registry facade, the CLI and the
    registry-driven guarantee tests: graph, spanner and declared guarantee are
    all read off the run.  Small graphs (at most
    :data:`EXHAUSTIVE_MAX_VERTICES` vertices, or ``num_pairs <= 0``) are
    checked exhaustively; larger ones on ``num_pairs`` sampled pairs.
    """
    if guarantee is None:
        guarantee = run.guarantee
    if num_pairs <= 0 or run.graph.num_vertices <= EXHAUSTIVE_MAX_VERTICES:
        return evaluate_stretch(run.graph, run.spanner, guarantee=guarantee)
    return evaluate_stretch_sampled(
        run.graph, run.spanner, num_pairs=num_pairs, seed=seed, guarantee=guarantee
    )


def empirical_additive_term(
    graph: Graph,
    spanner: Graph,
    multiplicative: float,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> float:
    """Measure the empirical additive term at a fixed multiplicative slack."""
    grouped = _iter_pair_sources(graph, pairs)
    best = 0.0
    graph_cache = graph.distance_cache()
    spanner_cache = spanner.distance_cache()
    if array_vectors(graph.num_vertices):
        # max() is exact, so the vectorized per-source maxima reproduce the
        # scalar fold bit-for-bit.
        np = require_numpy()
        for source in sorted(grouped.keys()):
            targets = grouped[source]
            if not targets:
                continue
            t = np.asarray(targets, dtype=np.int64)
            dg = graph_cache.vector(source)[t]
            dh = spanner_cache.vector(source)[t]
            valid = (dg != INFINITY) & (dh != INFINITY)
            if valid.any():
                peak = float((dh[valid] - multiplicative * dg[valid]).max())
                if peak > best:
                    best = peak
        return max(0.0, best)
    for source in sorted(grouped.keys()):
        dist_graph = graph_cache.vector(source)
        dist_spanner = spanner_cache.vector(source)
        for v in grouped[source]:
            dg, dh = dist_graph[v], dist_spanner[v]
            if dg == INFINITY or dh == INFINITY:
                continue
            best = max(best, dh - multiplicative * dg)
    return max(0.0, best)
