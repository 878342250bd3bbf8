"""Incremental spanner maintenance: keep a guarantee alive under churn.

:class:`DynamicSpanner` wraps any registered algorithm whose spec opts in via
``supports_incremental`` and maintains its spanner across
:class:`~repro.dynamic.deltas.GraphDelta` batches:

* **Additions** are *absorbed*: a new graph edge enters the spanner only if
  the current spanner distance between its endpoints already violates the
  declared guarantee at ``d_G = 1`` (the greedy invariant).  For purely
  multiplicative guarantees this rule alone provably preserves the guarantee
  -- ``d_H(u, v) <= t`` for every edge ``{u, v}`` makes ``H`` a ``t``-spanner
  -- which is what makes growth-only maintenance asymptotically cheaper than
  rebuilding.
* **Removals** are repaired *scoped*: a removed edge that was not in the
  spanner cannot hurt (``d_G`` only grows, ``d_H`` is unchanged), and for
  each removed spanner edge whose endpoints now violate the guarantee, a
  current shortest path between them is spliced into the spanner.
* A **per-step certificate** then checks the guarantee from every vertex the
  delta touched (full distance vectors through the shared
  :class:`~repro.graphs.distances.DistanceCache`); near-additive guarantees
  are not edge-local, so when the certificate fails -- or the
  ``ops_since_rebuild`` budget is exhausted -- the wrapper lazily re-clusters
  by rebuilding from scratch on the current graph.

Every decision is reported through a :class:`MaintenanceRecord` whose
counters are wall-clock-free (edge counts, BFS distance queries, an abstract
``work_units`` cost), so the incremental-vs-rebuild crossover is measurable
and byte-identically reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..algorithms.registry import AlgorithmSpec, get_spec
from ..core.parameters import StretchGuarantee
from ..core.result import RunResult
from ..graphs.bfs import shortest_path
from ..graphs.distances import INFINITY
from ..graphs.graph import Edge, Graph, normalize_edge
from .deltas import GraphDelta

#: Certificate modes: ``touched`` sweeps BFS from every delta endpoint (edge
#: -local; exact for purely multiplicative guarantees), ``full`` verifies all
#: pairs (the only sound per-step certificate for near-additive guarantees,
#: whose stretch is not edge-local), ``none`` trusts absorption/repair alone.
CERTIFICATE_MODES = ("touched", "full", "none")

#: The three maintenance decisions, in escalation order.
DECISIONS = ("absorbed", "repaired", "rebuild")


def default_certificate_for(guarantee: StretchGuarantee) -> str:
    """The cheapest sound certificate mode for a declared guarantee."""
    return "touched" if guarantee.additive == 0 else "full"


@dataclass
class MaintenanceRecord:
    """Wall-clock-free account of one ``maintain(delta)`` step."""

    step: int
    num_add: int
    num_remove: int
    #: ``absorbed`` | ``repaired`` | ``rebuild``.
    decision: str = "absorbed"
    #: Why a rebuild happened (``None`` unless ``decision == "rebuild"``).
    rebuild_reason: Optional[str] = None
    #: New graph edges that violated the guarantee and entered the spanner.
    edges_inserted: int = 0
    #: Removed edges that were in the spanner (the repair frontier).
    spanner_edges_removed: int = 0
    #: Endpoint pairs repaired by splicing in a current shortest path.
    repairs: int = 0
    #: Edges added to the spanner by those repairs.
    repair_edges: int = 0
    #: Vertices the per-step certificate swept BFS from (0 for mode "none").
    certificate_vertices: int = 0
    #: Guarantee violations the certificate found (each one forces a rebuild).
    certificate_violations: int = 0
    #: Single-source distance-vector queries issued during the step.
    distance_queries: int = 0
    #: ops_since_rebuild *after* the step (0 right after a rebuild).
    ops_since_rebuild: int = 0
    #: Graph/spanner edge counts after the step.
    graph_edges: int = 0
    spanner_edges: int = 0

    @property
    def rebuilt(self) -> bool:
        return self.decision == "rebuild"

    @property
    def work_units(self) -> int:
        """Abstract incremental cost of the step (wall-clock-free).

        Distance-vector queries dominate real cost, so they are the unit;
        edge splices are counted too.  A rebuild is charged the full size of
        the graph it rebuilt on -- the same proxy the growth scenarios use
        for the rebuild-every-step strawman -- so crossover comparisons stay
        in one currency.
        """
        units = self.distance_queries + self.edges_inserted + self.repair_edges
        if self.rebuilt:
            units += self.graph_edges
        return units

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (what the dynamic scenarios put in their rows)."""
        return {
            "step": self.step,
            "num_add": self.num_add,
            "num_remove": self.num_remove,
            "decision": self.decision,
            "rebuild_reason": self.rebuild_reason,
            "edges_inserted": self.edges_inserted,
            "spanner_edges_removed": self.spanner_edges_removed,
            "repairs": self.repairs,
            "repair_edges": self.repair_edges,
            "certificate_vertices": self.certificate_vertices,
            "certificate_violations": self.certificate_violations,
            "distance_queries": self.distance_queries,
            "ops_since_rebuild": self.ops_since_rebuild,
            "graph_edges": self.graph_edges,
            "spanner_edges": self.spanner_edges,
            "work_units": self.work_units,
        }


class DynamicSpanner:
    """Maintain a registered algorithm's spanner under edge churn.

    The wrapper owns a private copy of the host graph and the spanner built
    on it; callers mutate the pair exclusively through :meth:`maintain`.

    Parameters
    ----------
    algorithm:
        Registered algorithm name; its spec must set ``supports_incremental``
        and declare a guarantee (maintenance is meaningless without one).
    graph:
        Initial host graph (copied; the caller's object is never mutated).
    params:
        Algorithm parameter overrides (resolved through the spec's schema).
    seed:
        Seed for the initial build and every rebuild, so a maintained spanner
        and a from-scratch rebuild are comparable run-for-run.
    rebuild_budget:
        Maximum ``ops_since_rebuild`` (touched edges + repair edges) tolerated
        before a forced re-cluster; ``None`` disables budget-forced rebuilds
        and ``0`` degenerates to rebuild-every-step (the crossover strawman).
    certificate:
        Per-step certificate mode (see :data:`CERTIFICATE_MODES`); defaults
        to the cheapest sound mode for the declared guarantee.
    """

    def __init__(
        self,
        algorithm: str,
        graph: Graph,
        params: Optional[Mapping[str, object]] = None,
        *,
        seed: int = 0,
        rebuild_budget: Optional[int] = None,
        certificate: Optional[str] = None,
    ) -> None:
        spec: AlgorithmSpec = get_spec(algorithm)
        if not spec.supports_incremental:
            raise ValueError(
                f"algorithm {algorithm!r} does not support incremental "
                "maintenance (AlgorithmSpec.supports_incremental is False)"
            )
        self._spec = spec
        self._params = spec.resolve_params(params)
        guarantee = spec.declared_guarantee(self._params)
        if guarantee is None:
            raise ValueError(
                f"algorithm {algorithm!r} declares no stretch guarantee; "
                "there is nothing for incremental maintenance to preserve"
            )
        self.guarantee: StretchGuarantee = guarantee
        if certificate is None:
            certificate = default_certificate_for(guarantee)
        if certificate not in CERTIFICATE_MODES:
            raise ValueError(
                f"unknown certificate mode {certificate!r}; "
                f"choose from {CERTIFICATE_MODES!r}"
            )
        self.certificate = certificate
        self._seed = int(seed)
        if rebuild_budget is not None and rebuild_budget < 0:
            raise ValueError("rebuild_budget must be None or >= 0")
        self.rebuild_budget = rebuild_budget
        self.graph: Graph = graph.copy()
        self.spanner: Graph = Graph(0)  # replaced by the initial build
        self.ops_since_rebuild = 0
        self.rebuild_count = 0
        self.records: List[MaintenanceRecord] = []
        self._steps = 0
        self._rebuild()
        self.rebuild_count = 0  # the initial build is not a re-cluster

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> str:
        return self._spec.name

    @property
    def params(self) -> Dict[str, object]:
        return dict(self._params)

    def total_work_units(self) -> int:
        """Cumulative abstract cost over every maintain step so far."""
        return sum(record.work_units for record in self.records)

    def rebuild_equivalent(self) -> RunResult:
        """A from-scratch build on the *current* graph, same params and seed.

        The maintained spanner's correctness and sparseness are judged against
        this run (the dynamic scenarios' rebuild-equivalence check).
        """
        return self._spec.run(self.graph.copy(), self._params, seed=self._seed)

    # ------------------------------------------------------------------
    # The one mutation entry point
    # ------------------------------------------------------------------
    def maintain(self, delta: GraphDelta) -> MaintenanceRecord:
        """Apply one delta to the graph and keep the spanner's guarantee."""
        record = MaintenanceRecord(
            step=self._steps, num_add=delta.num_add, num_remove=delta.num_remove
        )
        self._steps += 1

        changed = self._apply_removals(delta, record)
        changed += self._absorb_additions(delta, record)

        # No-op edges (re-adding present ones, removing absent ones) cost
        # nothing: they neither spend budget nor trigger a certificate sweep.
        self.ops_since_rebuild += changed + record.repair_edges
        if changed and self.certificate != "none":
            self._run_certificate(delta, record)
        if record.certificate_violations:
            self._rebuild()
            record.decision = "rebuild"
            record.rebuild_reason = "certificate-failed"
        elif (
            self.rebuild_budget is not None
            and self.ops_since_rebuild > self.rebuild_budget
        ):
            self._rebuild()
            record.decision = "rebuild"
            record.rebuild_reason = "budget-exhausted"
        elif record.repairs or record.edges_inserted or record.spanner_edges_removed:
            record.decision = "repaired"

        record.ops_since_rebuild = self.ops_since_rebuild
        record.graph_edges = self.graph.num_edges
        record.spanner_edges = self.spanner.num_edges
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Step internals
    # ------------------------------------------------------------------
    def _apply_removals(self, delta: GraphDelta, record: MaintenanceRecord) -> int:
        """Drop removed edges from graph and spanner, then repair scoped.

        Only removed edges that were *in the spanner* can break the guarantee
        (for the others ``d_H`` is unchanged while the bound only loosens), so
        the repair loop walks exactly those endpoint pairs and splices in a
        current graph shortest path where the guarantee now fails.  Returns
        the number of edges actually removed from the graph.
        """
        if not delta.remove:
            return 0
        in_spanner = [
            edge for edge in delta.remove if self.spanner.has_edge(*edge)
        ]
        removed = self.graph.remove_edges(delta.remove)
        self.spanner.remove_edges(in_spanner)
        record.spanner_edges_removed = len(in_spanner)
        for u, v in in_spanner:
            d_graph = self.graph.distance_cache().distance(u, v)
            record.distance_queries += 1
            if d_graph == INFINITY:
                continue  # the graph itself lost the connection
            d_spanner = self.spanner.distance_cache().distance(u, v)
            record.distance_queries += 1
            if self.guarantee.allows(d_graph, d_spanner):
                continue
            path = shortest_path(self.graph, u, v)
            if path is None:  # pragma: no cover - guarded by d_graph above
                continue
            spliced = self.spanner.add_edges(
                normalize_edge(a, b) for a, b in zip(path, path[1:])
            )
            record.repairs += 1
            record.repair_edges += spliced
        return removed

    def _absorb_additions(self, delta: GraphDelta, record: MaintenanceRecord) -> int:
        """Add new edges to the graph; insert only guarantee-violating ones.

        Violation is judged against the spanner *before* this batch (one
        distance query per edge, all against the same cached state), then the
        violating edges enter in a single batch -- the absorbed edges rely on
        spanner paths that only get shorter, so the batch order cannot
        invalidate the decision.  Returns the number of genuinely new edges.
        """
        if not delta.add:
            return 0
        fresh = [edge for edge in delta.add if not self.graph.has_edge(*edge)]
        self.graph.add_edges(fresh)
        violating: List[Edge] = []
        cache = self.spanner.distance_cache()
        for u, v in fresh:
            record.distance_queries += 1
            if not self.guarantee.allows(1.0, cache.distance(u, v)):
                violating.append((u, v))
        record.edges_inserted = self.spanner.add_edges(violating)
        return len(fresh)

    def _run_certificate(self, delta: GraphDelta, record: MaintenanceRecord) -> None:
        """Verify the guarantee from the step's frontier (or everywhere).

        The touched frontier is sound for additions (any pair whose graph
        distance dropped routes through a new edge's endpoint, so its
        violation is visible from there) but not for removals, which lengthen
        *spanner* distances between pairs arbitrarily far from the removed
        edge.  A step that actually dropped spanner edges therefore escalates
        to the full sweep even in ``touched`` mode.
        """
        if self.certificate == "full" or record.spanner_edges_removed:
            sources: Tuple[int, ...] = tuple(self.graph.vertices())
        else:
            sources = delta.touched_vertices()
        record.certificate_vertices = len(sources)
        graph_cache = self.graph.distance_cache()
        spanner_cache = self.spanner.distance_cache()
        violations = 0
        for source in sources:
            d_graph = graph_cache.vector(source)
            d_spanner = spanner_cache.vector(source)
            record.distance_queries += 2
            for v in self.graph.vertices():
                dg = d_graph[v]
                if dg == INFINITY:
                    continue
                dh = d_spanner[v]
                if dh == INFINITY or not self.guarantee.allows(dg, dh):
                    violations += 1
        record.certificate_violations = violations

    def _rebuild(self) -> None:
        """Lazy re-cluster: rebuild from scratch on the current graph."""
        run = self._spec.run(self.graph, self._params, seed=self._seed)
        self.spanner = run.spanner
        self.ops_since_rebuild = 0
        self.rebuild_count += 1


__all__ = [
    "CERTIFICATE_MODES",
    "DECISIONS",
    "DynamicSpanner",
    "MaintenanceRecord",
    "default_certificate_for",
]
