"""The one result type every registered algorithm returns.

:class:`RunResult` is one record with the spanner, the declared stretch
guarantee, the nominal CONGEST round count (where the algorithm is
distributed), per-phase records (where available) and a JSON-safe
:meth:`RunResult.to_dict` with a single shared schema.  The baselines build
it directly; the paper's engines build a :class:`~repro.core.result.SpannerResult`
and wrap it with :meth:`RunResult.from_spanner_result`.

For the engines, the :class:`SpannerResult` stays reachable through
:attr:`RunResult.source` for analyses that need the full structure (cluster
histories, certificates, ledgers); every other algorithm leaves it ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.parameters import StretchGuarantee
from ..graphs.graph import Graph

#: Schema identifier stamped into every serialized run result.
RUN_RESULT_SCHEMA = "repro-run-result/v1"

#: The exact keys, in order, of :meth:`RunResult.to_dict` output.
#: ``SpannerResult.to_dict`` emits this same schema (it delegates here), so
#: downstream consumers never see two shapes.
RUN_RESULT_KEYS = (
    "schema",
    "algorithm",
    "engine",
    "num_vertices",
    "num_graph_edges",
    "num_spanner_edges",
    "nominal_rounds",
    "guarantee",
    "phases",
    "details",
    "ledger",
)


@dataclass
class RunResult:
    """Outcome of building one spanner through the algorithm registry."""

    algorithm: str
    graph: Graph
    spanner: Graph
    guarantee: Optional[StretchGuarantee] = None
    nominal_rounds: Optional[int] = None
    #: ``"centralized"`` / ``"distributed"`` for the engine variants, ``None``
    #: for baselines (which carry no engine notion).
    engine: Optional[str] = None
    #: Per-phase statistics as JSON-safe dicts, where the algorithm tracks
    #: phases (the engine's :class:`PhaseRecord` dicts, the baselines' own
    #: per-phase stats); empty for phase-less constructions.
    phases: List[Dict[str, object]] = field(default_factory=list)
    #: Algorithm-specific extras (edge provenance summaries, sampling seeds,
    #: cleanup counts, ...).  Must stay JSON-safe.
    details: Dict[str, object] = field(default_factory=dict)
    #: Round-ledger summary for CONGEST-simulated runs, else ``None``.
    ledger_summary: Optional[Dict[str, object]] = None
    #: The engine's :class:`~repro.core.result.SpannerResult` for
    #: ``new-centralized`` / ``new-distributed``; ``None`` otherwise.
    source: object = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges in the produced spanner."""
        return self.spanner.num_edges

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the host graph."""
        return self.graph.num_vertices

    def effective_guarantee(self) -> Optional[StretchGuarantee]:
        """The same as :attr:`guarantee`; read that instead.

        Only the benchmark harness under ``perfbench/`` still calls this, and
        it goes when that harness reads :attr:`guarantee` (ROADMAP item 8).
        """
        return self.guarantee

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary in the single shared run-result schema."""
        guarantee = None
        if self.guarantee is not None:
            guarantee = {
                "multiplicative": self.guarantee.multiplicative,
                "additive": self.guarantee.additive,
            }
        return {
            "schema": RUN_RESULT_SCHEMA,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "num_vertices": self.num_vertices,
            "num_graph_edges": self.graph.num_edges,
            "num_spanner_edges": self.num_edges,
            "nominal_rounds": self.nominal_rounds,
            "guarantee": guarantee,
            "phases": [dict(phase) for phase in self.phases],
            "details": dict(self.details),
            "ledger": dict(self.ledger_summary) if self.ledger_summary else None,
        }

    # ------------------------------------------------------------------
    # Adapter from the engine result
    # ------------------------------------------------------------------
    @classmethod
    def from_spanner_result(cls, result) -> "RunResult":
        """Wrap a :class:`~repro.core.result.SpannerResult` (either engine)."""
        return cls(
            algorithm=f"new-{result.engine}",
            graph=result.graph,
            spanner=result.spanner,
            guarantee=result.parameters.stretch_bound(),
            nominal_rounds=result.nominal_rounds,
            engine=result.engine,
            phases=[record.to_dict() for record in result.phase_records],
            details={"edges_by_step": result.edges_by_step()},
            ledger_summary=(
                result.ledger.summary() if result.ledger is not None else None
            ),
            source=result,
        )
