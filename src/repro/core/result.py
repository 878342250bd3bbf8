"""The one result type every registered algorithm returns.

A :class:`RunResult` is one record with the spanner, the declared stretch
guarantee, the nominal CONGEST round count (where the algorithm is
distributed), per-phase statistics and a JSON-safe :meth:`RunResult.to_dict`
in a single shared schema.  The baselines build it directly; the paper's two
engines build it in :func:`repro.core.phases.run_phases`, and also keep the
structure the analyses read: the :class:`PhaseRecord` of every phase, the
cluster history (``P_0 .. P_ell`` and ``U_0 .. U_ell`` as frozen array-backed
:class:`~repro.core.cluster_table.FlatClusters` snapshots), the edge
provenance certificate and -- for the distributed engine -- the round ledger.
The per-phase records hold the only edge counts of an engine run: the
per-step totals of :meth:`RunResult.edges_by_step` are summed from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..congest.ledger import RoundLedger
from ..graphs.graph import Graph
from .certificate import INTERCONNECTION_STEP, SUPERCLUSTERING_STEP, SpannerCertificate
from .cluster_table import FlatClusters, flat_collections_partition_vertices
from .parameters import SpannerParameters, StretchGuarantee

#: Schema identifier stamped into every serialized run result.
RUN_RESULT_SCHEMA = "repro-run-result/v1"

#: The exact keys, in order, of :meth:`RunResult.to_dict` output.
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
class PhaseRecord:
    """Per-phase statistics mirroring the quantities the paper's lemmas bound.

    Besides the scalar counts used for reporting, the record keeps the actual
    per-phase sets (popular centers ``W_i``, ruling set ``RS_i``, superclustered
    centers, interconnection pairs) so that the analysis module can verify the
    paper's lemmas on every run.
    """

    index: int
    stage: str
    delta: int
    degree_threshold: int
    num_clusters: int
    num_popular: int
    ruling_set_size: int
    num_superclustered: int
    num_unclustered: int
    superclustering_edges: int
    interconnection_edges: int
    interconnection_paths: int
    radius_bound: int
    nominal_rounds: int = 0
    simulated_rounds: int = 0
    #: Clusters the phase handed to the next one (``|P_{i+1}|``; 0 when the
    #: superclustering step is skipped or concluding).
    clusters_out: int = 0
    #: Constituent clusters absorbed into superclusters this phase (the number
    #: of spanned centers, i.e. the merge batch size).
    cluster_merges: int = 0
    #: Forest-path edges produced by the superclustering step (pre-dedup
    #: against the spanner; ``superclustering_edges`` counts only new ones).
    forest_edges: int = 0
    popular_centers: List[int] = field(default_factory=list)
    ruling_set: List[int] = field(default_factory=list)
    superclustered_centers: List[int] = field(default_factory=list)
    interconnection_pairs: List[tuple] = field(default_factory=list)

    def to_dict(self) -> Dict[str, int]:
        """JSON-friendly representation."""
        return {
            "index": self.index,
            "stage": self.stage,
            "delta": self.delta,
            "degree_threshold": self.degree_threshold,
            "num_clusters": self.num_clusters,
            "num_popular": self.num_popular,
            "ruling_set_size": self.ruling_set_size,
            "num_superclustered": self.num_superclustered,
            "num_unclustered": self.num_unclustered,
            "superclustering_edges": self.superclustering_edges,
            "interconnection_edges": self.interconnection_edges,
            "interconnection_paths": self.interconnection_paths,
            "radius_bound": self.radius_bound,
            "nominal_rounds": self.nominal_rounds,
            "simulated_rounds": self.simulated_rounds,
            "clusters_out": self.clusters_out,
            "cluster_merges": self.cluster_merges,
            "forest_edges": self.forest_edges,
        }


@dataclass
class RunResult:
    """Outcome of building one spanner, whichever algorithm built it."""

    algorithm: str
    graph: Graph
    spanner: Graph
    guarantee: Optional[StretchGuarantee] = None
    #: Fixed when the build returns, like :attr:`ledger_summary`: a reused
    #: simulator's ledger keeps counting, an old run's payload does not.
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
    # The engine runs' full structure; empty for every other algorithm.
    parameters: Optional[SpannerParameters] = None
    phase_records: List[PhaseRecord] = field(default_factory=list)
    cluster_history: List[FlatClusters] = field(default_factory=list)
    unclustered_history: List[FlatClusters] = field(default_factory=list)
    certificate: Optional[SpannerCertificate] = None
    ledger: Optional[RoundLedger] = None

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
        it goes when that harness reads :attr:`guarantee` (ROADMAP item 6).
        """
        return self.guarantee

    def phase(self, index: int) -> PhaseRecord:
        """The phase record with the given index."""
        for record in self.phase_records:
            if record.index == index:
                return record
        raise KeyError(f"no phase record with index {index}")

    def unclustered_partitions_vertices(self) -> bool:
        """Check Corollary 2.5 on this run: ``U_0, ..., U_ell`` partition ``V``.

        Both engines record flat snapshots, verified in one pass over their
        membership arrays.
        """
        return flat_collections_partition_vertices(
            self.unclustered_history, self.graph.num_vertices
        )

    def edges_by_step(self) -> Dict[str, int]:
        """New edges per construction step, summed over the phases, and the total."""
        records = self.phase_records
        return {
            SUPERCLUSTERING_STEP: sum(record.superclustering_edges for record in records),
            INTERCONNECTION_STEP: sum(record.interconnection_edges for record in records),
            "total": self.num_edges,
        }

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
