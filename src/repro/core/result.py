"""Result records produced by a spanner-construction run.

A :class:`SpannerResult` bundles the spanner itself with everything the
analysis and the benchmark harness need: per-phase statistics, the cluster
history (``P_0 .. P_ell`` and ``U_0 .. U_ell`` as frozen array-backed
:class:`~repro.core.cluster_table.FlatClusters` snapshots), the edge
provenance certificate and -- for the distributed engine -- the round ledger.
The per-phase records hold the only edge counts of a run: the per-step
totals of :meth:`SpannerResult.edges_by_step` are summed from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..congest.ledger import RoundLedger
from ..graphs.graph import Graph
from .certificate import INTERCONNECTION_STEP, SUPERCLUSTERING_STEP, SpannerCertificate
from .cluster_table import FlatClusters, flat_collections_partition_vertices
from .parameters import SpannerParameters


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
class SpannerResult:
    """Everything produced by one run of the spanner construction."""

    graph: Graph
    spanner: Graph
    parameters: SpannerParameters
    engine: str
    phase_records: List[PhaseRecord] = field(default_factory=list)
    cluster_history: List[FlatClusters] = field(default_factory=list)
    unclustered_history: List[FlatClusters] = field(default_factory=list)
    certificate: SpannerCertificate = field(default_factory=SpannerCertificate)
    ledger: Optional[RoundLedger] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges in the spanner ``H``."""
        return self.spanner.num_edges

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the host graph."""
        return self.graph.num_vertices

    @property
    def nominal_rounds(self) -> int:
        """Total scheduled CONGEST rounds (the ledger's, or the phase records' sum)."""
        if self.ledger is None:
            return sum(record.nominal_rounds for record in self.phase_records)
        return self.ledger.nominal_rounds

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
        """JSON-friendly summary (does not embed the graphs).

        Emits the unified run-result schema
        (:data:`repro.algorithms.result.RUN_RESULT_KEYS`) shared with every
        baseline, so consumers never see engine-specific key names.  The
        stretch bounds live under ``guarantee`` and the edge provenance under
        ``details["edges_by_step"]``.
        """
        from ..algorithms.result import RunResult

        return RunResult.from_spanner_result(self).to_dict()
