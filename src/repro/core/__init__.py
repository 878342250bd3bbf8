"""Core contribution: the deterministic near-additive spanner construction."""

from .certificate import (
    INTERCONNECTION_STEP,
    SUPERCLUSTERING_STEP,
    EdgeProvenance,
    SpannerCertificate,
)
from .cluster_table import (
    ClusterTable,
    FlatClusters,
    flat_collections_partition_vertices,
)
from .centralized import build_spanner_centralized
from .distributed import build_spanner_distributed
from .interconnection import (
    flatten_requests,
    interconnection_requests,
)
from .parameters import (
    CONCLUDING_STAGE,
    DEFAULT_PARAMETERS,
    EXPONENTIAL_STAGE,
    FIXED_STAGE,
    SpannerParameters,
    StretchGuarantee,
    guarantee_from_schedules,
)
from .result import PhaseRecord, RunResult
from .spanner import (
    ENGINE_CENTRALIZED,
    ENGINE_DISTRIBUTED,
    build_spanner,
    make_parameters,
)
from .superclustering import (
    deterministic_forest,
    forest_path_edges,
    spanned_center_roots,
)

__all__ = [
    "CONCLUDING_STAGE",
    "ClusterTable",
    "FlatClusters",
    "flat_collections_partition_vertices",
    "flatten_requests",
    "DEFAULT_PARAMETERS",
    "ENGINE_CENTRALIZED",
    "ENGINE_DISTRIBUTED",
    "EXPONENTIAL_STAGE",
    "EdgeProvenance",
    "FIXED_STAGE",
    "INTERCONNECTION_STEP",
    "PhaseRecord",
    "RunResult",
    "SUPERCLUSTERING_STEP",
    "SpannerCertificate",
    "SpannerParameters",
    "StretchGuarantee",
    "build_spanner",
    "build_spanner_centralized",
    "build_spanner_distributed",
    "deterministic_forest",
    "forest_path_edges",
    "guarantee_from_schedules",
    "interconnection_requests",
    "make_parameters",
    "spanned_center_roots",
]
