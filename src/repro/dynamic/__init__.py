"""Dynamic tier: edge-churn workloads and incremental spanner maintenance.

Three layers (PR 8):

* :mod:`repro.dynamic.deltas` / :mod:`repro.dynamic.traces` -- the churn
  workloads: canonical :class:`GraphDelta` batches and seeded, deterministic
  :class:`ChurnTrace` generators over the existing workload families;
* :mod:`repro.dynamic.maintenance` -- :class:`DynamicSpanner`, the
  incremental-maintenance wrapper around any registered algorithm with the
  ``supports_incremental`` capability hint, reporting every step as a
  wall-clock-free :class:`MaintenanceRecord`;
* :mod:`repro.dynamic.scenarios` -- the registered ``dynamic-churn`` /
  ``dynamic-growth`` pipeline scenarios (run by ``repro suite run --filter
  dynamic``), asserting guarantee preservation after every step.
"""

from .deltas import GraphDelta, apply_delta
from .maintenance import (
    CERTIFICATE_MODES,
    DECISIONS,
    DynamicSpanner,
    MaintenanceRecord,
    default_certificate_for,
)
from .scenarios import (
    CHURN_KINDS,
    dynamic_churn_spec,
    dynamic_growth_spec,
    incremental_algorithm_names,
)
from .traces import TRACE_KINDS, ChurnTrace, trace_from_params

__all__ = [
    "CERTIFICATE_MODES",
    "CHURN_KINDS",
    "ChurnTrace",
    "DECISIONS",
    "DynamicSpanner",
    "GraphDelta",
    "MaintenanceRecord",
    "TRACE_KINDS",
    "apply_delta",
    "default_certificate_for",
    "dynamic_churn_spec",
    "dynamic_growth_spec",
    "incremental_algorithm_names",
    "trace_from_params",
]
