"""Experiment harness: a declarative scenario registry plus a generic pipeline.

Each paper table/figure module contributes only its paper-specific task,
merge and check logic as a registered :class:`ScenarioSpec`; expansion,
(parallel) execution, result caching and deterministic merging are the
pipeline's job (:mod:`repro.experiments.pipeline`), and re-run caching is the
store's (:mod:`repro.experiments.store`).
"""

from .ablation import (
    epsilon_ablation_spec,
    kappa_ablation_spec,
    rho_ablation_spec,
)
from .figures import (
    ALL_FIGURES,
    figure1_superclustering,
    figure2_bfs_trees,
    figure3_ruling_set,
    figure4_forest_paths,
    figure5_interconnection,
    figure6_cluster_hop,
    figure7_stretch_decomposition,
    figure8_segment_argument,
    figure_spec,
)
from .pipeline import (
    FAILURE_MANIFEST_SCHEMA,
    ScenarioOutcome,
    SuiteResult,
    TaskError,
    TaskSpec,
    run_scenario,
    run_suite,
    validate_failure_manifest,
)
from .registry import (
    ScenarioSpec,
    all_specs,
    ensure_builtin_specs,
    get_spec,
    register,
)
from .results import ExperimentRecord, save_records
from .runner import (
    Measurement,
    fit_power_law,
    measure_algorithm,
    measurement_row,
)
from .scaling import scaling_spec
from .store import ResultStore
from .table1 import table1_spec
from .table2 import table2_spec
from .workloads import default_parameters

__all__ = [
    "ALL_FIGURES",
    "ExperimentRecord",
    "FAILURE_MANIFEST_SCHEMA",
    "Measurement",
    "ResultStore",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SuiteResult",
    "TaskError",
    "TaskSpec",
    "all_specs",
    "default_parameters",
    "ensure_builtin_specs",
    "epsilon_ablation_spec",
    "figure1_superclustering",
    "figure2_bfs_trees",
    "figure3_ruling_set",
    "figure4_forest_paths",
    "figure5_interconnection",
    "figure6_cluster_hop",
    "figure7_stretch_decomposition",
    "figure8_segment_argument",
    "figure_spec",
    "fit_power_law",
    "get_spec",
    "kappa_ablation_spec",
    "measure_algorithm",
    "measurement_row",
    "register",
    "rho_ablation_spec",
    "run_scenario",
    "run_suite",
    "save_records",
    "scaling_spec",
    "table1_spec",
    "table2_spec",
    "validate_failure_manifest",
]
