"""Distributed CONGEST primitives used by the spanner construction."""

from .bfs_forest import ForestResult, forest_membership, run_bfs_forest
from .exploration import (
    CenterExploration,
    ExplorationResult,
    KnownCenter,
    centralized_engine_exploration,
    run_bounded_exploration,
)
from .fragments import MSFResult, run_boruvka_msf
from .ruling_set import (
    RulingSetResult,
    centralized_ruling_set,
    id_digits,
    run_ruling_set,
    verify_ruling_set,
)
from .traceback import (
    TracebackResult,
    centralized_traceback_flat,
    run_forest_path_markup,
    run_traceback,
)

__all__ = [
    "CenterExploration",
    "ExplorationResult",
    "ForestResult",
    "KnownCenter",
    "MSFResult",
    "RulingSetResult",
    "TracebackResult",
    "centralized_engine_exploration",
    "centralized_ruling_set",
    "centralized_traceback_flat",
    "forest_membership",
    "id_digits",
    "run_bfs_forest",
    "run_boruvka_msf",
    "run_bounded_exploration",
    "run_forest_path_markup",
    "run_ruling_set",
    "run_traceback",
    "verify_ruling_set",
]
