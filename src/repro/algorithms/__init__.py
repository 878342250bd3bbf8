"""Algorithm registry: every spanner construction behind one ``build()`` facade.

Usage::

    from repro import algorithms

    run = algorithms.build("new-centralized", graph, epsilon=0.25,
                           epsilon_is_internal=True)
    run = algorithms.build("greedy", graph, stretch=5)

    for spec in algorithms.select(tags=("near-additive",)):
        print(spec.name, spec.declared_guarantee())

See :mod:`repro.algorithms.registry` for the spec/registry contracts and
:mod:`repro.algorithms.builtin` for the built-in registrations.
"""

from ..core.result import RUN_RESULT_KEYS, RUN_RESULT_SCHEMA, RunResult
from .registry import (
    GUARANTEE_KINDS,
    AlgorithmSpec,
    ParamSpec,
    algorithm_names,
    all_specs,
    build,
    ensure_builtin_algorithms,
    get_spec,
    register,
    select,
)

__all__ = [
    "GUARANTEE_KINDS",
    "RUN_RESULT_KEYS",
    "RUN_RESULT_SCHEMA",
    "AlgorithmSpec",
    "ParamSpec",
    "RunResult",
    "algorithm_names",
    "all_specs",
    "build",
    "ensure_builtin_algorithms",
    "get_spec",
    "register",
    "select",
]
