"""Declarative scenario registry for the experiment layer.

A :class:`ScenarioSpec` is a *description* of one experiment scenario: which
workload it builds, which (parameter x engine/baseline) grid it sweeps, how a
single grid point is measured (``task``), and how the per-task payloads are
merged back into one :class:`~repro.experiments.results.ExperimentRecord`
(``merge``).  Specs carry no execution policy: the pipeline
(:mod:`repro.experiments.pipeline`) expands them into independent tasks and
runs those serially or process-parallel, with results cached in a
content-addressed store (:mod:`repro.experiments.store`).

Contracts the pipeline relies on:

* ``task(params, seed)`` must be a **module-level function** (it is shipped to
  worker processes by reference) and must be a pure function of its arguments:
  same params, same payload, no matter which process runs it.
* the payload must be JSON-serializable; it is canonicalized through a JSON
  round-trip before merging so cached and fresh results are indistinguishable.
* ``merge(defaults, payloads)`` receives the payloads in task order (expansion
  order, never completion order) and must be deterministic.
* wall-clock timing must never enter a payload -- the pipeline measures each
  task itself and reports timing through the suite manifest.

Scenario modules register their specs at import time via :func:`register`;
:func:`all_specs` imports every built-in scenario module on first use so the
registry is complete whether the caller arrived through the CLI, the test
suite, or a worker process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from .results import ExperimentRecord, canonical_json, stable_digest

Params = Dict[str, object]
TaskFn = Callable[[Params, int], Dict[str, object]]
MergeFn = Callable[[Params, List[Dict[str, object]]], ExperimentRecord]
CheckFn = Callable[[ExperimentRecord], bool]
WorkloadFn = Callable[[Params], Graph]
ExpandFn = Callable[[Params], List[Params]]

#: Scenario modules imported lazily to populate the registry (listing order is
#: always alphabetical by scenario name, regardless of import order).
_BUILTIN_SCENARIO_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.figures",
    "repro.experiments.scaling",
    "repro.experiments.ablation",
    "repro.experiments.families",
    "repro.experiments.chaos",
    # The dynamic tier lives in its own package (repro.dynamic) but its
    # scenarios register through this same registry like everyone else's.
    "repro.dynamic.scenarios",
)


def derive_seed(scenario: str, params: Mapping[str, object]) -> int:
    """Deterministic per-task seed: a stable function of (scenario, params).

    The pipeline passes this seed to every ``task(params, seed)`` call.  The
    built-in paper scenarios deliberately ignore it -- their seeds are pinned
    explicitly in the parameters so historical records stay reproducible --
    but new scenarios can use it as a ready-made, collision-free source of
    per-task randomness.
    """
    digest = hashlib.sha256(
        canonical_json([scenario, dict(params)]).encode("utf-8")
    ).hexdigest()
    return int(digest[:8], 16)


def fingerprint_graph(graph: Graph) -> str:
    """Content fingerprint of a workload graph (vertex count + sorted edges)."""
    return stable_digest([graph.num_vertices, sorted(graph.edge_set())])


def size_sweep_expand(defaults: Params) -> List[Params]:
    """Shared expansion for size sweeps: one task per size (crossed with an
    optional ``algorithms`` axis of registered algorithm names), with
    ``workload_seed = seed + position``.

    The seed-follows-sweep-position convention is load-bearing for store
    invalidation (inserting a size mid-list shifts every later task's key and
    workload), so every size-sweeping scenario must use this one expander.
    """
    sizes = list(defaults.pop("sizes"))
    algorithms = list(defaults.pop("algorithms")) if "algorithms" in defaults else [None]
    base_seed = int(defaults["seed"])
    points: List[Params] = []
    for index, size in enumerate(sizes):
        for algorithm in algorithms:
            point = dict(defaults, size=int(size), workload_seed=base_seed + index)
            if algorithm is not None:
                point["algorithm"] = algorithm
            points.append(point)
    return points


@dataclass(frozen=True)
class ScenarioSpec:
    """One declaratively-described experiment scenario.

    ``defaults`` are scalar parameters shared by every task; ``grid`` and
    ``matrix`` are cartesian axes (``matrix`` is, by convention, the
    engine/baseline axis).  A scenario needing a non-cartesian sweep (e.g.
    seeds derived from the position in a size sweep) supplies ``expand``
    instead, mapping the defaults to the explicit list of task parameter
    dicts.
    """

    name: str
    description: str
    task: TaskFn
    merge: MergeFn
    tags: Tuple[str, ...] = ()
    defaults: Mapping[str, object] = field(default_factory=dict)
    grid: Mapping[str, Sequence[object]] = field(default_factory=dict)
    matrix: Mapping[str, Sequence[object]] = field(default_factory=dict)
    expand: Optional[ExpandFn] = None
    workload: Optional[WorkloadFn] = None
    #: Names of the parameters that fully determine the workload graph.  When
    #: set, the pipeline fingerprints one graph per distinct value combination
    #: instead of once per task (tasks of a matrix sweep share the workload).
    workload_keys: Optional[Tuple[str, ...]] = None
    checks: Mapping[str, CheckFn] = field(default_factory=dict)
    version: str = "1"

    def task_params(self) -> List[Params]:
        """Expand the spec into the ordered list of per-task parameter dicts."""
        defaults = dict(self.defaults)
        if self.expand is not None:
            points = self.expand(defaults)
        else:
            axes = [(name, list(values)) for name, values in self.grid.items()]
            axes += [(name, list(values)) for name, values in self.matrix.items()]
            if axes:
                names = [name for name, _ in axes]
                points = [
                    dict(defaults, **dict(zip(names, combo)))
                    for combo in itertools.product(*(values for _, values in axes))
                ]
            else:
                points = [defaults]
        return [dict(point) for point in points]

    def workload_fingerprint(self, params: Params) -> str:
        """Fingerprint of the task's workload (content-addressed when possible)."""
        if self.workload is None:
            return "params:" + stable_digest(params)
        return "graph:" + fingerprint_graph(self.workload(params))

    def apply_checks(self, record: ExperimentRecord) -> None:
        """Evaluate the spec-level check functions into ``record.checks``."""
        for name, check in self.checks.items():
            record.checks[name] = bool(check(record))

    def with_defaults(self, **overrides: object) -> "ScenarioSpec":
        """A copy of the spec with some default parameters replaced."""
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise KeyError(
                f"scenario {self.name!r} has no defaults {sorted(unknown)!r}"
            )
        return dataclasses.replace(self, defaults=dict(self.defaults, **overrides))


_REGISTRY: Dict[str, ScenarioSpec] = {}
_BUILTINS_LOADED = False


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Register a scenario spec under its name (duplicate names are an error)."""
    if spec.name in _REGISTRY and _REGISTRY[spec.name] is not spec:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def ensure_builtin_specs() -> None:
    """Import every built-in scenario module so the registry is populated."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    for module in _BUILTIN_SCENARIO_MODULES:
        import_module(module)
    # Only mark loaded once every import succeeded, so a transient import
    # failure doesn't leave the registry silently partial forever.
    _BUILTINS_LOADED = True


def get_spec(name: str) -> ScenarioSpec:
    """Look up a scenario by name (loads the built-in scenarios on demand)."""
    ensure_builtin_specs()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def all_specs(filter_tag: Optional[str] = None) -> List[ScenarioSpec]:
    """Every registered scenario, sorted by name.

    ``filter_tag`` selects the one scenario of that exact name if there is
    one, and otherwise every scenario carrying it as a tag: ``"scaling"`` is
    the ``scaling`` scenario, not the three ``scaling``-tagged ones.
    """
    ensure_builtin_specs()
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if filter_tag is None:
        return specs
    if filter_tag in _REGISTRY:
        return [_REGISTRY[filter_tag]]
    return [spec for spec in specs if filter_tag in spec.tags]
