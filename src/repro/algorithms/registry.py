"""Declarative algorithm registry: one ``build()`` facade over every construction.

Mirrors the scenario registry of :mod:`repro.experiments.registry`: an
:class:`AlgorithmSpec` *describes* one spanner construction -- its name, tags
(``deterministic`` / ``randomized``, ``centralized`` / ``distributed``,
``near-additive`` / ``multiplicative``, ...), parameter schema with defaults,
declared guarantee formula, capability hints (e.g. the largest practical input
size) and the builder callable -- and the registry makes every construction
addressable by name:

    from repro import algorithms

    run = algorithms.build("greedy", graph, stretch=5)
    near_additive = algorithms.select(tags=("near-additive",))

Experiment scenarios derive their engine/baseline matrix axes from
:func:`select` instead of hard-coding name->lambda tables, so a newly
registered algorithm is picked up by every registry-driven scenario, the CLI
(``repro algorithms list`` / ``repro build --algorithm NAME``) and the
guarantee property tests without touching any of them.

Contracts:

* builders are **module-level callables** with signature
  ``build(graph, params, *, seed, simulator) -> RunResult`` where ``params``
  is the fully-resolved parameter dict (defaults filled in);
* deterministic algorithms ignore ``seed``; only the distributed engine
  accepts a ``simulator``;
* the returned :class:`~repro.core.result.RunResult` must carry the
  spec's registered name in ``RunResult.algorithm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.parameters import StretchGuarantee
from ..core.result import RunResult
from ..graphs.graph import Graph

Params = Dict[str, object]
BuildFn = Callable[..., RunResult]
GuaranteeFn = Callable[[Params], StretchGuarantee]

#: Module imported lazily to populate the registry with the built-in
#: algorithms (the engine variants and every implemented baseline).
_BUILTIN_ALGORITHM_MODULE = "repro.algorithms.builtin"

#: The guarantee kinds a spec may declare.  ``stretch`` is the spanner
#: family's per-pair ``(1 + eps, beta)`` bound; ``exact-mst`` promises the
#: exact minimum spanning forest under the canonical edge weights;
#: ``average-stretch`` bounds the stretch *averaged* over vertex pairs (the
#: low-stretch-tree contract).  :func:`repro.analysis.guarantees.verify_registered_guarantee`
#: dispatches on this field, so registering a new kind means teaching exactly
#: that one function how to check it.
GUARANTEE_KINDS = ("stretch", "exact-mst", "average-stretch")


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of an algorithm: name, default and meaning."""

    name: str
    default: object
    description: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (used by ``repro algorithms list --json`` and docs)."""
        return {
            "name": self.name,
            "default": self.default,
            "description": self.description,
        }


@dataclass(frozen=True)
class AlgorithmSpec:
    """One declaratively-described spanner construction.

    ``params`` is the full parameter schema: every parameter the builder
    accepts, with its default.  ``guarantee`` maps a resolved parameter dict
    to the declared :class:`StretchGuarantee` (``None`` when the algorithm
    declares no a-priori guarantee).  ``max_practical_vertices`` is a
    capability hint: pipelines skip the algorithm on larger inputs instead of
    hard-coding per-algorithm size rules.
    """

    name: str
    description: str
    build: BuildFn
    tags: Tuple[str, ...] = ()
    params: Tuple[ParamSpec, ...] = ()
    guarantee: Optional[GuaranteeFn] = None
    #: Largest vertex count the construction is practical for (``None`` =
    #: no declared limit).  Consulted uniformly via :meth:`practical_for`.
    max_practical_vertices: Optional[int] = None
    #: Capability hint consumed by the dynamic tier
    #: (:class:`repro.dynamic.DynamicSpanner`): whether rebuilding this
    #: construction per churn step is cheap enough that incremental
    #: maintenance can wrap it.  ``False`` for builders whose every run pays
    #: a cost far beyond the centralized references (e.g. a full CONGEST
    #: simulation).
    supports_incremental: bool = False
    #: Which *kind* of guarantee the algorithm makes (one of
    #: :data:`GUARANTEE_KINDS`); guarantee verification dispatches on it.
    guarantee_kind: str = "stretch"

    def __post_init__(self) -> None:
        if self.guarantee_kind not in GUARANTEE_KINDS:
            raise ValueError(
                f"algorithm {self.name!r} declares unknown guarantee kind "
                f"{self.guarantee_kind!r}; known: {GUARANTEE_KINDS!r}"
            )

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    def param_names(self) -> Tuple[str, ...]:
        """The declared parameter names, in schema order."""
        return tuple(spec.name for spec in self.params)

    def defaults(self) -> Params:
        """The default value of every declared parameter."""
        return {spec.name: spec.default for spec in self.params}

    def resolve_params(self, overrides: Optional[Mapping[str, object]] = None) -> Params:
        """Defaults overlaid with ``overrides``; unknown names are an error."""
        resolved = self.defaults()
        if overrides:
            unknown = sorted(set(overrides) - set(resolved))
            if unknown:
                raise KeyError(
                    f"algorithm {self.name!r} has no parameters {unknown!r}; "
                    f"declared: {sorted(resolved)!r}"
                )
            resolved.update(overrides)
        return resolved

    def subset_params(self, pool: Mapping[str, object]) -> Params:
        """The declared subset of a shared parameter pool.

        Scenario matrices measure heterogeneous algorithms against one common
        parameter dict (epsilon, kappa, rho, ...); each spec picks out exactly
        the parameters it declares, so e.g. ``greedy`` takes ``kappa`` and
        ignores ``epsilon`` without any per-algorithm case analysis.
        """
        names = set(self.param_names())
        return {key: value for key, value in pool.items() if key in names}

    # ------------------------------------------------------------------
    # Capability / guarantee queries
    # ------------------------------------------------------------------
    def practical_for(self, num_vertices: int) -> bool:
        """Whether the construction is practical on ``num_vertices`` vertices."""
        return (
            self.max_practical_vertices is None
            or num_vertices <= self.max_practical_vertices
        )

    def declared_guarantee(
        self, params: Optional[Mapping[str, object]] = None
    ) -> Optional[StretchGuarantee]:
        """The guarantee formula evaluated at (resolved) ``params``."""
        if self.guarantee is None:
            return None
        return self.guarantee(self.resolve_params(params))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        params: Optional[Mapping[str, object]] = None,
        *,
        seed: int = 0,
        simulator: object = None,
    ) -> RunResult:
        """Build a spanner of ``graph`` with resolved parameters."""
        resolved = self.resolve_params(params)
        result = self.build(graph, resolved, seed=seed, simulator=simulator)
        if result.algorithm != self.name:
            raise RuntimeError(
                f"builder of {self.name!r} returned a RunResult labelled "
                f"{result.algorithm!r}"
            )
        return result

    def describe(self) -> Dict[str, object]:
        """JSON-safe description (for CLI listings and generated docs)."""
        guarantee = self.declared_guarantee()
        return {
            "name": self.name,
            "description": self.description,
            "tags": list(self.tags),
            "params": [spec.to_dict() for spec in self.params],
            "guarantee_at_defaults": (
                None
                if guarantee is None
                else {
                    "multiplicative": guarantee.multiplicative,
                    "additive": guarantee.additive,
                }
            ),
            "max_practical_vertices": self.max_practical_vertices,
            "supports_incremental": self.supports_incremental,
            "guarantee_kind": self.guarantee_kind,
        }


_REGISTRY: Dict[str, AlgorithmSpec] = {}
_BUILTINS_LOADED = False


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register an algorithm spec under its name (duplicates are an error)."""
    if spec.name in _REGISTRY and _REGISTRY[spec.name] is not spec:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def ensure_builtin_algorithms() -> None:
    """Import the built-in algorithm module so the registry is populated."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    registered_before = set(_REGISTRY)
    try:
        import_module(_BUILTIN_ALGORITHM_MODULE)
    except BaseException:
        # A failed import leaves whatever registered before the failure in
        # _REGISTRY while Python drops the half-executed module from
        # sys.modules; the retry would then re-execute it and trip the
        # duplicate-name check forever.  Roll back so a retry starts clean.
        for name in set(_REGISTRY) - registered_before:
            del _REGISTRY[name]
        raise
    _BUILTINS_LOADED = True


def get_spec(name: str) -> AlgorithmSpec:
    """Look up an algorithm by name (loads the built-ins on demand)."""
    ensure_builtin_algorithms()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def all_specs() -> List[AlgorithmSpec]:
    """Every registered algorithm, sorted by name."""
    ensure_builtin_algorithms()
    return sorted(_REGISTRY.values(), key=lambda spec: spec.name)


def select(
    tags: Optional[Iterable[str]] = None,
    max_vertices: Optional[int] = None,
    supports_incremental: Optional[bool] = None,
) -> List[AlgorithmSpec]:
    """Registry query: algorithms carrying every given tag, practical at ``max_vertices``.

    This is the function scenario matrices build their algorithm axes from;
    engine variants (tag ``engine``) sort before baselines so comparison
    tables lead with the paper's algorithm.  ``supports_incremental`` (when
    not ``None``) additionally filters on the dynamic-tier capability hint.
    """
    wanted = set(tags or ())
    specs = [
        spec
        for spec in all_specs()
        if wanted <= set(spec.tags)
        and (max_vertices is None or spec.practical_for(max_vertices))
        and (
            supports_incremental is None
            or spec.supports_incremental == supports_incremental
        )
    ]
    specs.sort(key=lambda spec: (0 if "engine" in spec.tags else 1, spec.name))
    return specs


def algorithm_names() -> List[str]:
    """Sorted names of every registered algorithm."""
    return [spec.name for spec in all_specs()]


def build(
    name: str,
    graph: Graph,
    *,
    seed: int = 0,
    simulator: object = None,
    **params: object,
) -> RunResult:
    """The one public facade: build a spanner with any registered algorithm.

    ``params`` are the algorithm's declared parameters (see
    ``repro algorithms list``); unknown names raise :class:`KeyError`.
    ``seed`` feeds the randomized constructions (deterministic ones ignore
    it); ``simulator`` is accepted by the distributed engine only.
    """
    return get_spec(name).run(graph, params, seed=seed, simulator=simulator)
