"""Built-in algorithm registrations: the engine variants and every baseline.

Importing this module (done lazily by the registry) registers:

* ``new-centralized`` / ``new-distributed`` -- the paper's deterministic
  construction, as two specs sharing one parameter schema;
* ``elkin-neiman-2017`` -- the randomized [EN17]-style comparator;
* ``elkin-peleg-2001`` -- the centralized scan-based [EP01]-style scheme;
* ``elkin05-surrogate`` -- the sequential-selection surrogate of [Elk05];
* ``baswana-sen`` / ``greedy`` -- the multiplicative contrast class;
* the survey-tier siblings: ``elkin-mst-2017`` (the deterministic distributed
  MST on the CONGEST simulator), ``elkin-matar-linear`` /
  ``elkin-neiman-sparse`` (the doubly-exponential sparse-schedule spanners)
  and ``eest-low-stretch-tree`` (the average-stretch spanning tree).

Adding an algorithm is one :func:`~repro.algorithms.registry.register` call:
every registry-driven scenario matrix, the CLI and the guarantee property
tests pick it up automatically.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.capacity import MEASURED_HINTS_PATH, load_ladder
from ..baselines import (
    build_baswana_sen_spanner,
    build_elkin05_surrogate_spanner,
    build_elkin_matar_spanner,
    build_elkin_mst,
    build_elkin_neiman_spanner,
    build_elkin_neiman_sparse_spanner,
    build_elkin_peleg_spanner,
    build_greedy_spanner,
    build_low_stretch_tree,
)
from ..baselines.cluster_scan import sparse_schedules
from ..core.parameters import SpannerParameters, StretchGuarantee, guarantee_from_schedules, schedules
from ..core.spanner import ENGINE_CENTRALIZED, ENGINE_DISTRIBUTED, build_spanner, make_parameters
from ..graphs.graph import Graph
from .registry import AlgorithmSpec, ParamSpec, Params, register
from .result import RunResult

#: The committed measured capacity ladder (``capacity-ladder/v1``), written
#: by ``repro capacity --update-defaults`` (see :mod:`repro.analysis.capacity`
#: -- one shared path constant, so the writer and this reader cannot drift).
#: Registration reads the per-algorithm ``max_practical_vertices`` from it, so
#: the capability hints are *measured* numbers; the hand-set constants below
#: survive only as fallbacks for trees without the file.
MEASURED_CAPACITY_PATH = MEASURED_HINTS_PATH

_measured_hints_cache: Optional[Dict[str, int]] = None


def measured_capacity_hints() -> Dict[str, int]:
    """The measured ``algorithm -> max_practical_vertices`` map (cached).

    Empty when the committed ladder is missing or malformed -- registrations
    then keep their hand-set fallback hints.  When the committed ladder was
    measured under a different kernel backend than the one this process
    resolves to, a single :class:`RuntimeWarning` flags the hints as stale
    (capacities measured on one backend do not transfer to the other); the
    hints are still used -- they remain the best available estimate.
    """
    global _measured_hints_cache
    if _measured_hints_cache is None:
        hints: Dict[str, int] = {}
        ladder = load_ladder(MEASURED_CAPACITY_PATH)
        if ladder is not None:
            _warn_if_stale_backend(ladder)
            for name, entry in ladder.get("entries", {}).items():
                try:
                    capacity = int(entry["max_practical_vertices"])
                except (KeyError, TypeError, ValueError):
                    continue
                if capacity > 0:
                    hints[name] = capacity
        _measured_hints_cache = hints
    return _measured_hints_cache


def _warn_if_stale_backend(ladder: Dict[str, object]) -> None:
    """Warn (once per process; the caller caches) on a backend mismatch.

    Pre-PR-7 ladders carry no ``kernel_backend`` stamp; they are treated as
    unknown provenance and left unflagged rather than warned about on every
    import.
    """
    import warnings

    from ..kernels import active_backend

    recorded = ladder.get("kernel_backend")
    if not isinstance(recorded, str):
        return
    current = active_backend()
    if recorded != current:
        warnings.warn(
            f"measured capacity hints ({MEASURED_CAPACITY_PATH.name}) were "
            f"taken under the {recorded!r} kernel backend but this process "
            f"resolves to {current!r}; the capacities are stale -- re-measure "
            "with `repro capacity --update-defaults`",
            RuntimeWarning,
            stacklevel=3,
        )


def _measured_hint(name: str, fallback: Optional[int]) -> Optional[int]:
    """The measured capacity of ``name``, or the hand-set ``fallback``."""
    return measured_capacity_hints().get(name, fallback)


def capacity_provenance(name: str) -> Dict[str, object]:
    """Where an algorithm's ``max_practical_vertices`` hint comes from.

    ``{"capacity_source": "measured", ...}`` with the committed ladder's
    measurement metadata (budget, workload family, kernel backend/mode) when
    the hint was read from ``CAPACITY.json``; ``{"capacity_source":
    "fallback"}`` when the algorithm runs on its hand-set fallback (or no
    limit at all).  Surfaced by ``repro algorithms list --json`` so operators
    can tell honest measurements from placeholders.
    """
    provenance: Dict[str, object] = {"capacity_source": "fallback"}
    ladder = load_ladder(MEASURED_CAPACITY_PATH)
    if ladder is None:
        return provenance
    entry = ladder.get("entries", {}).get(name)
    if not isinstance(entry, dict):
        return provenance
    try:
        capacity = int(entry["max_practical_vertices"])
    except (KeyError, TypeError, ValueError):
        return provenance
    if capacity <= 0:
        return provenance
    provenance["capacity_source"] = "measured"
    for key in ("budget_seconds", "family", "kernel_backend", "kernel_mode"):
        if key in ladder:
            provenance[key] = ladder[key]
    provenance["budget_exhausted"] = bool(entry.get("budget_exhausted", False))
    return provenance


#: The shared parameter schema of every (1+eps, beta)-spanner construction.
STRETCH_PARAMS = (
    ParamSpec(
        "epsilon", 0.5,
        "stretch slack; user-facing unless epsilon_is_internal is set",
    ),
    ParamSpec("kappa", 3, "sparseness exponent: O(beta n^{1+1/kappa}) edges"),
    ParamSpec(
        "rho", 1.0 / 3.0,
        "round exponent: O(beta n^rho / rho) CONGEST rounds; 1/kappa <= rho <= 1/2",
    ),
    ParamSpec(
        "epsilon_is_internal", False,
        "interpret epsilon as the paper's internal (pre-rescaling) epsilon",
    ),
)

#: Schema of the purely multiplicative constructions.
MULTIPLICATIVE_PARAMS = (
    ParamSpec("kappa", 3, "stretch/sparsity trade-off: (2*kappa - 1)-spanner"),
)


def spanner_parameters(params: Params) -> SpannerParameters:
    """Resolve the shared stretch-parameter schema into :class:`SpannerParameters`."""
    return make_parameters(
        float(params["epsilon"]),
        int(params["kappa"]),
        float(params["rho"]),
        epsilon_is_internal=bool(params["epsilon_is_internal"]),
    )


def _reject_simulator(name: str, simulator: object) -> None:
    if simulator is not None:
        raise ValueError(f"algorithm {name!r} does not run on a CONGEST simulator")


# ----------------------------------------------------------------------
# The paper's deterministic algorithm (two engines, one parameter schema)
# ----------------------------------------------------------------------
def _engine_guarantee(params: Params) -> StretchGuarantee:
    return spanner_parameters(params).stretch_bound()


def build_new_centralized(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("new-centralized", simulator)
    result = build_spanner(
        graph, parameters=spanner_parameters(params), engine=ENGINE_CENTRALIZED
    )
    return RunResult.from_spanner_result(result)


def build_new_distributed(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    result = build_spanner(
        graph,
        parameters=spanner_parameters(params),
        engine=ENGINE_DISTRIBUTED,
        simulator=simulator,
    )
    return RunResult.from_spanner_result(result)


NEW_CENTRALIZED = register(
    AlgorithmSpec(
        name="new-centralized",
        description=(
            "The paper's deterministic superclustering-and-interconnection "
            "(1+eps, beta)-spanner; fast centralized reference engine."
        ),
        build=build_new_centralized,
        tags=("engine", "deterministic", "centralized", "near-additive", "paper"),
        params=STRETCH_PARAMS,
        guarantee=_engine_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("new-centralized", None),
    )
)

NEW_DISTRIBUTED = register(
    AlgorithmSpec(
        name="new-distributed",
        description=(
            "The same deterministic construction executed as a faithful CONGEST "
            "simulation with round/message accounting."
        ),
        build=build_new_distributed,
        tags=("engine", "deterministic", "distributed", "congest", "near-additive", "paper"),
        params=STRETCH_PARAMS,
        guarantee=_engine_guarantee,
        # Simulating every CONGEST round is the point, and the price; the
        # measured ladder says where a full simulated build stops being
        # interactive (hand-set 300 is the ladder-less fallback).  Per-step
        # rebuilds under churn would pay that simulation over and over, so the
        # dynamic tier wraps the centralized twin instead.
        supports_incremental=False,
        max_practical_vertices=_measured_hint("new-distributed", 300),
    )
)


# ----------------------------------------------------------------------
# Near-additive baselines
# ----------------------------------------------------------------------
def _cluster_scan_guarantee(params: Params) -> StretchGuarantee:
    parameters = spanner_parameters(params)
    return guarantee_from_schedules(*schedules(parameters.epsilon, parameters.num_phases, 1))


def build_elkin_neiman(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("elkin-neiman-2017", simulator)
    return build_elkin_neiman_spanner(graph, spanner_parameters(params), seed=seed)


ELKIN_NEIMAN = register(
    AlgorithmSpec(
        name="elkin-neiman-2017",
        description=(
            "Randomized [EN17]-style near-additive spanner: sampled cluster "
            "centers instead of the paper's deterministic ruling sets."
        ),
        build=build_elkin_neiman,
        tags=("baseline", "randomized", "centralized", "near-additive"),
        params=STRETCH_PARAMS,
        guarantee=_cluster_scan_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("elkin-neiman-2017", None),
    )
)


def build_elkin_peleg(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("elkin-peleg-2001", simulator)
    return build_elkin_peleg_spanner(graph, spanner_parameters(params))


ELKIN_PELEG = register(
    AlgorithmSpec(
        name="elkin-peleg-2001",
        description=(
            "Centralized [EP01]-style near-additive spanner: consecutive scans "
            "locate and merge popular cluster neighbourhoods."
        ),
        build=build_elkin_peleg,
        tags=("baseline", "deterministic", "centralized", "near-additive"),
        params=STRETCH_PARAMS,
        guarantee=_cluster_scan_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("elkin-peleg-2001", None),
    )
)


def _elkin05_guarantee(params: Params) -> StretchGuarantee:
    parameters = spanner_parameters(params)
    return guarantee_from_schedules(*schedules(parameters.epsilon, parameters.num_phases, 2))


def build_elkin05_surrogate(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("elkin05-surrogate", simulator)
    return build_elkin05_surrogate_spanner(graph, spanner_parameters(params))


ELKIN05_SURROGATE = register(
    AlgorithmSpec(
        name="elkin05-surrogate",
        description=(
            "Sequential-selection surrogate of the [Elk05] deterministic CONGEST "
            "algorithm (Table 1's superlinear-running-time comparator)."
        ),
        build=build_elkin05_surrogate,
        tags=("baseline", "deterministic", "congest", "near-additive"),
        params=STRETCH_PARAMS,
        guarantee=_elkin05_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("elkin05-surrogate", None),
    )
)


# ----------------------------------------------------------------------
# Multiplicative baselines
# ----------------------------------------------------------------------
def _baswana_sen_guarantee(params: Params) -> StretchGuarantee:
    return StretchGuarantee(
        multiplicative=float(2 * int(params["kappa"]) - 1), additive=0.0
    )


def build_baswana_sen(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("baswana-sen", simulator)
    return build_baswana_sen_spanner(graph, int(params["kappa"]), seed=seed)


BASWANA_SEN = register(
    AlgorithmSpec(
        name="baswana-sen",
        description=(
            "Baswana-Sen randomized (2*kappa - 1)-multiplicative spanner: the "
            "canonical multiplicative contrast class."
        ),
        build=build_baswana_sen,
        tags=("baseline", "randomized", "centralized", "multiplicative"),
        params=MULTIPLICATIVE_PARAMS,
        guarantee=_baswana_sen_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("baswana-sen", None),
    )
)


def _greedy_stretch(params: Params) -> int:
    stretch: Optional[object] = params.get("stretch")
    if stretch is None:
        return 2 * int(params["kappa"]) - 1
    return int(stretch)


def _greedy_guarantee(params: Params) -> StretchGuarantee:
    return StretchGuarantee(multiplicative=float(_greedy_stretch(params)), additive=0.0)


def build_greedy(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("greedy", simulator)
    return build_greedy_spanner(graph, _greedy_stretch(params))


GREEDY = register(
    AlgorithmSpec(
        name="greedy",
        description=(
            "Greedy [ADD+93] multiplicative spanner: the existentially optimal "
            "ground truth, inherently sequential and quadratic-ish."
        ),
        build=build_greedy,
        tags=("baseline", "deterministic", "centralized", "multiplicative"),
        params=MULTIPLICATIVE_PARAMS + (
            ParamSpec("stretch", None, "explicit stretch t; defaults to 2*kappa - 1"),
        ),
        guarantee=_greedy_guarantee,
        # Each candidate edge pays a bounded-depth BFS in the partial spanner;
        # the measured ladder says where the quadratic-ish scan stops being
        # interactive (hand-set 400 is the ladder-less fallback).
        supports_incremental=True,
        max_practical_vertices=_measured_hint("greedy", 400),
    )
)


# ----------------------------------------------------------------------
# Survey-tier siblings (PR 10)
# ----------------------------------------------------------------------
#: Parameter schema of the sparse-schedule ([EM19]/[EN16]-style) siblings.
SPARSE_PARAMS = (
    ParamSpec(
        "epsilon", 0.5,
        "internal stretch slack driving the distance thresholds",
    ),
    ParamSpec(
        "levels", 3,
        "doubly-exponential degree levels; spanner size exponent 1 + 1/2^levels",
    ),
)


def _sparse_args(params: Params) -> Dict[str, object]:
    return {"epsilon": float(params["epsilon"]), "levels": int(params["levels"])}


def _sparse_guarantee(params: Params) -> StretchGuarantee:
    return guarantee_from_schedules(*sparse_schedules(**_sparse_args(params)))


def build_elkin_matar(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("elkin-matar-linear", simulator)
    return build_elkin_matar_spanner(graph, **_sparse_args(params))


ELKIN_MATAR = register(
    AlgorithmSpec(
        name="elkin-matar-linear",
        description=(
            "Deterministic [EM19]-style linear-size-schedule spanner: a greedy "
            "scan superclusters doubly-exponentially popular neighbourhoods."
        ),
        build=build_elkin_matar,
        tags=("baseline", "deterministic", "centralized", "near-additive", "sparse"),
        params=SPARSE_PARAMS,
        guarantee=_sparse_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("elkin-matar-linear", None),
    )
)


def build_elkin_neiman_sparse(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("elkin-neiman-sparse", simulator)
    return build_elkin_neiman_sparse_spanner(graph, seed=seed, **_sparse_args(params))


ELKIN_NEIMAN_SPARSE = register(
    AlgorithmSpec(
        name="elkin-neiman-sparse",
        description=(
            "Randomized [EN16]-style very sparse spanner: 1/deg_i sampling on "
            "the doubly-exponential degree schedule."
        ),
        build=build_elkin_neiman_sparse,
        tags=("baseline", "randomized", "centralized", "near-additive", "sparse"),
        params=SPARSE_PARAMS,
        guarantee=_sparse_guarantee,
        supports_incremental=True,
        max_practical_vertices=_measured_hint("elkin-neiman-sparse", None),
    )
)


def build_elkin_mst_registered(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    return build_elkin_mst(graph, seed=seed, simulator=simulator)


ELKIN_MST = register(
    AlgorithmSpec(
        name="elkin-mst-2017",
        description=(
            "Elkin's deterministic distributed MST [Elk17] as a Boruvka "
            "fragment-merging CONGEST protocol; exact vs Kruskal by "
            "construction."
        ),
        build=build_elkin_mst_registered,
        tags=("baseline", "mst", "deterministic", "distributed", "congest"),
        params=(),
        guarantee=None,
        guarantee_kind="exact-mst",
        # Every build simulates the full Boruvka message schedule (same cost
        # profile as new-distributed): too expensive for per-step dynamic
        # rebuilds, and capped by the measured ladder (hand-set 300 is the
        # ladder-less fallback).
        supports_incremental=False,
        max_practical_vertices=_measured_hint("elkin-mst-2017", 300),
    )
)


def build_eest_tree(graph: Graph, params: Params, *, seed: int = 0, simulator=None) -> RunResult:
    _reject_simulator("eest-low-stretch-tree", simulator)
    return build_low_stretch_tree(graph)


EEST_LOW_STRETCH_TREE = register(
    AlgorithmSpec(
        name="eest-low-stretch-tree",
        description=(
            "Elkin-Emek-Spielman-Teng-style low-stretch spanning tree "
            "[EEST05]: star decomposition with a polylog average-stretch "
            "bound."
        ),
        build=build_eest_tree,
        tags=("baseline", "deterministic", "centralized", "tree"),
        params=(),
        guarantee=None,
        guarantee_kind="average-stretch",
        # A tree cannot absorb churn against a worst-case stretch bound (one
        # removed edge can disconnect it), so the dynamic tier's repair
        # argument does not apply.
        supports_incremental=False,
        max_practical_vertices=_measured_hint("eest-low-stretch-tree", None),
    )
)
