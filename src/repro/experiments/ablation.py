"""Ablation experiments over the construction's three parameters.

Three ablations, all on the same workload:

* **epsilon sweep** -- the internal epsilon trades the additive term ``beta``
  against the multiplicative slack and the spanner size (paper eq. (17));
* **rho sweep** -- a larger ``rho`` shrinks the round budget's ``n^rho``
  factor but inflates ``beta`` through the ``1/rho`` exponent;
* **kappa sweep** -- a larger ``kappa`` sparsifies the spanner
  (``n^{1+1/kappa}``) at the cost of more phases and a larger ``beta``.

These are not paper artifacts; they document how the implementation responds
to its parameters and guard against regressions in the schedules.  Each
ablation is a pipeline scenario with one task per swept parameter value,
sharing a single measurement task function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.parameters import SpannerParameters
from ..graphs.generators import planted_partition_graph
from ..graphs.graph import Graph
from .registry import ScenarioSpec, register
from .results import ExperimentRecord
from .runner import measure_algorithm, measurement_row


def ablation_workload(params: Dict[str, object]) -> Graph:
    """The shared community workload of the ablations."""
    graph = params.get("graph")
    if isinstance(graph, Graph):
        return graph
    return planted_partition_graph(
        int(params["clusters"]),
        int(params["cluster_size"]),
        p_intra=float(params["p_intra"]),
        p_inter=float(params["p_inter"]),
        seed=int(params["graph_seed"]),
    )


def _axis_expand(axis: str, singular: str):
    """Expansion for one swept parameter: one task per value of ``axis``."""

    def expand(defaults: Dict[str, object]) -> List[Dict[str, object]]:
        values = list(defaults.pop(axis))
        return [dict(defaults, **{singular: value}) for value in values]

    return expand


def ablation_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Measure one parameter setting of a sweep on the shared workload."""
    parameters = SpannerParameters.from_internal_epsilon(
        float(params["epsilon"]), int(params["kappa"]), float(params["rho"])
    )
    graph = ablation_workload(params)
    measurement, _ = measure_algorithm(
        graph,
        str(params["algorithm"]),
        {
            "epsilon": float(params["epsilon"]),
            "kappa": int(params["kappa"]),
            "rho": float(params["rho"]),
            "epsilon_is_internal": True,
        },
        graph_name="ablation",
        sample_pairs=int(params["sample_pairs"]),
    )
    guarantee = parameters.stretch_bound()
    return {
        "epsilon": float(params["epsilon"]),
        "kappa": int(params["kappa"]),
        "rho": float(params["rho"]),
        "row": measurement_row(measurement),
        "beta": guarantee.additive,
        "multiplicative": guarantee.multiplicative,
        "round_bound": parameters.round_bound(graph.num_vertices),
        "num_phases": parameters.num_phases,
        "rounds": float(measurement.nominal_rounds or 0),
        "edges": float(measurement.num_spanner_edges),
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "guarantee_ok": bool(measurement.guarantee_satisfied),
    }


# ----------------------------------------------------------------------
# Merges: assemble each sweep's rows/series/checks
# ----------------------------------------------------------------------
def epsilon_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    record = ExperimentRecord(
        name="ablation-epsilon",
        description="Effect of the internal epsilon on beta, spanner size and rounds.",
        parameters={
            "kappa": defaults["kappa"],
            "rho": defaults["rho"],
            "n": payloads[0]["n"] if payloads else None,
        },
    )
    betas = [float(payload["beta"]) for payload in payloads]
    multiplicatives = [float(payload["multiplicative"]) for payload in payloads]
    for payload in payloads:
        row = dict(payload["row"])
        row["epsilon"] = payload["epsilon"]
        row["beta"] = payload["beta"]
        record.rows.append(row)
    record.series["epsilon"] = [float(payload["epsilon"]) for payload in payloads]
    record.series["beta"] = betas
    record.series["multiplicative"] = multiplicatives
    record.checks["beta-decreases-as-epsilon-grows"] = all(
        a >= b for a, b in zip(betas, betas[1:])
    )
    record.checks["multiplicative-grows-with-epsilon"] = all(
        a <= b + 1e-9 for a, b in zip(multiplicatives, multiplicatives[1:])
    )
    record.checks["all-guarantees-hold"] = all(bool(row["guarantee_ok"]) for row in record.rows)
    return record


def rho_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    record = ExperimentRecord(
        name="ablation-rho",
        description="Effect of rho on the theoretical round bound and the additive term.",
        parameters={
            "kappa": defaults["kappa"],
            "epsilon": defaults["epsilon"],
            "n": payloads[0]["n"] if payloads else None,
        },
    )
    for payload in payloads:
        row = dict(payload["row"])
        row["rho"] = payload["rho"]
        row["round_bound"] = payload["round_bound"]
        row["num_phases"] = payload["num_phases"]
        record.rows.append(row)
    record.series["rho"] = [float(payload["rho"]) for payload in payloads]
    record.series["rounds"] = [float(payload["rounds"]) for payload in payloads]
    record.checks["all-guarantees-hold"] = all(bool(row["guarantee_ok"]) for row in record.rows)
    record.checks["phase-count-never-increases-with-rho"] = all(
        a >= b for a, b in zip(
            [row["num_phases"] for row in record.rows],
            [row["num_phases"] for row in record.rows][1:],
        )
    )
    return record


def kappa_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    record = ExperimentRecord(
        name="ablation-kappa",
        description="Effect of kappa on spanner sparsity and phase count.",
        parameters={
            "epsilon": defaults["epsilon"],
            "rho": defaults["rho"],
            "n": payloads[0]["n"] if payloads else None,
        },
    )
    sizes = [float(payload["edges"]) for payload in payloads]
    for payload in payloads:
        row = dict(payload["row"])
        row["kappa"] = payload["kappa"]
        row["num_phases"] = payload["num_phases"]
        row["size_exponent_target"] = 1.0 + 1.0 / int(payload["kappa"])
        record.rows.append(row)
    record.series["kappa"] = [float(payload["kappa"]) for payload in payloads]
    record.series["spanner-edges"] = sizes
    record.checks["all-guarantees-hold"] = all(bool(row["guarantee_ok"]) for row in record.rows)
    record.checks["spanners-never-larger-than-input"] = all(
        s <= int(payload["m"]) for s, payload in zip(sizes, payloads)
    )
    return record


# ----------------------------------------------------------------------
# Specs and wrappers
# ----------------------------------------------------------------------
def _ablation_defaults(
    graph: Optional[Graph], graph_seed: int, sample_pairs: int
) -> Dict[str, object]:
    defaults: Dict[str, object] = {
        "clusters": 8,
        "cluster_size": 12,
        "p_intra": 0.5,
        "p_inter": 0.02,
        "graph_seed": graph_seed,
        "sample_pairs": sample_pairs,
        "algorithm": "new-centralized",
    }
    if graph is not None:
        defaults["graph"] = graph
    return defaults


def epsilon_ablation_spec(
    epsilons: Sequence[float] = (0.1, 0.25, 0.5, 0.9),
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    graph: Optional[Graph] = None,
    sample_pairs: int = 150,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-epsilon",
        description="Sweep the internal epsilon: beta vs. multiplicative slack vs. size.",
        tags=("ablation",),
        defaults=dict(
            _ablation_defaults(graph, 3, sample_pairs),
            epsilons=list(epsilons),
            kappa=kappa,
            rho=rho,
        ),
        expand=_axis_expand("epsilons", "epsilon"),
        workload=ablation_workload,
        workload_keys=("clusters", "cluster_size", "p_intra", "p_inter", "graph_seed"),
        task=ablation_task,
        merge=epsilon_merge,
        version="3",
    )


def rho_ablation_spec(
    rhos: Sequence[float] = (1.0 / 3.0, 0.4, 0.5),
    epsilon: float = 0.25,
    kappa: int = 3,
    graph: Optional[Graph] = None,
    sample_pairs: int = 150,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-rho",
        description="Sweep rho: the round budget's n^rho factor vs. the additive term.",
        tags=("ablation",),
        defaults=dict(
            _ablation_defaults(graph, 5, sample_pairs),
            rhos=list(rhos),
            epsilon=epsilon,
            kappa=kappa,
        ),
        expand=_axis_expand("rhos", "rho"),
        workload=ablation_workload,
        workload_keys=("clusters", "cluster_size", "p_intra", "p_inter", "graph_seed"),
        task=ablation_task,
        merge=rho_merge,
        version="3",
    )


def kappa_ablation_spec(
    kappas: Sequence[int] = (2, 3, 4),
    epsilon: float = 0.25,
    graph: Optional[Graph] = None,
    sample_pairs: int = 150,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-kappa",
        description="Sweep kappa (rho = 1/2 so every kappa is admissible): sparsity vs. phases.",
        tags=("ablation",),
        defaults=dict(
            _ablation_defaults(graph, 7, sample_pairs),
            kappas=list(kappas),
            epsilon=epsilon,
            rho=0.5,
        ),
        expand=_axis_expand("kappas", "kappa"),
        workload=ablation_workload,
        workload_keys=("clusters", "cluster_size", "p_intra", "p_inter", "graph_seed"),
        task=ablation_task,
        merge=kappa_merge,
        version="3",
    )


#: The registered ablation scenarios at their default scale.
EPSILON_ABLATION_SPEC = register(epsilon_ablation_spec())
RHO_ABLATION_SPEC = register(rho_ablation_spec())
KAPPA_ABLATION_SPEC = register(kappa_ablation_spec())


def run_epsilon_ablation(
    epsilons: Sequence[float] = (0.1, 0.25, 0.5, 0.9),
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    graph: Optional[Graph] = None,
    sample_pairs: int = 150,
) -> ExperimentRecord:
    """Sweep the internal epsilon and record guarantee / size / rounds."""
    from .pipeline import run_scenario

    return run_scenario(
        epsilon_ablation_spec(
            epsilons=epsilons, kappa=kappa, rho=rho, graph=graph, sample_pairs=sample_pairs
        )
    )


def run_rho_ablation(
    rhos: Sequence[float] = (1.0 / 3.0, 0.4, 0.5),
    epsilon: float = 0.25,
    kappa: int = 3,
    graph: Optional[Graph] = None,
    sample_pairs: int = 150,
) -> ExperimentRecord:
    """Sweep rho and record the round budget / beta trade-off."""
    from .pipeline import run_scenario

    return run_scenario(
        rho_ablation_spec(
            rhos=rhos, epsilon=epsilon, kappa=kappa, graph=graph, sample_pairs=sample_pairs
        )
    )


def run_kappa_ablation(
    kappas: Sequence[int] = (2, 3, 4),
    epsilon: float = 0.25,
    graph: Optional[Graph] = None,
    sample_pairs: int = 150,
) -> ExperimentRecord:
    """Sweep kappa (with rho = 1/2 so every kappa is admissible) and record sparsity."""
    from .pipeline import run_scenario

    return run_scenario(
        kappa_ablation_spec(
            kappas=kappas, epsilon=epsilon, graph=graph, sample_pairs=sample_pairs
        )
    )
