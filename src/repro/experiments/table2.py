"""Experiment T2 -- reproduce Table 2 (Appendix B) of the paper.

Table 2 surveys all known near-additive spanner constructions (centralized /
LOCAL / CONGEST, deterministic / randomized) by stretch, size and running
time.  The reproduction renders every row from the published formulas
(:func:`repro.analysis.bounds.table2_rows`) and then appends *measured*
columns for every algorithm we actually implemented:

* the new deterministic algorithm (both engines),
* the randomized Elkin-Neiman'17-style algorithm,
* the centralized Elkin-Peleg'01-style algorithm,
* Baswana-Sen (multiplicative) and the greedy multiplicative spanner.

The qualitative shape to reproduce: all near-additive constructions keep the
measured *multiplicative* distortion of long distances close to 1 (their extra
cost is an additive term), whereas the multiplicative baselines show ratios
approaching ``2 kappa - 1`` on long-diameter inputs, while all of them produce
spanners of comparable (``~ n^{1 + 1/kappa}``) size.

The engine/baseline axis is the scenario's *matrix*, and it is built from the
algorithm registry: every registered algorithm that is practical at the
workload size (:meth:`AlgorithmSpec.practical_for`, the capability hint that
replaced the old hard-coded "greedy only when n <= 400" rule) gets one
pipeline task, all measured on the same shared workload graph.  Registering a
new algorithm automatically adds its measured row to this table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..algorithms import get_spec as get_algorithm
from ..algorithms import select as select_algorithms
from ..analysis.bounds import table2_rows
from ..graphs.generators import clustered_path_graph
from ..graphs.graph import Graph
from .registry import ScenarioSpec, register
from .results import ExperimentRecord
from .runner import measure_algorithm, measurement_row

def table2_workload(params: Dict[str, object]) -> Graph:
    """The shared workload graph every algorithm of the matrix runs on."""
    graph = params.get("graph")
    if isinstance(graph, Graph):
        return graph
    n = int(params["n"])
    return clustered_path_graph(max(2, n // 10), 10)


def _stretch_parameter_pool(params: Dict[str, object]) -> Dict[str, object]:
    """The shared parameter pool each algorithm spec picks its subset from.

    The experiments use the internal-epsilon convention (human-scale phase
    thresholds); each spec's :meth:`subset_params` keeps exactly the
    parameters it declares, so e.g. ``greedy`` sees only ``kappa``.
    """
    return {
        "epsilon": float(params["epsilon"]),
        "kappa": int(params["kappa"]),
        "rho": float(params["rho"]),
        "epsilon_is_internal": True,
    }


def table2_expand(defaults: Dict[str, object]) -> List[Dict[str, object]]:
    """One task per registered algorithm practical at the workload size.

    The matrix is a registry query, not a hand-written list: every algorithm
    whose ``max_practical_vertices`` capability hint admits the workload is
    included (engine variants first).  The ``include_distributed`` /
    ``include_greedy`` flags remain as explicit opt-outs for callers that want
    a faster table.
    """
    graph = defaults.get("graph")
    if isinstance(graph, Graph):
        num_vertices = graph.num_vertices
    else:
        num_vertices = max(2, int(defaults["n"]) // 10) * 10
    excluded = set()
    if not defaults.get("include_distributed", True):
        excluded.add("new-distributed")
    if not defaults.get("include_greedy", True):
        excluded.add("greedy")
    return [
        dict(defaults, algorithm=spec.name)
        for spec in select_algorithms(max_vertices=num_vertices)
        if spec.name not in excluded
    ]


def table2_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Measure one algorithm of the matrix on the shared workload."""
    algorithm = str(params["algorithm"])
    spec = get_algorithm(algorithm)
    graph = table2_workload(params)
    measurement, _ = measure_algorithm(
        graph,
        algorithm,
        spec.subset_params(_stretch_parameter_pool(params)),
        graph_name="workload",
        sample_pairs=int(params["sample_pairs"]),
        seed=int(params["seed"]),
    )
    return {
        "algorithm": algorithm,
        "tags": sorted(spec.tags),
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "row": dict(measurement_row(measurement), kind="measured"),
        "guarantee_ok": bool(measurement.guarantee_satisfied),
    }


def table2_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    """Rebuild Table 2: formula rows plus the measured matrix rows."""
    epsilon = float(defaults["epsilon"])
    kappa = int(defaults["kappa"])
    rho = float(defaults["rho"])
    num_vertices = int(payloads[0]["n"])
    num_edges = int(payloads[0]["m"])
    record = ExperimentRecord(
        name="table2-survey",
        description=(
            "Table 2 (Appendix B): survey of near-additive spanner algorithms; "
            "formula rows plus measured rows for the implemented algorithms."
        ),
        parameters={
            "epsilon": epsilon,
            "kappa": kappa,
            "rho": rho,
            "n": num_vertices,
            "m": num_edges,
        },
    )

    for row in table2_rows(epsilon, kappa, rho, num_vertices, num_edges):
        entry = row.to_dict()
        entry["kind"] = "theory"
        record.rows.append(entry)

    measured = [payload["row"] for payload in payloads]
    guarantee_ok = all(bool(payload["guarantee_ok"]) for payload in payloads)
    record.rows.extend(measured)

    # Classify rows by their registry tags (carried in the payloads), not by
    # name patterns, so new registrations land in the right comparison class.
    near_additive = [
        payload["row"] for payload in payloads if "near-additive" in payload["tags"]
    ]
    multiplicative = [
        payload["row"] for payload in payloads if "multiplicative" in payload["tags"]
    ]
    record.checks["all-guarantees-hold"] = guarantee_ok
    if near_additive and multiplicative:
        best_near_additive_mult = min(float(row["measured_max_mult"]) for row in near_additive)
        worst_multiplicative_mult = max(float(row["measured_max_mult"]) for row in multiplicative)
        record.checks["near-additive-distorts-long-distances-less"] = (
            best_near_additive_mult <= worst_multiplicative_mult + 1e-9
        )
    sizes = [float(row["spanner_edges"]) for row in measured]
    record.checks["all-spanners-sparser-than-input"] = all(
        s <= num_edges + num_vertices for s in sizes
    )
    record.add_note(
        "Theory rows evaluate the published formulas with O(1) constants set to 1; "
        "measured rows report sampled-pair stretch on the shared workload graph."
    )
    return record


def table2_spec(
    n: int = 200,
    epsilon: float = 0.25,
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    graph: Optional[Graph] = None,
    seed: int = 5,
    sample_pairs: int = 300,
    include_distributed: bool = True,
    include_greedy: bool = True,
) -> ScenarioSpec:
    """The Table 2 scenario at an arbitrary scale (the registry holds the CLI scale).

    Passing an explicit ``graph`` puts a live Graph into the parameters, so
    the pipeline will refuse to run the spec with ``jobs > 1`` or a store
    attached — use it for in-process serial runs only.
    """
    defaults: Dict[str, object] = {
        "n": n,
        "epsilon": epsilon,
        "kappa": kappa,
        "rho": rho,
        "seed": seed,
        "sample_pairs": sample_pairs,
        "include_distributed": include_distributed,
        "include_greedy": include_greedy,
    }
    if graph is not None:
        defaults["graph"] = graph
    return ScenarioSpec(
        name="table2",
        description=(
            "Table 2 (Appendix B): survey formula rows plus a measured "
            "engine/baseline matrix on a shared clustered-path workload."
        ),
        tags=("table", "paper", "baselines"),
        defaults=defaults,
        expand=table2_expand,
        workload=table2_workload,
        workload_keys=("n",),
        task=table2_task,
        merge=table2_merge,
        version="3",
    )


#: The registered, CLI-scale Table 2 scenario.
TABLE2_SPEC = register(table2_spec(n=140, sample_pairs=150))


def run_table2(
    n: int = 200,
    epsilon: float = 0.25,
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    graph: Optional[Graph] = None,
    seed: int = 5,
    sample_pairs: int = 300,
    include_distributed: bool = True,
    include_greedy: bool = True,
) -> ExperimentRecord:
    """Regenerate Table 2: the survey rows plus measured rows for implemented algorithms."""
    from .pipeline import run_scenario

    return run_scenario(
        table2_spec(
            n=n,
            epsilon=epsilon,
            kappa=kappa,
            rho=rho,
            graph=graph,
            seed=seed,
            sample_pairs=sample_pairs,
            include_distributed=include_distributed,
            include_greedy=include_greedy,
        )
    )
