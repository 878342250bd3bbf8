"""Scenario families beyond the paper's tables and figures.

Three workload regimes the original suite never exercised, each a pipeline
scenario over the corresponding new generator family:

* **small-world** (Watts-Strogatz) -- ring lattices with rewired shortcuts:
  locally dense but globally short once a few chords appear, probing the
  transition between the large-diameter and expander regimes (measured on
  both engines);
* **geometric** (random geometric graphs) -- spatially clustered inputs with
  non-uniform degrees, where supercluster growth is genuinely local;
* **multi-component** -- disconnected unions of structurally distinct pieces:
  the spanner must preserve the component structure exactly and its guarantee
  must hold within every component.

Each scenario measures the deterministic algorithm per grid point and checks
the stretch guarantee, sparsity, and connectivity preservation; the
component-structure check is the scenario-specific piece (declared through
the spec's ``checks`` field).
"""

from __future__ import annotations

from typing import Dict, List

from ..graphs.components import num_components, same_component_structure
from ..graphs.generators import make_workload
from .registry import ScenarioSpec, register, size_sweep_expand
from .results import ExperimentRecord
from .runner import measure_algorithm, measurement_row


def family_workload(params: Dict[str, object]):
    """The graph of one family grid point (shared with fingerprinting)."""
    return make_workload(
        str(params["family"]), int(params["size"]), seed=int(params["workload_seed"])
    )


def family_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Measure one registered algorithm on one family grid point."""
    algorithm = str(params["algorithm"])
    graph = family_workload(params)
    measurement, run = measure_algorithm(
        graph,
        algorithm,
        {
            "epsilon": float(params["epsilon"]),
            "kappa": int(params["kappa"]),
            "rho": float(params["rho"]),
            "epsilon_is_internal": True,
        },
        graph_name=f"{params['family']}-{params['size']}",
        sample_pairs=int(params["sample_pairs"]),
        seed=int(params["workload_seed"]),
    )
    row = measurement_row(measurement)
    row["engine"] = run.engine
    row["components"] = num_components(graph)
    row["spanner_components"] = num_components(run.spanner)
    row["component_structure_preserved"] = same_component_structure(graph, run.spanner)
    return {
        "size": int(params["size"]),
        "algorithm": algorithm,
        "row": row,
        "edges": float(measurement.num_spanner_edges),
        "graph_edges": float(graph.num_edges),
        "guarantee_ok": bool(measurement.guarantee_satisfied),
    }


def family_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    """Assemble one family scenario's rows and per-size edge series."""
    family = str(defaults["family"])
    record = ExperimentRecord(
        name=f"family-{family.replace('_', '-')}",
        description=f"Deterministic spanner behaviour on the {family} workload family.",
        parameters={
            "family": family,
            "epsilon": defaults["epsilon"],
            "kappa": defaults["kappa"],
            "rho": defaults["rho"],
        },
    )
    for payload in payloads:
        record.rows.append(payload["row"])
    record.series["n"] = [float(payload["size"]) for payload in payloads]
    record.series["spanner-edges"] = [float(payload["edges"]) for payload in payloads]
    record.series["graph-edges"] = [float(payload["graph_edges"]) for payload in payloads]
    return record


def _guarantees_hold(record: ExperimentRecord) -> bool:
    return all(bool(row["guarantee_ok"]) for row in record.rows)


def _never_denser_than_input(record: ExperimentRecord) -> bool:
    return all(
        edges <= graph_edges + n
        for edges, graph_edges, n in zip(
            record.series["spanner-edges"], record.series["graph-edges"], record.series["n"]
        )
    )


def _components_preserved(record: ExperimentRecord) -> bool:
    return all(bool(row["component_structure_preserved"]) for row in record.rows)


_FAMILY_CHECKS = {
    "stretch-guarantees-hold": _guarantees_hold,
    "spanner-never-denser-than-input": _never_denser_than_input,
    "component-structure-preserved": _components_preserved,
}


def family_spec(
    family: str,
    name: str,
    description: str,
    sizes,
    algorithms=("new-centralized",),
    epsilon: float = 0.25,
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    seed: int = 29,
    sample_pairs: int = 120,
    extra_checks: Dict[str, object] = None,
) -> ScenarioSpec:
    """A measurement scenario over one workload family (size x algorithm grid).

    ``algorithms`` holds registered algorithm names (see
    ``repro.algorithms.select``); the default measures the paper's
    centralized engine.
    """
    checks = dict(_FAMILY_CHECKS)
    checks.update(extra_checks or {})
    return ScenarioSpec(
        name=name,
        description=description,
        tags=("family", "workload"),
        defaults={
            "family": family,
            "sizes": list(sizes),
            "algorithms": list(algorithms),
            "epsilon": epsilon,
            "kappa": kappa,
            "rho": rho,
            "seed": seed,
            "sample_pairs": sample_pairs,
        },
        expand=size_sweep_expand,
        workload=family_workload,
        workload_keys=("family", "size", "workload_seed"),
        task=family_task,
        merge=family_merge,
        checks=checks,
        version="2",
    )


def _multi_component_stays_disconnected(record: ExperimentRecord) -> bool:
    """The defining property of the family: more than one component survives."""
    return all(int(row["components"]) > 1 for row in record.rows)


#: The registered family scenarios.
SMALL_WORLD_SPEC = register(
    family_spec(
        "small_world",
        name="family-small-world",
        description=(
            "Watts-Strogatz small-world rewiring: locally dense ring lattices "
            "with shortcut chords, measured on both engines."
        ),
        sizes=(64, 128),
        algorithms=("new-centralized", "new-distributed"),
        seed=29,
    )
)

GEOMETRIC_SPEC = register(
    family_spec(
        "geometric",
        name="family-geometric",
        description=(
            "Random geometric graphs in the unit square: spatial clustering, "
            "non-uniform degrees, genuinely local neighbourhood growth."
        ),
        sizes=(96, 192),
        seed=31,
    )
)

MULTI_COMPONENT_SPEC = register(
    family_spec(
        "multi_component",
        name="family-multi-component",
        description=(
            "Disconnected unions of random, clustered and tree components: "
            "component structure must be preserved exactly."
        ),
        sizes=(96, 180),
        seed=37,
        extra_checks={"input-stays-disconnected": _multi_component_stays_disconnected},
    )
)


#: Scale-tier families (PR 5): the large-n generator families, measured at
#: sizes the historical suite never reached.  Each generator is O(n + m), so
#: these scenarios stay CI-friendly even at four-digit vertex counts.
POWERLAW_SPEC = register(
    family_spec(
        "powerlaw",
        name="family-powerlaw",
        description=(
            "Holme-Kim power-law graphs with tunable clustering: "
            "preferential-attachment hubs plus triangle closure, at "
            "scale-tier sizes."
        ),
        sizes=(128, 512),
        seed=41,
        sample_pairs=100,
    )
)

HYPERBOLIC_SPEC = register(
    family_spec(
        "hyperbolic",
        name="family-hyperbolic",
        description=(
            "Hyperbolic-like sparse graphs: Chung-Lu power-law hubs plus a "
            "random angular ring, the scale-tier's heterogeneous workload."
        ),
        sizes=(128, 512),
        algorithms=("new-centralized", "new-distributed"),
        seed=43,
        sample_pairs=100,
    )
)

TORUS_SPEC = register(
    family_spec(
        "torus",
        name="family-torus",
        description=(
            "2-D tori (batched lattice generation): the canonical "
            "large-diameter regular workload at scale-tier sizes."
        ),
        sizes=(256, 1024),
        seed=47,
        sample_pairs=100,
    )
)
