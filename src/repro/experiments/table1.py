"""Experiment T1 -- reproduce Table 1 of the paper.

Table 1 compares the only two deterministic CONGEST-model algorithms for
near-additive spanners: [Elk05] and the paper's new algorithm, along three
axes -- stretch ``(1 + eps, beta)``, spanner size and running time.

The reproduction has two parts:

1. **Theoretical rows** -- the published formulas evaluated numerically
   (``repro.analysis.bounds.table1_rows``), plus a ``kappa`` sweep of the two
   additive terms showing that the new algorithm's ``beta`` eventually drops
   below [Elk05]'s ``beta_E`` as ``kappa`` grows (the paper's "same ballpark
   as [EN17], much better than [Elk05]" claim).
2. **Measured rows** -- the new algorithm and the Elkin'05-style sequential
   surrogate (substitution 3 in :mod:`repro.baselines.elkin05_surrogate`)
   run on the same graphs over an ``n`` sweep.  The shape to reproduce is
   the running-time gap: the new algorithm's nominal round count grows like
   ``n^rho`` (sublinear), while the surrogate's grows superlinearly in ``n``.

This module holds only the paper-specific logic: the per-size measurement
task, the deterministic merge that rebuilds the table, and the
:class:`ScenarioSpec` registering both with the experiment pipeline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..analysis.bounds import beta_elkin05, beta_new, table1_rows
from ..graphs.generators import make_workload
from .registry import ScenarioSpec, register, size_sweep_expand
from .results import ExperimentRecord
from .runner import fit_power_law, measure_algorithm, measurement_row
from .workloads import default_parameters

_KAPPA_SWEEP = [4, 8, 16, 32, 64, 128, 256, 512]


def _workload_kwargs(params: Dict[str, object]) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    if params["family"] == "gnp" and params.get("edge_probability") is not None:
        kwargs["p"] = params["edge_probability"]
    return kwargs


def table1_workload(params: Dict[str, object]):
    """The measured-sweep graph at one grid point (shared with fingerprinting)."""
    return make_workload(
        str(params["family"]),
        int(params["size"]),
        seed=int(params["workload_seed"]),
        **_workload_kwargs(params),
    )


def table1_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Measure the new algorithm and the Elkin'05-style surrogate at one size."""
    parameters = default_parameters(
        float(params["epsilon"]), int(params["kappa"]), float(params["rho"])
    )
    stretch_pool = {
        "epsilon": float(params["epsilon"]),
        "kappa": int(params["kappa"]),
        "rho": float(params["rho"]),
        "epsilon_is_internal": True,
    }
    graph = table1_workload(params)
    family = str(params["family"])
    size = int(params["size"])
    sample_pairs = int(params["sample_pairs"])
    stretch_seed = int(params["seed"])

    measurement, run = measure_algorithm(
        graph,
        "new-centralized",
        stretch_pool,
        graph_name=f"{family}-{size}",
        sample_pairs=sample_pairs,
        seed=stretch_seed,
    )

    # Center-selection cost: the one step the paper derandomizes.  The new
    # algorithm pays a ruling-set computation, O(c * n^{1/c} * 2 delta_i)
    # rounds per phase with popular clusters; a sequential-scan selection
    # (the Elkin'05-style approach) pays O(|W_i| * 2 delta_i).
    c = parameters.domination_multiplier
    base = max(2, math.ceil(graph.num_vertices ** (1.0 / c)))
    selection_new = 0.0
    selection_sequential = 0.0
    for phase in run.phases:
        if int(phase["index"]) >= parameters.ell or int(phase["num_popular"]) == 0:
            continue
        selection_new += c * base * 2 * int(phase["delta"])
        selection_sequential += int(phase["num_popular"]) * 2 * int(phase["delta"])

    surrogate_measurement, _ = measure_algorithm(
        graph,
        "elkin05-surrogate",
        stretch_pool,
        graph_name=f"{family}-{size}",
        sample_pairs=sample_pairs,
        seed=stretch_seed,
    )

    return {
        "size": size,
        "row_new": dict(measurement_row(measurement), kind="measured"),
        "row_surrogate": dict(measurement_row(surrogate_measurement), kind="measured"),
        "rounds_new": float(measurement.nominal_rounds or 0),
        "rounds_surrogate": float(surrogate_measurement.nominal_rounds or 0),
        "selection_new": selection_new,
        "selection_sequential": selection_sequential,
        "edges_new": float(measurement.num_spanner_edges),
        "guarantee_ok": bool(
            measurement.guarantee_satisfied and surrogate_measurement.guarantee_satisfied
        ),
    }


def table1_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    """Rebuild Table 1 from the per-size payloads (theory rows + measured sweep)."""
    epsilon = float(defaults["epsilon"])
    kappa = int(defaults["kappa"])
    rho = float(defaults["rho"])
    sizes = [int(payload["size"]) for payload in payloads]
    record = ExperimentRecord(
        name="table1-deterministic-congest",
        description=(
            "Table 1: deterministic CONGEST near-additive spanner algorithms "
            "(Elkin'05 vs. the new algorithm)."
        ),
        parameters={
            "epsilon": epsilon,
            "kappa": kappa,
            "rho": rho,
            "sizes": list(sizes),
            "family": defaults["family"],
        },
    )

    # ------------------------------------------------------------------
    # Part 1: the published formulas.
    # ------------------------------------------------------------------
    reference_n = max(sizes)
    for row in table1_rows(epsilon, kappa, rho, reference_n):
        entry = row.to_dict()
        entry["kind"] = "theory"
        record.rows.append(entry)

    beta_old_series = [beta_elkin05(epsilon, k, rho) for k in _KAPPA_SWEEP]
    beta_new_series = [beta_new(epsilon, k, rho) for k in _KAPPA_SWEEP]
    record.series["kappa-sweep"] = [float(k) for k in _KAPPA_SWEEP]
    record.series["beta-elkin05"] = beta_old_series
    record.series["beta-new"] = beta_new_series
    record.checks["beta-new-eventually-smaller"] = beta_new_series[-1] < beta_old_series[-1]

    # ------------------------------------------------------------------
    # Part 2: the measured comparison, merged in sweep order.
    # ------------------------------------------------------------------
    guarantee_ok = True
    for payload in payloads:
        record.rows.append(payload["row_new"])
        record.rows.append(payload["row_surrogate"])
        guarantee_ok = guarantee_ok and bool(payload["guarantee_ok"])

    new_rounds = [float(p["rounds_new"]) for p in payloads]
    surrogate_rounds = [float(p["rounds_surrogate"]) for p in payloads]
    new_selection_rounds = [float(p["selection_new"]) for p in payloads]
    surrogate_selection_rounds = [float(p["selection_sequential"]) for p in payloads]
    new_edges = [float(p["edges_new"]) for p in payloads]

    record.series["n"] = [float(s) for s in sizes]
    record.series["rounds-new"] = new_rounds
    record.series["rounds-elkin05-surrogate"] = surrogate_rounds
    record.series["selection-rounds-new"] = new_selection_rounds
    record.series["selection-rounds-sequential"] = surrogate_selection_rounds
    record.series["spanner-edges-new"] = new_edges

    new_exponent = fit_power_law(sizes, new_rounds)
    surrogate_exponent = fit_power_law(sizes, surrogate_rounds)
    selection_new_exponent = fit_power_law(sizes, new_selection_rounds)
    selection_sequential_exponent = fit_power_law(sizes, surrogate_selection_rounds)
    record.parameters["rounds-exponent-new"] = round(new_exponent, 3)
    record.parameters["rounds-exponent-elkin05-surrogate"] = round(surrogate_exponent, 3)
    record.parameters["selection-exponent-new"] = round(selection_new_exponent, 3)
    record.parameters["selection-exponent-sequential"] = round(selection_sequential_exponent, 3)

    record.checks["stretch-guarantees-hold"] = guarantee_ok
    record.checks["new-rounds-sublinear-in-n"] = new_exponent < 1.0
    record.checks["selection-rounds-grow-slower-than-sequential"] = (
        selection_new_exponent < selection_sequential_exponent + 1e-9
    )
    record.checks["selection-cheaper-at-largest-n"] = (
        new_selection_rounds[-1] <= surrogate_selection_rounds[-1] + 1e-9
    )
    record.checks["edges-scale-near-linearly"] = (
        fit_power_law(sizes, new_edges) < 1.0 + 1.0 / kappa + 0.35
    )
    record.add_note(
        "Round counts are nominal CONGEST rounds.  The 'selection' series isolates "
        "the center-selection step the paper derandomizes: the ruling-set approach "
        "costs ~n^{1/c} per phase while the sequential-scan approach costs ~|W_i| "
        "(linear in n on dense inputs), which is the source of Elkin'05's superlinear "
        "running time (see substitution 3 in repro.baselines.elkin05_surrogate)."
    )
    record.add_note(
        "Theory rows evaluate the published formulas with all O(1) constants set "
        "to 1, so only relative shapes (who grows faster in n / kappa) are meaningful."
    )
    return record


def table1_spec(
    sizes: Sequence[int] = (100, 200, 400),
    epsilon: float = 0.25,
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    family: str = "gnp",
    edge_probability: Optional[float] = 0.15,
    seed: int = 11,
    sample_pairs: int = 200,
) -> ScenarioSpec:
    """The Table 1 scenario at an arbitrary scale (the registry holds the CLI scale).

    Run it with :func:`~repro.experiments.pipeline.run_scenario`.  The
    measured sweep defaults to moderately dense ``G(n, p)`` graphs (constant
    ``p``): there a constant fraction of the clusters is popular in phase 0,
    which is the regime where the sequential-scan selection of the
    Elkin'05-style approach pays ``Theta(n)`` rounds while the ruling-set
    selection pays only ``~n^{1/c}`` -- the running-time gap Table 1 is about.
    """
    return ScenarioSpec(
        name="table1",
        description=(
            "Table 1: deterministic CONGEST near-additive spanner algorithms; "
            "theory rows plus a measured new-vs-Elkin'05-surrogate n sweep."
        ),
        tags=("table", "paper", "congest"),
        defaults={
            "sizes": list(sizes),
            "epsilon": epsilon,
            "kappa": kappa,
            "rho": rho,
            "family": family,
            "edge_probability": edge_probability,
            "seed": seed,
            "sample_pairs": sample_pairs,
        },
        expand=size_sweep_expand,
        workload=table1_workload,
        workload_keys=("family", "size", "workload_seed", "edge_probability"),
        task=table1_task,
        merge=table1_merge,
        version="3",
    )


#: The registered, CLI-scale Table 1 scenario.
TABLE1_SPEC = register(table1_spec(sizes=(80, 160, 320), sample_pairs=120))
