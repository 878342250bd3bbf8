"""Dynamic scenarios: guarantee preservation under churn, via the pipeline.

Two registered scenarios drive the dynamic tier end to end:

* ``dynamic-churn`` -- every incremental-capable registered algorithm crossed
  with the steady-state churn kinds (``uniform``, ``sliding-window``,
  ``hotspot``).  Each task replays one churn trace through a
  :class:`~repro.dynamic.maintenance.DynamicSpanner` and, after *every* step,
  re-verifies the declared guarantee exhaustively on the post-delta graph
  (all-pairs stretch through the shared distance caches).
* ``dynamic-growth`` -- the same matrix on insert-only traces, where
  absorption is provably sufficient for the multiplicative class; on top of
  the per-step guarantee checks it pins the incremental-vs-rebuild crossover:
  the maintained spanner's abstract work must undercut the rebuild-every-step
  proxy on every edge-local (``touched``-certificate) task.

Both scenarios close with a rebuild-equivalence check: a from-scratch build
on the final graph (same parameters, same seed) must satisfy the same
guarantee, and the maintained spanner's edge count must stay within
``sparseness_slack`` of that rebuild's -- incremental maintenance may buy
speed with extra edges, but only boundedly many.

Determinism: churn traces are pure functions of their parameters (see
:mod:`repro.dynamic.traces`), tasks ignore the pipeline seed in favour of the
pinned ``workload_seed``, and no wall-clock ever enters a payload, so records
are byte-identical under ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import algorithms
from ..analysis.stretch import evaluate_stretch
from ..experiments.registry import ScenarioSpec, register
from ..experiments.results import ExperimentRecord
from .maintenance import DynamicSpanner
from .traces import trace_from_params

#: The steady-state churn kinds of ``dynamic-churn`` (growth has its own
#: scenario: its checks are stronger).
CHURN_KINDS = ("uniform", "sliding-window", "hotspot")

#: Default size of the dynamic workloads: small enough that every step's
#: all-pairs verification is cheap, large enough that traces are non-trivial.
DEFAULT_SIZE = 64


def incremental_algorithm_names(size: int) -> List[str]:
    """The matrix axis: every registered algorithm the dynamic tier can wrap."""
    return [
        spec.name
        for spec in algorithms.select(
            max_vertices=size, supports_incremental=True
        )
    ]


def dynamic_workload(params: Dict[str, object]):
    """The initial graph of one dynamic grid point (shared with fingerprints)."""
    return trace_from_params(params).initial_graph()


def _algorithm_params(algorithm: str, params: Dict[str, object]) -> Dict[str, object]:
    """The algorithm's declared subset of the scenario's shared parameter pool."""
    pool = {
        "epsilon": float(params["epsilon"]),
        "kappa": int(params["kappa"]),
        "rho": float(params["rho"]),
    }
    return algorithms.get_spec(algorithm).subset_params(pool)


def dynamic_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Replay one churn trace under incremental maintenance and verify it.

    One task = one (algorithm, churn kind) grid point.  The payload records,
    per step, the maintenance decision and counters plus the exhaustive
    stretch verdict on the post-delta graph, and, at the end, the
    rebuild-equivalence comparison.
    """
    algorithm = str(params["algorithm"])
    trace = trace_from_params(params)
    rebuild_budget = params.get("rebuild_budget")
    dynamic = DynamicSpanner(
        algorithm,
        trace.initial_graph(),
        _algorithm_params(algorithm, params),
        seed=int(params["workload_seed"]),
        rebuild_budget=None if rebuild_budget is None else int(rebuild_budget),
    )
    steps: List[Dict[str, object]] = []
    rebuild_proxy_work = 0
    for delta in trace.deltas():
        record = dynamic.maintain(delta)
        report = evaluate_stretch(
            dynamic.graph, dynamic.spanner, guarantee=dynamic.guarantee
        )
        step = record.to_dict()
        step["guarantee_ok"] = report.satisfies_guarantee
        step["max_multiplicative"] = report.max_multiplicative
        step["max_additive_surplus"] = report.max_additive_surplus
        step["subgraph_ok"] = dynamic.spanner.is_subgraph_of(dynamic.graph)
        steps.append(step)
        # What a rebuild-every-step policy would pay for this step, in the
        # same abstract currency MaintenanceRecord.work_units uses.
        rebuild_proxy_work += dynamic.graph.num_edges
    rebuild = dynamic.rebuild_equivalent()
    rebuild_report = evaluate_stretch(
        rebuild.graph, rebuild.spanner, guarantee=dynamic.guarantee
    )
    row: Dict[str, object] = {
        "algorithm": algorithm,
        "kind": str(params["kind"]),
        "certificate": dynamic.certificate,
        "guarantee": {
            "multiplicative": dynamic.guarantee.multiplicative,
            "additive": dynamic.guarantee.additive,
        },
        "trace_fingerprint": trace.fingerprint(),
        "initial_edges": trace.initial_graph().num_edges,
        "final_graph_edges": dynamic.graph.num_edges,
        "maintained_edges": dynamic.spanner.num_edges,
        "rebuilt_edges": rebuild.spanner.num_edges,
        "sparseness_ratio": (
            dynamic.spanner.num_edges / max(1, rebuild.spanner.num_edges)
        ),
        "rebuilds": dynamic.rebuild_count,
        "incremental_work": dynamic.total_work_units(),
        "rebuild_proxy_work": rebuild_proxy_work,
        "rebuild_guarantee_ok": rebuild_report.satisfies_guarantee,
        "steps_ok": all(step["guarantee_ok"] for step in steps),
        "steps": steps,
    }
    return {"row": row}


def dynamic_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    name = str(defaults["scenario_name"])
    record = ExperimentRecord(
        name=name,
        description=(
            "Incremental spanner maintenance under edge churn: per-step "
            "guarantee preservation, repair-vs-rebuild decisions and the "
            "incremental-vs-rebuild work crossover."
        ),
        parameters={
            key: defaults[key]
            for key in (
                "family",
                "size",
                "steps",
                "batch_size",
                "workload_seed",
                "epsilon",
                "kappa",
                "rho",
                "sparseness_slack",
            )
        },
    )
    for payload in payloads:
        record.rows.append(payload["row"])
    record.series["incremental-work"] = [
        float(p["row"]["incremental_work"]) for p in payloads
    ]
    record.series["rebuild-proxy-work"] = [
        float(p["row"]["rebuild_proxy_work"]) for p in payloads
    ]
    record.series["sparseness-ratio"] = [
        float(p["row"]["sparseness_ratio"]) for p in payloads
    ]
    return record


# ----------------------------------------------------------------------
# Scenario-level checks: the dynamic tier's contract
# ----------------------------------------------------------------------
def _guarantee_every_step(record: ExperimentRecord) -> bool:
    """The declared guarantee held after every single churn step."""
    return all(
        step["guarantee_ok"] for row in record.rows for step in row["steps"]
    )


def _spanner_stays_subgraph(record: ExperimentRecord) -> bool:
    """Maintenance never spliced in an edge the graph does not have."""
    return all(
        step["subgraph_ok"] for row in record.rows for step in row["steps"]
    )


def _rebuild_equivalence(record: ExperimentRecord) -> bool:
    """Final sparseness stays within the slack of a from-scratch rebuild,
    and that rebuild itself satisfies the declared guarantee."""
    slack = float(record.parameters["sparseness_slack"])
    return all(
        row["rebuild_guarantee_ok"] and float(row["sparseness_ratio"]) <= slack
        for row in record.rows
    )


def _decisions_recorded(record: ExperimentRecord) -> bool:
    """Every step terminated in a typed decision with consistent counters."""
    for row in record.rows:
        for step in row["steps"]:
            if step["decision"] not in ("absorbed", "repaired", "rebuild"):
                return False
            if (step["rebuild_reason"] is not None) != (
                step["decision"] == "rebuild"
            ):
                return False
    return True


def _incremental_beats_rebuild(record: ExperimentRecord) -> bool:
    """On growth traces, edge-local maintenance undercuts rebuild-every-step.

    Scoped to the ``touched``-certificate (purely multiplicative) tasks --
    the class where absorption is provably sufficient and the crossover is
    the point.  Near-additive tasks pay a full per-step certificate, so for
    them the aggregate across the matrix must still come out ahead.
    """
    touched = [row for row in record.rows if row["certificate"] == "touched"]
    if not touched:
        return False
    if not all(
        row["incremental_work"] < row["rebuild_proxy_work"] for row in touched
    ):
        return False
    total_incremental = sum(row["incremental_work"] for row in record.rows)
    total_proxy = sum(row["rebuild_proxy_work"] for row in record.rows)
    return total_incremental < total_proxy


_DYNAMIC_CHECKS = {
    "guarantee-preserved-every-step": _guarantee_every_step,
    "spanner-stays-subgraph": _spanner_stays_subgraph,
    "rebuild-equivalence-sparseness": _rebuild_equivalence,
    "decisions-recorded": _decisions_recorded,
}

_GROWTH_CHECKS = dict(
    _DYNAMIC_CHECKS, **{"incremental-beats-rebuild": _incremental_beats_rebuild}
)


def _dynamic_defaults(
    scenario_name: str,
    size: int,
    steps: int,
    batch_size: int,
    workload_seed: int,
    sparseness_slack: float,
) -> Dict[str, object]:
    return {
        "scenario_name": scenario_name,
        "family": "sparse_gnp",
        "size": int(size),
        "steps": int(steps),
        "batch_size": int(batch_size),
        "workload_seed": int(workload_seed),
        "epsilon": 0.5,
        "kappa": 3,
        "rho": 1.0 / 3.0,
        "rebuild_budget": None,
        "sparseness_slack": float(sparseness_slack),
    }


def dynamic_churn_spec(
    size: int = DEFAULT_SIZE,
    steps: int = 5,
    batch_size: int = 5,
    workload_seed: int = 23,
    sparseness_slack: float = 2.0,
    kinds: Optional[List[str]] = None,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="dynamic-churn",
        description=(
            "incremental maintenance under steady-state churn "
            "(uniform / sliding-window / hotspot), verified every step"
        ),
        task=dynamic_task,
        merge=dynamic_merge,
        tags=("dynamic", "churn"),
        defaults=_dynamic_defaults(
            "dynamic-churn", size, steps, batch_size, workload_seed, sparseness_slack
        ),
        grid={"kind": list(kinds) if kinds is not None else list(CHURN_KINDS)},
        matrix={"algorithm": incremental_algorithm_names(int(size))},
        workload=dynamic_workload,
        workload_keys=(
            "kind", "family", "size", "steps", "batch_size", "workload_seed"
        ),
        checks=_DYNAMIC_CHECKS,
        version="1",
    )


def dynamic_growth_spec(
    size: int = DEFAULT_SIZE,
    steps: int = 6,
    batch_size: int = 4,
    workload_seed: int = 41,
    sparseness_slack: float = 2.0,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="dynamic-growth",
        description=(
            "incremental maintenance on insert-only traces: guarantee "
            "preservation plus the incremental-vs-rebuild work crossover"
        ),
        task=dynamic_task,
        merge=dynamic_merge,
        tags=("dynamic", "growth"),
        defaults=_dynamic_defaults(
            "dynamic-growth", size, steps, batch_size, workload_seed, sparseness_slack
        ),
        grid={"kind": ["growth"]},
        matrix={"algorithm": incremental_algorithm_names(int(size))},
        workload=dynamic_workload,
        workload_keys=(
            "kind", "family", "size", "steps", "batch_size", "workload_seed"
        ),
        checks=_GROWTH_CHECKS,
        version="1",
    )


register(dynamic_churn_spec())
register(dynamic_growth_spec())


__all__ = [
    "CHURN_KINDS",
    "dynamic_churn_spec",
    "dynamic_growth_spec",
    "dynamic_task",
    "dynamic_workload",
    "incremental_algorithm_names",
]
