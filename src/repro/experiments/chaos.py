"""Chaos scenarios: fault injection vs. guarantee preservation.

Two pipeline scenarios drive the fault tier end to end:

* ``chaos-primitives`` -- every fault-hardened primitive (bounded
  exploration, BFS forest, ruling set) crossed with a palette of fault
  profiles (drops, duplicates, delays, crash-stop failures, a mixed storm).
  Each task runs the primitive under the injected :class:`FaultPlan`,
  re-verifies the paper's guarantees with the degradation verifiers, and
  reports which guarantee survived.
* ``chaos-sweep`` -- a drop-rate x crash-fraction grid over the BFS forest,
  mapping how exactness erodes while safety holds.

Every task terminates in one of three *typed* outcomes:

* ``"exact"`` -- all guarantees intact (always the case with no active plan);
* ``"verified-degraded"`` -- exactness lost but every safety guarantee
  re-verified against the real graph;
* ``"protocol-fault"`` -- the primitive gave up after its bounded retries
  and raised :class:`~repro.congest.errors.ProtocolFault`.

The scenario-level checks pin the fault tier's contract: every task reached
a typed outcome, safety survived every schedule that terminated, zero-fault
grid points stayed exact, and active plans actually injected faults.

Determinism: fault schedules are pure functions of the ``fault_seed``
parameter, so a fixed seed gives byte-identical records under ``--jobs 1``
and ``--jobs N`` (the pipeline's standard contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.degradation import (
    degradation_summary,
    verify_degraded_exploration,
    verify_degraded_forest,
    verify_degraded_ruling_set,
)
from ..congest import FaultPlan, ProtocolFault, Simulator
from ..graphs.generators import make_workload
from ..primitives.bfs_forest import run_bfs_forest
from ..primitives.exploration import run_bounded_exploration
from ..primitives.ruling_set import run_ruling_set
from .registry import ScenarioSpec, register
from .results import ExperimentRecord

#: The fault palette of ``chaos-primitives``: name -> FaultPlan field overrides.
FAULT_PROFILES: Dict[str, Dict[str, object]] = {
    "none": {},
    "drops": {"drop_rate": 0.25},
    "duplicates": {"duplicate_rate": 0.3},
    "delays": {"delay_rate": 0.3, "max_delay": 2},
    "crashes": {"crash_fraction": 0.1, "crash_round": 3},
    "mixed": {
        "drop_rate": 0.15,
        "duplicate_rate": 0.1,
        "delay_rate": 0.15,
        "max_delay": 2,
        "crash_fraction": 0.05,
        "crash_round": 4,
    },
}

CHAOS_PRIMITIVES = ("exploration", "bfs-forest", "ruling-set")

#: The three typed terminal outcomes of a chaos task.
OUTCOMES = ("exact", "verified-degraded", "protocol-fault")


def chaos_workload(params: Dict[str, object]):
    """The graph of one chaos grid point (shared with fingerprinting)."""
    return make_workload(
        "sparse_gnp", int(params["size"]), seed=int(params["workload_seed"])
    )


def _fault_plan(params: Dict[str, object], overrides: Dict[str, object]) -> FaultPlan:
    return FaultPlan(seed=int(params["fault_seed"]), **overrides)


def _counters_total(counters: Optional[Dict[str, int]]) -> int:
    """Total injected-fault events (crash count included, delay rounds not)."""
    if not counters:
        return 0
    return sum(v for k, v in counters.items() if k != "delay_rounds")


def _run_primitive(primitive: str, graph, plan: FaultPlan, max_attempts: int):
    """Run one hardened primitive; returns (report, counters, attempts).

    The degradation verifiers need a fault-free baseline for the exactness
    checks; it is computed in-task (pure, deterministic), so the payload
    stays a pure function of the parameters.
    """
    n = graph.num_vertices
    fault_kwargs = {"fault_plan": plan, "max_attempts": max_attempts} if plan.active else {}
    if primitive == "exploration":
        centers = list(range(0, n, 4))
        result = run_bounded_exploration(
            Simulator(graph), centers, depth=3, cap=3, **fault_kwargs
        )
        baseline = run_bounded_exploration(Simulator(graph), centers, depth=3, cap=3)
        report = verify_degraded_exploration(graph, result, baseline=baseline)
        return report, result.fault_counters, result.attempts
    if primitive == "bfs-forest":
        sources = sorted({0, n // 3, (2 * n) // 3})
        result = run_bfs_forest(Simulator(graph), sources, depth=4, **fault_kwargs)
        report = verify_degraded_forest(graph, result, sources)
        return report, result.run.fault_counters, result.attempts
    if primitive == "ruling-set":
        candidates = range(n)
        result = run_ruling_set(Simulator(graph), candidates, q=2, c=2, **fault_kwargs)
        report = verify_degraded_ruling_set(graph, candidates, result)
        return report, result.fault_counters, result.attempts
    raise ValueError(f"unknown primitive {primitive!r}")


def chaos_primitives_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Run one primitive under one fault profile and verify what survived."""
    primitive = str(params["primitive"])
    profile = str(params["profile"])
    graph = chaos_workload(params)
    plan = _fault_plan(params, dict(FAULT_PROFILES[profile]))
    row: Dict[str, object] = {
        "primitive": primitive,
        "profile": profile,
        "injected": plan.active,
        "fault_plan": plan.describe(),
    }
    try:
        report, counters, attempts = _run_primitive(
            primitive, graph, plan, int(params["max_attempts"])
        )
    except ProtocolFault as fault:
        row.update(
            outcome="protocol-fault",
            fault_reason=fault.reason,
            attempts=fault.attempts,
            safety_intact=None,
            all_passed=False,
            degraded=[],
            fault_counters=dict(fault.fault_counters or {}),
        )
        return {"row": row}
    summary = degradation_summary(report)
    row.update(
        outcome="exact" if summary["all_passed"] else "verified-degraded",
        attempts=attempts,
        safety_intact=summary["safety_intact"],
        all_passed=summary["all_passed"],
        degraded=summary["degraded"],
        fault_counters=dict(counters or {}),
    )
    return {"row": row}


def chaos_sweep_task(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """One (drop_rate, crash_fraction) grid point of the BFS-forest sweep."""
    graph = chaos_workload(params)
    plan = _fault_plan(
        params,
        {
            "drop_rate": float(params["drop_rate"]),
            "crash_fraction": float(params["crash_fraction"]),
            "crash_round": 3,
        },
    )
    row: Dict[str, object] = {
        "drop_rate": float(params["drop_rate"]),
        "crash_fraction": float(params["crash_fraction"]),
        "injected": plan.active,
    }
    try:
        report, counters, attempts = _run_primitive(
            "bfs-forest", graph, plan, int(params["max_attempts"])
        )
    except ProtocolFault as fault:
        row.update(
            outcome="protocol-fault",
            fault_reason=fault.reason,
            attempts=fault.attempts,
            safety_intact=None,
            all_passed=False,
            degraded=[],
            fault_counters=dict(fault.fault_counters or {}),
        )
        return {"row": row}
    summary = degradation_summary(report)
    row.update(
        outcome="exact" if summary["all_passed"] else "verified-degraded",
        attempts=attempts,
        safety_intact=summary["safety_intact"],
        all_passed=summary["all_passed"],
        degraded=summary["degraded"],
        fault_counters=dict(counters or {}),
    )
    return {"row": row}


def chaos_primitives_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    record = ExperimentRecord(
        name="chaos-primitives",
        description=(
            "Fault-hardened primitives under injected message drops, "
            "duplicates, delays and crash-stop failures: which guarantee "
            "survives which schedule."
        ),
        parameters={
            "size": defaults["size"],
            "fault_seed": defaults["fault_seed"],
            "max_attempts": defaults["max_attempts"],
        },
    )
    for payload in payloads:
        record.rows.append(payload["row"])
    return record


def chaos_sweep_merge(
    defaults: Dict[str, object], payloads: List[Dict[str, object]]
) -> ExperimentRecord:
    record = ExperimentRecord(
        name="chaos-sweep",
        description=(
            "BFS forest across a drop-rate x crash-fraction grid: exactness "
            "erodes with fault pressure while safety holds."
        ),
        parameters={
            "size": defaults["size"],
            "fault_seed": defaults["fault_seed"],
            "max_attempts": defaults["max_attempts"],
        },
    )
    for payload in payloads:
        record.rows.append(payload["row"])
    record.series["drop-rate"] = [float(p["row"]["drop_rate"]) for p in payloads]
    record.series["crash-fraction"] = [float(p["row"]["crash_fraction"]) for p in payloads]
    record.series["exactness-held"] = [
        1.0 if p["row"]["all_passed"] else 0.0 for p in payloads
    ]
    record.series["faults-injected"] = [
        float(_counters_total(p["row"]["fault_counters"])) for p in payloads
    ]
    return record


# ----------------------------------------------------------------------
# Scenario-level checks: the fault tier's contract
# ----------------------------------------------------------------------
def _all_tasks_terminated(record: ExperimentRecord) -> bool:
    """Every task reached one of the three typed terminal outcomes."""
    return all(row.get("outcome") in OUTCOMES for row in record.rows)


def _safety_survives(record: ExperimentRecord) -> bool:
    """Safety guarantees held on every run that terminated with a result."""
    return all(
        bool(row["safety_intact"])
        for row in record.rows
        if row["outcome"] != "protocol-fault"
    )


def _zero_fault_exact(record: ExperimentRecord) -> bool:
    """Grid points with no active fault plan stayed bit-exact."""
    return all(
        row["outcome"] == "exact" for row in record.rows if not row["injected"]
    )


def _faults_counted(record: ExperimentRecord) -> bool:
    """Every active plan that produced a result also injected counted faults."""
    return all(
        _counters_total(row["fault_counters"]) > 0
        for row in record.rows
        if row["injected"] and row["outcome"] != "protocol-fault"
    )


_CHAOS_CHECKS = {
    "all-tasks-terminated": _all_tasks_terminated,
    "safety-guarantees-survive": _safety_survives,
    "zero-fault-exact": _zero_fault_exact,
    "faults-counted": _faults_counted,
}


def chaos_primitives_spec(
    size: int = 48,
    fault_seed: int = 93,
    max_attempts: int = 3,
    profiles: Optional[List[str]] = None,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="chaos-primitives",
        description="primitive x fault-profile matrix with degradation verification",
        task=chaos_primitives_task,
        merge=chaos_primitives_merge,
        tags=("chaos", "faults"),
        defaults={
            "size": int(size),
            "workload_seed": 11,
            "fault_seed": int(fault_seed),
            "max_attempts": int(max_attempts),
        },
        grid={
            "primitive": list(CHAOS_PRIMITIVES),
            "profile": list(profiles) if profiles is not None else list(FAULT_PROFILES),
        },
        workload=chaos_workload,
        workload_keys=("size", "workload_seed"),
        checks=_CHAOS_CHECKS,
        version="1",
    )


def chaos_sweep_spec(
    size: int = 64,
    fault_seed: int = 187,
    max_attempts: int = 3,
    drop_rates: Optional[List[float]] = None,
    crash_fractions: Optional[List[float]] = None,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="chaos-sweep",
        description="BFS forest under a drop-rate x crash-fraction fault sweep",
        task=chaos_sweep_task,
        merge=chaos_sweep_merge,
        tags=("chaos", "faults", "sweep"),
        defaults={
            "size": int(size),
            "workload_seed": 29,
            "fault_seed": int(fault_seed),
            "max_attempts": int(max_attempts),
        },
        grid={
            "drop_rate": list(drop_rates) if drop_rates is not None else [0.0, 0.2, 0.4],
            "crash_fraction": (
                list(crash_fractions) if crash_fractions is not None else [0.0, 0.1]
            ),
        },
        workload=chaos_workload,
        workload_keys=("size", "workload_seed"),
        checks=_CHAOS_CHECKS,
        version="1",
    )


register(chaos_primitives_spec())
register(chaos_sweep_spec())
