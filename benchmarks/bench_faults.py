"""Benchmark: cost of the fault-injection tier, on and off.

Pins the fault tier's two performance claims:

* **zero cost when off** -- a run with no fault plan (or an inactive one)
  checks no fault on delivery, so the golden BFS-forest counters stay
  bit-identical to the committed ``BENCH_seed.json`` baseline;
* **bounded cost when on** -- the fault filter in the simulator's delivery
  stage pays per-delivery bookkeeping; its wall-clock and injected-fault
  counters are recorded here so snapshots track the overhead across changes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.congest import FaultPlan, Simulator
from repro.graphs import planted_partition_graph
from repro.primitives.bfs_forest import run_bfs_forest

BENCH_SEED_PATH = Path(__file__).resolve().parent.parent / "BENCH_seed.json"

#: The fault schedule of the faulted-cost benchmark: every fault class active.
STORM_PLAN = FaultPlan(
    seed=41,
    drop_rate=0.15,
    duplicate_rate=0.1,
    delay_rate=0.15,
    max_delay=2,
    crash_fraction=0.05,
    crash_round=4,
)


def _digest(obj: object) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def forest_graph():
    """The golden BFS-forest workload of ``scripts/bench_compare.py``."""
    return planted_partition_graph(8, 12, p_intra=0.5, p_inter=0.03, seed=5)


@pytest.fixture(scope="module")
def golden_forest_counters():
    baseline = json.loads(BENCH_SEED_PATH.read_text(encoding="utf-8"))
    return baseline["golden"]["bfs-forest-planted96"]


def _forest_counters(run) -> dict:
    return {
        "rounds_executed": run.rounds_executed,
        "messages_delivered": run.messages_delivered,
        "words_delivered": run.words_delivered,
        "max_edge_congestion": run.max_edge_congestion,
        "results_digest": _digest(run.results),
    }


def test_no_plan_run_matches_the_seed_golden(benchmark, forest_graph, golden_forest_counters):
    forest = benchmark(
        lambda: run_bfs_forest(Simulator(forest_graph), sources=[0, 17, 55, 80], depth=6)
    )
    assert _forest_counters(forest.run) == golden_forest_counters
    assert forest.run.fault_counters is None
    benchmark.extra_info["rounds_executed"] = forest.run.rounds_executed
    benchmark.extra_info["messages"] = forest.run.messages_delivered


def test_inactive_plan_routes_through_the_fault_free_path(
    benchmark, forest_graph, golden_forest_counters
):
    # An all-zero plan runs exactly like no plan: the counters stay
    # bit-identical to the seed baseline and no fault bookkeeping is
    # attached to the run.
    idle_plan = FaultPlan(seed=41)
    assert not idle_plan.active
    forest = benchmark(
        lambda: run_bfs_forest(
            Simulator(forest_graph), sources=[0, 17, 55, 80], depth=6,
            fault_plan=idle_plan,
        )
    )
    assert _forest_counters(forest.run) == golden_forest_counters
    assert forest.run.fault_counters is None


def test_faulted_run_cost(benchmark, forest_graph):
    forest = benchmark(
        lambda: run_bfs_forest(
            Simulator(forest_graph), sources=[0, 17, 55, 80], depth=6,
            fault_plan=STORM_PLAN, max_attempts=3,
        )
    )
    counters = forest.run.fault_counters
    assert counters is not None
    injected = sum(v for k, v in counters.items() if k != "delay_rounds")
    assert injected > 0
    benchmark.extra_info["attempts"] = forest.attempts
    benchmark.extra_info["rounds_executed"] = forest.run.rounds_executed
    for key, value in counters.items():
        benchmark.extra_info[f"fault_{key}"] = value
