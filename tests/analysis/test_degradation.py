"""Tests for the fault-degradation verifiers (analysis/degradation.py)."""

from __future__ import annotations

import pytest

from repro.analysis.degradation import (
    degradation_summary,
    verify_degraded_exploration,
    verify_degraded_forest,
    verify_degraded_ruling_set,
)
from repro.congest import FaultPlan, ProtocolFault, Simulator
from repro.graphs import cycle_graph, gnp_random_graph, path_graph
from repro.primitives.bfs_forest import run_bfs_forest
from repro.primitives.exploration import run_bounded_exploration
from repro.primitives.ruling_set import run_ruling_set


# Every test runs once per kernel backend: a fault-free exploration under
# the numpy kernel is array-backed until the verifiers read its dicts.
pytestmark = pytest.mark.usefixtures("backend")


def _gnp(n=40, p=0.12, seed=7):
    return gnp_random_graph(n, p, seed=seed)


# ----------------------------------------------------------------------
# Fault-free runs pass everything
# ----------------------------------------------------------------------
def test_clean_forest_all_passed():
    graph = _gnp()
    forest = run_bfs_forest(Simulator(graph), sources=[0, 11], depth=4)
    report = verify_degraded_forest(graph, forest, [0, 11])
    assert report.all_passed, report.failures()
    assert report.safety_intact
    assert report.degraded() == []


def test_clean_exploration_all_passed():
    graph = _gnp()
    centers = list(range(0, 40, 5))
    result = run_bounded_exploration(Simulator(graph), centers, depth=2, cap=3)
    baseline = run_bounded_exploration(Simulator(graph), centers, depth=2, cap=3)
    report = verify_degraded_exploration(graph, result, baseline=baseline)
    assert report.all_passed, report.failures()


def test_clean_ruling_set_all_passed():
    graph = _gnp()
    result = run_ruling_set(Simulator(graph), range(40), q=2, c=2)
    report = verify_degraded_ruling_set(graph, range(40), result)
    assert report.all_passed, report.failures()


# ----------------------------------------------------------------------
# Faulted runs: safety survives, exactness may degrade
# ----------------------------------------------------------------------
def test_faulted_forest_safety_survives():
    graph = _gnp(48, 0.1, seed=3)
    plan = FaultPlan(seed=17, drop_rate=0.35, delay_rate=0.3, max_delay=2)
    forest = run_bfs_forest(Simulator(graph), sources=[0, 20], depth=4, fault_plan=plan)
    report = verify_degraded_forest(graph, forest, [0, 20])
    assert report.by_name("forest-parents-real-edges").passed
    assert report.safety_intact
    # Heavy drops on this seed strand some vertices.
    assert not report.by_name("forest-coverage-complete").passed
    summary = degradation_summary(report)
    assert summary["safety_intact"] is True
    assert "forest-coverage-complete" in summary["degraded"]


def test_faulted_exploration_safety_survives():
    graph = _gnp(40, 0.12, seed=9)
    centers = list(range(0, 40, 4))
    plan = FaultPlan(seed=5, drop_rate=0.4)
    baseline = run_bounded_exploration(Simulator(graph), centers, depth=2, cap=3)
    result = run_bounded_exploration(
        Simulator(graph), centers, depth=2, cap=3, fault_plan=plan
    )
    report = verify_degraded_exploration(graph, result, baseline=baseline)
    assert report.by_name("exploration-via-chains-real").passed
    assert report.by_name("exploration-distances-upper-bound-truth").passed
    assert report.safety_intact
    assert not report.by_name("exploration-knowledge-complete").passed
    assert result.fault_counters is not None
    assert result.fault_counters["dropped"] > 0


def test_faulted_ruling_set_domination_survives():
    graph = _gnp(48, 0.1, seed=21)
    plan = FaultPlan(seed=33, drop_rate=0.5)
    result = run_ruling_set(Simulator(graph), range(48), q=2, c=2, fault_plan=plan)
    report = verify_degraded_ruling_set(graph, range(48), result)
    assert report.by_name("ruling-set-subset-of-candidates").passed
    assert report.by_name("ruling-set-dominates").passed
    assert report.safety_intact
    assert result.fault_counters is not None
    assert result.fault_counters["dropped"] > 0


def test_faulted_primitives_deterministic():
    graph = _gnp(40, 0.12, seed=2)
    plan = FaultPlan(seed=8, drop_rate=0.3, crash_fraction=0.1, crash_round=3)

    def run_once():
        result = run_ruling_set(Simulator(graph), range(40), q=2, c=2, fault_plan=plan)
        return (sorted(result.ruling_set), result.fault_counters)

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# Verifier detection: corrupted structures are caught
# ----------------------------------------------------------------------
def test_forest_verifier_catches_fake_parent():
    graph = path_graph(6)
    forest = run_bfs_forest(Simulator(graph), sources=[0], depth=5)
    forest.parent[4] = 1  # not an edge of the path
    report = verify_degraded_forest(graph, forest, [0])
    assert not report.by_name("forest-parents-real-edges").passed
    assert not report.safety_intact


def test_exploration_verifier_catches_shortcut_distance():
    graph = cycle_graph(8)
    result = run_bounded_exploration(Simulator(graph), [0], depth=3, cap=2)
    # Claim a distance smaller than the real one: safety must trip.
    victim = [v for v in range(8) if result.known_dist[v].get(0) == 3][0]
    result.known_dist[victim][0] = 1
    report = verify_degraded_exploration(graph, result)
    assert not report.safety_intact


def test_ruling_set_verifier_catches_non_candidate():
    graph = path_graph(10)
    result = run_ruling_set(Simulator(graph), range(0, 10, 2), q=1, c=2)
    result.ruling_set.add(1)  # not a candidate
    report = verify_degraded_ruling_set(graph, range(0, 10, 2), result)
    assert not report.by_name("ruling-set-subset-of-candidates").passed


# ----------------------------------------------------------------------
# ProtocolFault: the typed terminal outcome
# ----------------------------------------------------------------------
def test_protocol_fault_carries_identity():
    err = ProtocolFault("bfs-forest", "round-timeout", attempts=3, fault_counters={"dropped": 5})
    assert err.label == "bfs-forest"
    assert err.reason == "round-timeout"
    assert err.attempts == 3
    assert err.fault_counters == {"dropped": 5}
    assert "3 attempts" in str(err)


def test_forest_attempts_recorded():
    graph = _gnp(30, 0.15, seed=4)
    plan = FaultPlan(seed=1, drop_rate=0.2)
    forest = run_bfs_forest(Simulator(graph), sources=[0], depth=3, fault_plan=plan, max_attempts=3)
    assert 1 <= forest.attempts <= 3
