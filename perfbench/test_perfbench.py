"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from perfbench import hostspeed, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]

TINY_BUILDS = [
    workloads.BuildWorkload("tiny-central", "new-centralized", 300, 16, 4, graphs=2),
    workloads.BuildWorkload("tiny-congest", "new-distributed", 300, 16, 4, graphs=2),
]
TINY_SERVE = workloads.ServeWorkload(sizes=(24, 40), requests_per_second=48)


def _assert_clean(result, names):
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert list(result.metrics) == names
    for value, unit in result.metrics.values():
        assert isinstance(value, (int, float)) and unit


@pytest.mark.parametrize("workload", TINY_BUILDS, ids=lambda w: w.name)
def test_build_workload_end_to_end(workload):
    result = workloads.run_build_untraced(workload, seed=3, seconds=0.01, import_s=0.0)
    _assert_clean(result, END_TO_END)
    # Every graph was built and certified at least once, all pairs checked.
    assert result.details["builds"] >= workload.graphs
    for counts in result.details["counts"]:
        assert counts["pairs_checked"] == workload.sources * (workload.n - 1)
    assert result.metrics["spanner_edges"][0] == sum(
        counts["spanner_edges"] for counts in result.details["counts"]
    )


def test_later_build_must_return_the_certified_spanner():
    workload = TINY_BUILDS[0]
    state = workloads.prepare_build(workload, seed=3)
    speed = hostspeed.HostSpeed()
    speed.measure()
    first = workloads.certified_build(state, 0, speed)
    assert first.problems == [] and first.verify_s is not None
    again = workloads.certified_build(state, 0, speed)
    assert again.problems == [] and again.verify_s is None
    state.certified[0] = state.certified[0] - {next(iter(state.certified[0]))}
    assert workloads.certified_build(state, 0, speed).problems == [
        "spanner differs from this graph's certified spanner"
    ]


def test_serve_workload_end_to_end():
    result = workloads.run_serve_untraced(TINY_SERVE, seed=3, seconds=1, import_s=0.0)
    _assert_clean(result, END_TO_END)
    assert result.attempted == 48
    assert sum(result.details["status_counts"].values()) == 48
    # 48 samples leave fewer than 10 beyond p99, so p99 is not reported.
    assert result.details["p99_ms"] is None


def test_serve_slices_cover_the_stream():
    sliced = replace(TINY_SERVE, slice_requests=20)
    result = workloads.run_serve_untraced(sliced, seed=3, seconds=1, import_s=0.0)
    _assert_clean(result, END_TO_END)
    assert result.details["slices"] == 3  # 20 + 20 + 8 requests
    assert sum(result.details["status_counts"].values()) == 48


def test_host_speed_rescales_by_the_kernel_runs_around_an_operation():
    speed = hostspeed.HostSpeed()
    assert speed.measure() == 0 and speed.samples[0] > 0
    reference = hostspeed.REFERENCE_S
    # Kernel runs 0..7; an operation after run 3 is rescaled by runs 1..6.
    speed.samples = [9.0, 2 * reference, 2 * reference, 2 * reference,
                     2 * reference, 2 * reference, 2 * reference, 9.0]
    # On a host half as fast as the reference host the time halves.
    assert speed.rescale(1.0, 3) == pytest.approx(0.5)
    # Near the start the window is shorter: runs 0..3, median of 9 and 3 x 2*reference.
    assert speed.rescale(1.0, 0) == pytest.approx(0.5)


def test_serve_failures_count_drops_and_non_ok_statuses():
    report = SimpleNamespace(
        status_counts={"hit": 5, "computed": 2, "coalesced": 1, "rejected": 1, "timeout": 1},
        dropped=2,
    )
    assert workloads.ServeOutcome(report, {}, []).failed == 4


@pytest.mark.parametrize("workload", TINY_BUILDS, ids=lambda w: w.name)
def test_traced_build_reports_every_layer_and_restores(workload, tmp_path):
    trace = tmp_path / "trace.json"
    result = workloads.run_build_traced(workload, seed=3, seconds=0.01, trace_path=trace)
    _assert_clean(result, PER_LAYER)
    assert tracing.LayerTracer().unrestored() == []
    events = json.loads(trace.read_text())["traceEvents"]
    assert {event["name"] for event in events} >= {"algorithms.facade", "analysis.stretch"}
    metrics = {name: value for name, (value, _unit) in result.metrics.items()}
    assert metrics["core.cluster_merges"] > 0
    if workload.algorithm == "new-distributed":
        assert metrics["congest.protocols"] > 0 and metrics["congest.messages"] > 0
        assert metrics["primitives.bfs_forest_s"] > 0
    else:
        assert metrics["congest.run_protocol_s"] == 0 and metrics["core.forest_s"] > 0
    assert metrics["serve.submit_s"] == 0


def test_traced_serve_matches_untraced_statuses():
    result = workloads.run_serve_traced(TINY_SERVE, seed=3, seconds=4, trace_path=None)
    _assert_clean(result, PER_LAYER)
    metrics = {name: value for name, (value, _unit) in result.metrics.items()}
    assert metrics["serve.submit_s"] > 0 and metrics["serve.pool_submissions"] == 0
    assert metrics["experiments.task_key_calls"] > 0
    assert metrics["algorithms.facade_s"] == 0


def test_wrappers_restore_exact_attributes():
    originals = {(id(owner), attr): tracing._raw(owner, attr)
                 for _name, owner, attr in tracing.LAYER_ENTRY_POINTS}
    tracer = tracing.LayerTracer()
    with tracer:
        assert repro.build is not originals[(id(repro), "build")]
        assert len(tracer.unrestored()) == len(tracing.LAYER_ENTRY_POINTS)
    assert tracer.unrestored() == []
    for _name, owner, attr in tracing.LAYER_ENTRY_POINTS:
        assert tracing._raw(owner, attr) is originals[(id(owner), attr)]


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("outer", 0.0, 10.0, -1),
        tracing.Span("inner", 1.0, 4.0, 0),
        tracing.Span("leaf", 2.0, 3.0, 1),
        tracing.Span("inner", 5.0, 6.0, 0),
    ]
    totals, counts = tracing.self_times(spans)
    assert totals == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert counts == {"outer": 1, "inner": 2, "leaf": 1}


def _tiny_certificate_inputs():
    workload = TINY_BUILDS[0]
    graph = workload.graph(3)
    run = repro.build(workload.algorithm, graph, seed=3)
    pairs = [(s, v) for s in range(4) for v in range(graph.num_vertices) if v != s]
    return graph, run, pairs


def test_certificate_accepts_the_real_spanner():
    graph, run, pairs = _tiny_certificate_inputs()
    _report, problems = workloads.certify(graph, run.spanner, run.effective_guarantee(), pairs)
    assert problems == []


def test_certificate_rejects_a_spanner_missing_a_bridge():
    graph, run, pairs = _tiny_certificate_inputs()
    spanner = run.spanner.copy()
    leaf = next(v for v in spanner.vertices() if spanner.degree(v) == 1)
    spanner.remove_edge(leaf, next(iter(spanner.neighbors(leaf))))
    _report, problems = workloads.certify(graph, spanner, run.effective_guarantee(), pairs)
    assert any("disconnected" in problem for problem in problems)


def test_certificate_rejects_a_graph_copy():
    graph, run, pairs = _tiny_certificate_inputs()
    _report, problems = workloads.certify(graph, graph.copy(), run.effective_guarantee(), pairs)
    assert problems == ["the spanner keeps every edge"]


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = BENCHMARK["command"] + ["--workload", "central-20k", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_the_emitted_metrics():
    assert PER_LAYER == [name for name, _unit, _better in workloads.PER_LAYER_METRICS]
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert units == {name: unit for name, unit, _better in workloads.PER_LAYER_METRICS}
    assert END_TO_END[0] == "setup_s"
