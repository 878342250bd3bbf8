"""The benchmark's workloads: set-up, timed window and output checks.

Two build workloads time ``repro.build`` followed by a seeded stretch
certificate (``central-20k`` on the centralized engine, ``congest-4k`` on the
CONGEST simulator); ``serve-zipf`` drives a warm ``SpannerService`` closed-loop.
Each workload runs in one process, with no threads and no worker pool in a
timed window.  ``run_untraced`` gives the end-to-end metrics and
``run_traced`` the per-layer ones (see README.md for the metric tables).
Every timed operation is bracketed by runs of the reference kernel in
``hostspeed.py``, and the end-to-end timings are rescaled by it.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
import repro.analysis.stretch
import repro.graphs.generators
from repro.analysis import percentile
from repro.experiments.pipeline import canonicalize_payload
from repro.experiments.results import canonical_json
from repro.serve import SpannerService, default_catalogue, generate_requests, run_load
from repro.serve.loadgen import LoadReport

from .hostspeed import REFERENCE_S, WINDOW, HostSpeed
from .tracing import LayerTracer, self_times, write_chrome_trace

clock = time.perf_counter

#: Set-up is repeated this many times per run and its median reported, so a
#: single slow generator or pool start does not move ``setup_s``.
SETUP_REPEATS = 3

#: Serve statuses that count as answered.
OK_STATUSES = ("hit", "computed", "coalesced")

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Every per-layer metric of a traced run: (name, unit, better).
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.generate_s", "s", "lower"),
    ("graphs.csr_s", "s", "lower"),
    ("graphs.csr_builds", "count", "lower"),
    ("graphs.add_edges_s", "s", "lower"),
    ("graphs.add_edges_calls", "count", "lower"),
    ("graphs.bfs_s", "s", "lower"),
    ("graphs.bfs_sources", "count", "lower"),
    ("graphs.distance_cache_hit_ratio", "ratio", "higher"),
    ("core.cluster_table_s", "s", "lower"),
    ("core.certificate_s", "s", "lower"),
    ("core.forest_s", "s", "lower"),
    ("core.cluster_merges", "count", "higher"),
    ("primitives.exploration_s", "s", "lower"),
    ("primitives.ruling_set_s", "s", "lower"),
    ("primitives.bfs_forest_s", "s", "lower"),
    ("primitives.traceback_s", "s", "lower"),
    ("congest.run_protocol_s", "s", "lower"),
    ("congest.protocols", "count", "lower"),
    ("congest.sim_rounds", "count", "lower"),
    ("congest.messages", "count", "lower"),
    ("congest.messages_per_s", "1/s", "higher"),
    ("algorithms.facade_s", "s", "lower"),
    ("analysis.stretch_s", "s", "lower"),
    ("analysis.pairs_checked", "count", "higher"),
    ("experiments.task_key_s", "s", "lower"),
    ("experiments.task_key_calls", "count", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.resolve_s", "s", "lower"),
    ("serve.stretch_payload_s", "s", "lower"),
    ("serve.distance_payload_s", "s", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.max_batch", "count", "higher"),
    ("serve.pool_submissions", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Spans whose self time is per-layer time (metric ``<span>_s``).  The
#: ``engine`` span only separates the facade from the phase loop; its self
#: time is the unattributed remainder.
LAYER_SPANS = (
    "graphs.csr", "graphs.add_edges", "graphs.bfs",
    "core.cluster_table", "core.certificate", "core.forest",
    "primitives.exploration", "primitives.ruling_set", "primitives.bfs_forest",
    "primitives.traceback", "congest.run_protocol", "algorithms.facade",
    "analysis.stretch", "experiments.task_key",
    "serve.submit", "serve.resolve", "serve.stretch_payload", "serve.distance_payload",
)

#: Call counts reported per timed operation: metric -> span.
CALL_COUNTS = {
    "graphs.csr_builds": "graphs.csr",
    "graphs.add_edges_calls": "graphs.add_edges",
    "congest.protocols": "congest.run_protocol",
    "experiments.task_key_calls": "experiments.task_key",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    """What one run reports: metrics, operation tallies and details."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def _median_setup(prepare, once_s: float, speed: HostSpeed):
    """Run ``prepare`` SETUP_REPEATS times; keep the last state.

    Returns ``(state, setup_s, raw_setup_s)``: the set-up paid once per
    process (the imports) plus the median preparation time, rescaled by the
    kernel runs around each preparation, and the same sum unscaled.
    """
    first = speed.measure()
    timed = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous state before building the next
        before = speed.last()
        gc.collect()
        start = clock()
        state = prepare()
        timed.append((clock() - start, before))
        speed.measure()
    raw = statistics.median(seconds for seconds, _before in timed)
    scaled = statistics.median(speed.rescale(seconds, before) for seconds, before in timed)
    return state, speed.rescale(once_s, first) + scaled, once_s + raw


def _kernel_details(speed: HostSpeed) -> Dict[str, object]:
    return {
        "reference_kernel_s": REFERENCE_S,
        "kernel_median_s": statistics.median(speed.samples),
        "kernel_runs": len(speed.samples),
    }


# ----------------------------------------------------------------------
# Build workloads: repro.build + a seeded k-source stretch certificate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BuildWorkload:
    name: str
    algorithm: str
    #: ``sparse_gnp`` vertex count and expected average degree.
    n: int
    degree: int
    #: Certificate sources: every pair (s, v) for each seeded source s.
    sources: int
    #: Graphs per run.  Build cost depends on the graph: on about a quarter
    #: of sparse_gnp graphs phase 1 finds no popular cluster and the build
    #: is ~30% cheaper.  Each run therefore cycles through several graphs and
    #: reports the median over all their builds, so one seed's graphs move
    #: it little.
    graphs: int = 8

    def graph_seeds(self, seed: int) -> List[int]:
        """Graph ``j`` of run seed ``S`` is generated with seed ``S + 100000 j``."""
        return [seed + GRAPH_SEED_STRIDE * j for j in range(self.graphs)]

    def graph(self, seed: int):
        return repro.graphs.generators.make_workload(
            "sparse_gnp", self.n, seed=seed, p=self.degree / (self.n - 1)
        )


GRAPH_SEED_STRIDE = 100_000

#: The largest n at which the default parameters still sparsify in about a
#: second per build (the numpy kernel tier starts at 32,768 vertices).  Eight
#: certificate sources keep a certificate at about half a build.
CENTRAL_20K = BuildWorkload("central-20k", "new-centralized", 20000, 16, 8)
#: The same phase logic as message-passing protocols on congest.Simulator;
#: 40 sources make the certificate take about a quarter of a second.
CONGEST_4K = BuildWorkload("congest-4k", "new-distributed", 4096, 16, 40)


@dataclass
class BuildOutcome:
    graph_index: int
    build_s: float
    #: Index of the kernel run just before the build.
    build_mark: int
    counts: Dict[str, int]
    problems: List[str]
    #: The certificate's time and preceding kernel run, on a graph's first
    #: build in a window only.
    verify_s: Optional[float] = None
    verify_mark: Optional[int] = None
    #: ``build_s`` and ``verify_s`` rescaled for host speed (set by timed_builds).
    build_ref_s: float = 0.0
    verify_ref_s: Optional[float] = None


@dataclass
class BuildState:
    workload: BuildWorkload
    seeds: List[int]
    graphs: list
    pairs: List[Tuple[int, int]]
    #: Deterministic counts of each graph's first timed build; every later
    #: build of that graph must match them exactly.
    reference: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Edge set of each graph's certified spanner in the current window.
    certified: Dict[int, frozenset] = field(default_factory=dict)
    #: Pairs the certificate of each graph checked.
    pairs_checked: Dict[int, int] = field(default_factory=dict)


def certify(graph, spanner, guarantee, pairs):
    """The stretch certificate and sparsification guard of one spanner.

    Returns ``(report, problems)``; ``problems`` is empty for a spanner that
    keeps fewer edges than the graph and meets ``guarantee`` on every pair.
    """
    report = repro.analysis.stretch.evaluate_stretch(graph, spanner, guarantee, pairs=pairs)
    problems = []
    if report.violations:
        problems.append(f"{len(report.violations)} stretch violations")
    if report.disconnected_mismatches:
        problems.append(f"{report.disconnected_mismatches} pairs disconnected in the spanner")
    if spanner.num_edges >= graph.num_edges:
        problems.append("the spanner keeps every edge")
    return report, problems


def certified_build(state: BuildState, index: int, speed: HostSpeed) -> BuildOutcome:
    """One timed operation on graph ``index``: a build, followed by a kernel
    run (the latest kernel run precedes the build).

    A graph's first build in a window is then certified on a cold cache, and
    a kernel run follows.  Every later build must return exactly that
    certified edge set, so it is certified too.
    """
    graph = state.graphs[index]
    build_mark = speed.last()
    gc.collect()
    start = clock()
    run = repro.build(state.workload.algorithm, graph, seed=state.seeds[index])
    build_s = clock() - start
    speed.measure()
    ledger = run.ledger_summary or {}
    counts = {
        "spanner_edges": run.num_edges,
        "cluster_merges": sum(int(phase["cluster_merges"]) for phase in run.phases),
        "sim_rounds": int(ledger.get("simulated_rounds", 0)),
        "messages": int(ledger.get("messages", 0)),
    }
    outcome = BuildOutcome(index, build_s, build_mark, counts, [])
    if counts["cluster_merges"] == 0:
        outcome.problems.append("no cluster merges")
    reference = state.reference.setdefault(index, counts)
    if counts != reference:
        outcome.problems.append(f"deterministic counts {counts} != first build's {reference}")
    edges = frozenset(run.spanner.edge_set())
    if index in state.certified:
        if edges != state.certified[index]:
            outcome.problems.append("spanner differs from this graph's certified spanner")
        return outcome
    outcome.verify_mark = speed.last()
    # Every certificate sweeps the same sources from scratch.
    graph.distance_cache().clear()
    gc.collect()
    start = clock()
    report, problems = certify(graph, run.spanner, run.effective_guarantee(), state.pairs)
    outcome.verify_s = clock() - start
    speed.measure()
    outcome.problems += problems
    state.certified[index] = edges
    state.pairs_checked[index] = report.pairs_checked
    return outcome


def prepare_build(workload: BuildWorkload, seed: int) -> BuildState:
    seeds = workload.graph_seeds(seed)
    graphs = [workload.graph(graph_seed) for graph_seed in seeds]
    for graph in graphs:
        graph.csr()
    sources = random.Random(f"perfbench-certificate:{seed}").sample(
        range(workload.n), workload.sources
    )
    pairs = [(s, v) for s in sources for v in range(workload.n) if v != s]
    # Untimed warm-up build.
    warm = repro.build(workload.algorithm, graphs[0], seed=seeds[0])
    if warm.num_edges >= graphs[0].num_edges:
        raise RuntimeError("warm-up build kept every edge")
    return BuildState(workload, seeds, graphs, pairs)


def timed_builds(state: BuildState, seconds: float, speed: HostSpeed) -> List[BuildOutcome]:
    """Certified builds, cycling through the graphs, until ``seconds`` have
    passed and every graph was built at least once."""
    outcomes: List[BuildOutcome] = []
    state.certified.clear()  # every window certifies each graph once
    start = clock()
    speed.measure()
    while len(outcomes) < len(state.graphs) or clock() - start < seconds:
        outcomes.append(certified_build(state, len(outcomes) % len(state.graphs), speed))
    for _ in range(WINDOW - 1):  # the last operations' windows
        speed.measure()
    for outcome in outcomes:
        outcome.build_ref_s = speed.rescale(outcome.build_s, outcome.build_mark)
        if outcome.verify_s is not None:
            outcome.verify_ref_s = speed.rescale(outcome.verify_s, outcome.verify_mark)
    return outcomes


def spanner_edges(state: BuildState) -> int:
    """Total spanner edges over the run's graphs (deterministic)."""
    return sum(counts["spanner_edges"] for counts in state.reference.values())


def median_of(outcomes: List[BuildOutcome], seconds) -> float:
    """Median of ``seconds(outcome)`` over the timed builds where it is set."""
    return statistics.median(
        value for value in map(seconds, outcomes) if value is not None
    )


def _build_details(state: BuildState, outcomes: List[BuildOutcome]) -> Dict[str, object]:
    """Unscaled medians (``*_s``) next to the rescaled ones (``*_ref_s``)."""
    return {
        "graph_seeds": state.seeds,
        "graph_edges": [graph.num_edges for graph in state.graphs],
        "counts": [
            dict(state.reference[index], pairs_checked=state.pairs_checked[index])
            for index in range(len(state.graphs))
        ],
        "builds": len(outcomes),
        "build_s": median_of(outcomes, lambda o: o.build_s),
        "verify_s": median_of(outcomes, lambda o: o.verify_s),
        "build_ref_s": median_of(outcomes, lambda o: o.build_ref_s),
        "verify_ref_s": median_of(outcomes, lambda o: o.verify_ref_s),
    }


def _build_problems(outcomes: List[BuildOutcome]) -> List[str]:
    return [f"build {i}: {p}" for i, o in enumerate(outcomes) for p in o.problems]


def run_build_untraced(workload: BuildWorkload, seed: int, seconds: float, import_s: float) -> Result:
    speed = HostSpeed()
    state, setup_s, raw_setup_s = _median_setup(
        lambda: prepare_build(workload, seed), import_s, speed
    )
    outcomes = timed_builds(state, seconds, speed)
    details = _build_details(state, outcomes)
    details.update(_kernel_details(speed), raw_setup_s=raw_setup_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (details["build_ref_s"] * 1000.0, "ms"),
        "ops_per_s": (1.0 / (details["build_ref_s"] + details["verify_ref_s"]), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "spanner_edges": (spanner_edges(state), "count"),
    }
    problems = _build_problems(outcomes)
    return Result(metrics, len(outcomes), sum(bool(o.problems) for o in outcomes), problems, details)


def run_build_traced(
    workload: BuildWorkload, seed: int, seconds: float, trace_path: Optional[Path]
) -> Result:
    """Untraced builds for half the window, then traced builds for the rest."""
    speed = HostSpeed()
    state = prepare_build(workload, seed)
    untraced = timed_builds(state, seconds / 2, speed)
    tracer = LayerTracer()
    with tracer:
        regenerated, generate_s = _traced_setup(tracer, lambda: workload.graph(state.seeds[0]))
        tracer.reset()
        traced = timed_builds(state, seconds / 2, speed)
    ops = len(traced)
    metrics = _layer_metrics(
        tracer,
        ops=ops,
        op_seconds=sum(o.build_s + (o.verify_s or 0.0) for o in traced),
        generate_s=generate_s,
        overhead_s=median_of(traced, lambda o: o.build_ref_s)
        - median_of(untraced, lambda o: o.build_ref_s),
        counts={key: statistics.mean(o.counts[key] for o in traced) for key in traced[0].counts},
    )
    problems = _build_problems(untraced) + _build_problems(traced)
    problems += _trace_problems(tracer)
    if regenerated.num_edges != state.graphs[0].num_edges:
        problems.append("regenerating the workload graph gave a different graph")
    if trace_path is not None:
        write_chrome_trace(tracer.spans, trace_path)
    details = _build_details(state, traced)
    details["untraced_build_ref_s"] = median_of(untraced, lambda o: o.build_ref_s)
    return Result(metrics, ops + len(untraced), sum(bool(o.problems) for o in untraced + traced),
                  problems, details)


# ----------------------------------------------------------------------
# serve-zipf: a warm SpannerService driven closed-loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    name: str = "serve-zipf"
    #: Catalogue graph sizes.  The small half fits the service's 128-entry
    #: DistanceCache cap and the large half does not, so both the hit path
    #: and the BFS-refill path run.
    sizes: Tuple[int, ...] = (64, 512)
    #: Stream length per second of ``--seconds``.  The length is a fixed
    #: function of the arguments, so status counts repeat exactly.
    requests_per_second: int = 7000
    concurrency: int = 8
    workers: int = 2
    #: The stream is driven in slices of this many requests (about half a
    #: second each), with a kernel run after each slice; each slice's p50 and
    #: throughput are rescaled by the kernel runs around it.
    slice_requests: int = 5000

    def count(self, seconds: float) -> int:
        return max(1, int(self.requests_per_second * seconds))


SERVE_ZIPF = ServeWorkload()


@dataclass
class ServeState:
    service: SpannerService
    requests: list
    #: Total spanner edges over the warm catalogue builds.
    spanner_edges: int


def serve_stream(workload: ServeWorkload, seed: int, count: int) -> list:
    catalogue = default_catalogue(seed, sizes=workload.sizes)
    return generate_requests(count, seed=seed, catalogue=catalogue)


def prepare_serve(workload: ServeWorkload, seed: int, requests: list) -> ServeState:
    """Warm every catalogue build through the pool, then shut the pool down."""
    catalogue = default_catalogue(seed, sizes=workload.sizes)
    service = SpannerService(workers=workload.workers)
    try:
        responses = service.serve(catalogue)
    finally:
        service.close()
    bad = [r.status for r in responses if r.status != "computed" or r.payload is None]
    if bad:
        raise RuntimeError(f"catalogue warm-up failed: {bad}")
    # The hottest key's served payload must be byte-identical to a direct build.
    hot = catalogue[0]
    graph = repro.graphs.generators.make_workload(hot.family, hot.size, seed=hot.seed)
    direct = repro.build(hot.algorithm, graph, seed=hot.seed, **dict(hot.params))
    if canonical_json(responses[0].payload) != canonical_json(canonicalize_payload(direct.to_dict())):
        raise RuntimeError("served build payload differs from the direct repro.build payload")
    edges = sum(int(r.payload["num_spanner_edges"]) for r in responses)
    return ServeState(service, requests, edges)


@dataclass
class ServeOutcome:
    #: The slices' reports merged into one.
    report: LoadReport
    #: Counter increments over the timed window.
    stats: Dict[str, int]
    problems: List[str]
    #: Per slice: rescaled p50 latency and rescaled throughput.
    slice_p50_ms: List[float] = field(default_factory=list)
    slice_rps: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        bad = sum(n for status, n in self.report.status_counts.items() if status not in OK_STATUSES)
        return self.report.dropped + bad


def merge_reports(reports: List[LoadReport]) -> LoadReport:
    """One report for consecutive slices of a stream."""
    status_counts: Dict[str, int] = {}
    kind_counts: Dict[str, int] = {}
    for report in reports:
        for key, value in report.status_counts.items():
            status_counts[key] = status_counts.get(key, 0) + value
        for key, value in report.kind_counts.items():
            kind_counts[key] = kind_counts.get(key, 0) + value
    return LoadReport(
        requests=sum(report.requests for report in reports),
        elapsed_seconds=sum(report.elapsed_seconds for report in reports),
        latencies=[value for report in reports for value in report.latencies],
        status_counts=status_counts,
        kind_counts=kind_counts,
        stats=reports[-1].stats,
        failures=reports[-1].failures,
    )


def timed_serve(state: ServeState, workload: ServeWorkload, speed: HostSpeed) -> ServeOutcome:
    stats_before = state.service.stats_snapshot()
    failures_before = state.service.failure_manifest()["count"]
    slices: List[Tuple[LoadReport, int]] = []
    try:
        before = speed.measure()
        for first in range(0, len(state.requests), workload.slice_requests):
            part = run_load(
                state.service,
                state.requests[first:first + workload.slice_requests],
                concurrency=workload.concurrency,
            )
            slices.append((part, before))
            before = speed.measure()
    finally:
        state.service.close()  # a pool started by a stray miss must not outlive the run
    for _ in range(WINDOW - 1):  # the last slices' windows
        speed.measure()
    slice_p50_ms = [
        speed.rescale(percentile([value * 1000.0 for value in part.latencies], 50), before)
        for part, before in slices
    ]
    slice_rps = [
        part.requests / speed.rescale(part.elapsed_seconds, before) for part, before in slices
    ]
    report = merge_reports([part for part, _before in slices])
    stats = {key: value - stats_before.get(key, 0) for key, value in report.stats.items()}
    stats["max_batch"] = report.stats.get("max_batch", 0)
    outcome = ServeOutcome(report, stats, [], slice_p50_ms, slice_rps)
    if report.dropped:
        outcome.problems.append(f"{report.dropped} requests dropped")
    if outcome.failed - report.dropped:
        outcome.problems.append(f"non-ok statuses: {report.status_counts}")
    if stats.get("pool_submissions", 0):
        outcome.problems.append(f"{stats['pool_submissions']} pool submissions in the timed window")
    if report.failures.get("count", 0) != failures_before:
        outcome.problems.append("failure manifest grew in the timed window")
    return outcome


def _latency_details(report) -> Dict[str, object]:
    ms = [value * 1000.0 for value in report.latencies]
    samples = len(ms)
    p99_ok = samples - math.ceil(0.99 * samples) >= TAIL_SAMPLES
    return {
        "requests": report.requests,
        "rps": report.requests / report.elapsed_seconds,
        "p50_ms": percentile(ms, 50),
        "p99_ms": percentile(ms, 99) if p99_ok else None,
        "latency_samples": samples,
        "hit_ratio": report.hit_rate,
        "status_counts": dict(sorted(report.status_counts.items())),
    }


def run_serve_untraced(workload: ServeWorkload, seed: int, seconds: float, import_s: float) -> Result:
    count = workload.count(seconds)
    speed = HostSpeed()
    state, setup_s, raw_setup_s = _median_setup(
        lambda: prepare_serve(workload, seed, serve_stream(workload, seed, count)), import_s, speed
    )
    outcome = timed_serve(state, workload, speed)
    details = _latency_details(outcome.report)
    details.update(_kernel_details(speed), raw_setup_s=raw_setup_s, slices=len(outcome.slice_rps))
    details["catalogue_spanner_edges"] = state.spanner_edges
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (statistics.median(outcome.slice_p50_ms), "ms"),
        "ops_per_s": (statistics.median(outcome.slice_rps), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "spanner_edges": (state.spanner_edges, "count"),
    }
    return Result(metrics, outcome.report.requests, outcome.failed, outcome.problems, details)


def run_serve_traced(
    workload: ServeWorkload, seed: int, seconds: float, trace_path: Optional[Path]
) -> Result:
    """One untraced and one traced service over the same (shorter) stream."""
    requests = serve_stream(workload, seed, max(1, workload.count(seconds) // 8))
    speed = HostSpeed()
    untraced = timed_serve(prepare_serve(workload, seed, requests), workload, speed)
    tracer = LayerTracer()
    with tracer:
        state, generate_s = _traced_setup(tracer, lambda: prepare_serve(workload, seed, requests))
        tracer.reset()
        traced = timed_serve(state, workload, speed)
    report = traced.report
    metrics = _layer_metrics(
        tracer,
        ops=report.requests,
        op_seconds=report.elapsed_seconds,
        generate_s=generate_s,
        overhead_s=1.0 / statistics.median(traced.slice_rps)
        - 1.0 / statistics.median(untraced.slice_rps),
        counts={},
    )
    metrics["serve.hit_ratio"] = (report.hit_rate, "ratio")
    metrics["serve.batches"] = (traced.stats.get("batches", 0) / max(1, report.responses), "count")
    metrics["serve.max_batch"] = (traced.stats.get("max_batch", 0), "count")
    metrics["serve.pool_submissions"] = (traced.stats.get("pool_submissions", 0), "count")
    problems = untraced.problems + traced.problems + _trace_problems(tracer)
    if report.status_counts != untraced.report.status_counts:
        problems.append(
            f"traced statuses {report.status_counts} != untraced {untraced.report.status_counts}"
        )
    if trace_path is not None:
        write_chrome_trace(tracer.spans, trace_path)
    details = _latency_details(report)
    details["untraced_rps"] = untraced.report.requests / untraced.report.elapsed_seconds
    return Result(metrics, report.requests + untraced.report.requests,
                  traced.failed + untraced.failed, problems, details)


# ----------------------------------------------------------------------
# Per-layer metrics from a traced window
# ----------------------------------------------------------------------
def _traced_setup(tracer: LayerTracer, prepare):
    """Run ``prepare`` traced; return its value and its make_workload time."""
    first = len(tracer.spans)
    value = prepare()
    generate_s = sum(
        span.end - span.start for span in tracer.spans[first:] if span.name == "graphs.generate"
    )
    return value, generate_s


def _trace_problems(tracer: LayerTracer) -> List[str]:
    leftovers = tracer.unrestored()
    return [f"wrappers not restored: {leftovers}"] if leftovers else []


def _layer_metrics(
    tracer: LayerTracer,
    *,
    ops: int,
    op_seconds: float,
    generate_s: float,
    overhead_s: float,
    counts: Dict[str, int],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, normalised per timed operation."""
    totals, calls = self_times(tracer.spans)
    ops = max(1, ops)
    metrics: Dict[str, Tuple[float, str]] = {
        name: (0.0, unit) for name, unit, _better in PER_LAYER_METRICS
    }
    for span in LAYER_SPANS:
        metrics[f"{span}_s"] = (totals.get(span, 0.0) / ops, "s")
    for metric, span in CALL_COUNTS.items():
        metrics[metric] = (calls.get(span, 0) / ops, "count")
    attributed = sum(totals.get(span, 0.0) for span in LAYER_SPANS)
    run_protocol_s = metrics["congest.run_protocol_s"][0]
    messages = counts.get("messages", 0)
    metrics.update({
        "graphs.generate_s": (generate_s, "s"),
        "graphs.bfs_sources": ((tracer.cache_calls - tracer.cache_hits) / ops, "count"),
        "graphs.distance_cache_hit_ratio": (
            tracer.cache_hits / tracer.cache_calls if tracer.cache_calls else 0.0, "ratio"
        ),
        "core.cluster_merges": (counts.get("cluster_merges", 0), "count"),
        "congest.sim_rounds": (counts.get("sim_rounds", 0), "count"),
        "congest.messages": (messages, "count"),
        "congest.messages_per_s": (messages / run_protocol_s if run_protocol_s else 0.0, "1/s"),
        "analysis.pairs_checked": (tracer.pairs_checked / ops, "count"),
        "trace.unattributed_s": ((op_seconds - attributed) / ops, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tracer.spans) / ops, "count"),
    })
    return metrics
