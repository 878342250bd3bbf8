"""Layer tracing from outside the program: wrap each layer's public entry points.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer` patches
the attribute through which a layer is *looked up* (the engines do
``from ..primitives.exploration import centralized_engine_exploration``, so
the patch goes on ``repro.core.centralized``), records one span per call --
name, start, end and the enclosing span -- and restores every original
attribute on :meth:`LayerTracer.uninstall`.

Spans stay in memory; :func:`self_times` turns them into per-layer self time
(a span's duration minus the time its direct children cover) and
:func:`write_chrome_trace` writes them as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open as they are.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.analysis.stretch
import repro.congest.simulator
import repro.core.centralized
import repro.core.certificate
import repro.core.cluster_table
import repro.core.distributed
import repro.core.spanner
import repro.experiments.store
import repro.graphs.csr
import repro.graphs.distances
import repro.graphs.generators
import repro.graphs.graph
import repro.serve.service
import repro.serve.tasks

#: One wrapped entry point: (span name, owner object, attribute name).
#: The owner is the module or class the caller looks the name up on.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, object, str], ...] = (
    # graphs
    ("graphs.generate", repro.graphs.generators, "make_workload"),
    # Graph.csr's cache-miss path: the snapshot build itself.
    ("graphs.csr", repro.graphs.csr.CSRGraph, "from_graph"),
    ("graphs.add_edges", repro.graphs.graph.Graph, "add_edges"),
    ("graphs.bfs", repro.graphs.distances.DistanceCache, "vector"),
    # core
    ("core.cluster_table", repro.core.cluster_table.ClusterTable, "singletons"),
    ("core.cluster_table", repro.core.cluster_table.ClusterTable, "supercluster"),
    ("core.cluster_table", repro.core.cluster_table.ClusterTable, "retire_all"),
    ("core.cluster_table", repro.core.cluster_table.ClusterTable, "snapshot"),
    ("core.certificate", repro.core.certificate.SpannerCertificate, "record"),
    ("core.forest", repro.core.centralized, "deterministic_forest"),
    ("core.forest", repro.core.centralized, "forest_path_edges"),
    # The engine's phase loop: its self time is the part of a build that no
    # named layer claims (reported as trace.unattributed_s).
    ("engine", repro.core.spanner, "build_spanner_centralized"),
    ("engine", repro.core.spanner, "build_spanner_distributed"),
    # primitives (centralized twins and CONGEST protocols)
    ("primitives.exploration", repro.core.centralized, "centralized_engine_exploration"),
    ("primitives.exploration", repro.core.distributed, "run_bounded_exploration"),
    ("primitives.ruling_set", repro.core.centralized, "centralized_ruling_set"),
    ("primitives.ruling_set", repro.core.distributed, "run_ruling_set"),
    ("primitives.bfs_forest", repro.core.distributed, "run_bfs_forest"),
    ("primitives.traceback", repro.core.centralized, "centralized_traceback_flat"),
    ("primitives.traceback", repro.core.distributed, "run_traceback"),
    ("primitives.traceback", repro.core.distributed, "run_forest_path_markup"),
    # congest
    ("congest.run_protocol", repro.congest.simulator.Simulator, "run_protocol"),
    # algorithms: the facade the benchmark itself calls
    ("algorithms.facade", repro, "build"),
    # analysis: the benchmark's certificate and the sampled serve path both
    # resolve evaluate_stretch in this module
    ("analysis.stretch", repro.analysis.stretch, "evaluate_stretch"),
    # experiments: the per-request content address
    ("experiments.task_key", repro.experiments.store.ResultStore, "task_key"),
    # serve
    ("serve.submit", repro.serve.service.SpannerService, "submit"),
    ("serve.resolve", repro.serve.service.SpannerService, "resolve"),
    ("serve.stretch_payload", repro.serve.tasks, "stretch_payload"),
    ("serve.distance_payload", repro.serve.tasks, "distance_payload"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`LayerTracer.spans`, or -1.
    parent: int


class LayerTracer:
    """Installs span-recording wrappers on :data:`LAYER_ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: ``DistanceCache.vector`` calls, and those whose source was cached.
        self.cache_calls = 0
        self.cache_hits = 0
        #: Pairs checked by ``evaluate_stretch`` calls.
        self.pairs_checked = 0
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []
        #: The attributes as found before any patching, to prove restoration.
        self._pristine = [
            (owner, attr, _raw(owner, attr)) for _, owner, attr in LAYER_ENTRY_POINTS
        ]

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = Span(name, start, clock(), parent)

        if name == "graphs.bfs":
            timed = traced

            def traced(cache, source, *args, **kwargs):  # noqa: F811
                self.cache_calls += 1
                if source in cache:
                    self.cache_hits += 1
                return timed(cache, source, *args, **kwargs)

        elif name == "analysis.stretch":
            timed = traced

            def traced(*args, **kwargs):  # noqa: F811
                report = timed(*args, **kwargs)
                self.pairs_checked += report.pairs_checked
                return report

        return traced

    def reset(self) -> None:
        """Forget every recorded span and count (wrappers stay installed)."""
        self.spans.clear()
        self.cache_calls = self.cache_hits = self.pairs_checked = 0

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr in LAYER_ENTRY_POINTS:
            # Read the raw attribute so classmethod/staticmethod descriptors
            # are re-wrapped in kind and restored exactly.
            raw = _raw(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals = []

    def unrestored(self) -> List[str]:
        """Entry points whose attribute is not the original object (should be [])."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, raw in self._pristine
            if _raw(owner, attr) is not raw
        ]

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def _raw(owner: object, attr: str) -> object:
    """The attribute itself, without binding descriptors on classes."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# ----------------------------------------------------------------------
# Analysis of recorded spans
# ----------------------------------------------------------------------
def self_times(spans: List[Span], first: int = 0) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time and call count over ``spans[first:]``.

    Self time is a span's duration minus the durations of its direct children;
    single-threaded spans nest, so children never overlap.
    """
    child_time: Dict[int, float] = {}
    for span in spans[first:]:
        if span.parent >= first:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.end - span.start)
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for index in range(first, len(spans)):
        span = spans[index]
        own = (span.end - span.start) - child_time.get(index, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
        counts[span.name] = counts.get(span.name, 0) + 1
    return totals, counts


def write_chrome_trace(spans: List[Span], path) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete ``X`` events, µs)."""
    origin = spans[0].start if spans else 0.0
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"id": index, "parent": span.parent},
        }
        for index, span in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
