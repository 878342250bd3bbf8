"""Experiment runner: single-run measurement and parameter sweeps.

This is the shared machinery under the per-table/per-figure experiment
modules: build a spanner (any registered algorithm, by name, through the
algorithm registry), verify its guarantee on sampled pairs, and collect the
measurements that populate the experiment rows.

:func:`measure_algorithm` is the registry-driven entry point every scenario
task uses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..algorithms import RunResult, get_spec
from ..analysis.stretch import evaluate_stretch, evaluate_stretch_sampled
from ..graphs.graph import Graph


@dataclass
class Measurement:
    """One (algorithm, graph) measurement row."""

    algorithm: str
    graph_name: str
    num_vertices: int
    num_graph_edges: int
    num_spanner_edges: int
    nominal_rounds: Optional[int]
    multiplicative_bound: Optional[float]
    additive_bound: Optional[float]
    measured_max_multiplicative: float
    measured_max_additive: float
    guarantee_satisfied: bool
    wall_seconds: float
    extra: Dict[str, object] = field(default_factory=dict)

    def to_row(self) -> Dict[str, object]:
        """Flatten into a table row."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "graph": self.graph_name,
            "n": self.num_vertices,
            "m": self.num_graph_edges,
            "spanner_edges": self.num_spanner_edges,
            "rounds": self.nominal_rounds,
            "mult_bound": self.multiplicative_bound,
            "add_bound": self.additive_bound,
            "measured_max_mult": self.measured_max_multiplicative,
            "measured_max_add": self.measured_max_additive,
            "guarantee_ok": self.guarantee_satisfied,
            "seconds": round(self.wall_seconds, 4),
        }
        row.update(self.extra)
        return row


#: Row fields that hold run-dependent wall-clock timing.  Pipeline task
#: payloads must not contain them (the pipeline measures tasks itself and
#: reports timing through the suite manifest), so records stay byte-identical
#: across serial, parallel and store-resumed runs.
TIMING_FIELDS = ("seconds", "wall_seconds")


def measurement_row(measurement: "Measurement") -> Dict[str, object]:
    """``Measurement.to_row()`` without the run-dependent timing fields.

    This is the row form experiment tasks put into pipeline payloads.
    """
    row = measurement.to_row()
    for fieldname in TIMING_FIELDS:
        row.pop(fieldname, None)
    return row


def measure_algorithm(
    graph: Graph,
    algorithm: str,
    params: Optional[Mapping[str, object]] = None,
    *,
    graph_name: str = "graph",
    sample_pairs: int = 400,
    seed: int = 0,
    stretch_seed: Optional[int] = None,
) -> Tuple[Measurement, RunResult]:
    """Build with any registered algorithm (by name) and measure the result.

    ``params`` are the algorithm's declared parameters (missing ones take the
    spec defaults); ``seed`` feeds the randomized constructions and, unless
    ``stretch_seed`` overrides it, the stretch-evaluation pair sampling.
    """
    spec = get_spec(algorithm)
    start = time.perf_counter()
    run = spec.run(graph, params, seed=seed)
    elapsed = time.perf_counter() - start
    guarantee = run.guarantee
    stretch = _stretch_for(
        graph,
        run.spanner,
        sample_pairs,
        seed if stretch_seed is None else stretch_seed,
        guarantee,
    )
    extra: Dict[str, object] = {}
    edges_by_step = run.details.get("edges_by_step")
    if isinstance(edges_by_step, dict):
        extra = {
            "superclustering_edges": edges_by_step.get("superclustering", 0),
            "interconnection_edges": edges_by_step.get("interconnection", 0),
        }
    measurement = Measurement(
        algorithm=run.algorithm,
        graph_name=graph_name,
        num_vertices=graph.num_vertices,
        num_graph_edges=graph.num_edges,
        num_spanner_edges=run.num_edges,
        nominal_rounds=run.nominal_rounds,
        multiplicative_bound=guarantee.multiplicative if guarantee else None,
        additive_bound=guarantee.additive if guarantee else None,
        measured_max_multiplicative=stretch.max_multiplicative,
        measured_max_additive=stretch.max_additive_surplus,
        guarantee_satisfied=stretch.satisfies_guarantee,
        wall_seconds=elapsed,
        extra=extra,
    )
    return measurement, run


def _stretch_for(graph, spanner, sample_pairs, seed, guarantee):
    if sample_pairs <= 0 or graph.num_vertices <= 60:
        return evaluate_stretch(graph, spanner, guarantee=guarantee)
    return evaluate_stretch_sampled(
        graph, spanner, num_pairs=sample_pairs, seed=seed, guarantee=guarantee
    )


def fit_power_law(sizes: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of ``log(value)`` against ``log(size)``.

    Used by the scaling experiments to estimate growth exponents: measured
    rounds ~ ``n^exponent``, measured size ~ ``n^exponent``.
    """
    points = [
        (math.log(s), math.log(v))
        for s, v in zip(sizes, values)
        if s > 0 and v is not None and v > 0
    ]
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    return numerator / denominator if denominator else 0.0
