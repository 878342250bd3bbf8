"""Spanner size accounting (paper Section 2.4.2).

Compares measured edge counts against the overall ``O(beta * n^{1+1/kappa})``
bound of Corollary 2.13 and breaks them down by phase and by step (the
per-phase Lemma 2.12 check is the Figure 5 experiment's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.certificate import INTERCONNECTION_STEP, SUPERCLUSTERING_STEP
from ..core.result import RunResult


@dataclass
class SizeReport:
    """Measured size of a spanner vs. its theoretical envelopes."""

    num_vertices: int
    num_graph_edges: int
    num_spanner_edges: int
    size_bound: float
    per_phase_edges: Dict[int, int]
    superclustering_edges: int
    interconnection_edges: int
    density_ratio: float

    @property
    def within_bound(self) -> bool:
        """Whether the measured size respects the theoretical bound."""
        return self.num_spanner_edges <= self.size_bound + 1e-9

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary."""
        return {
            "num_vertices": self.num_vertices,
            "num_graph_edges": self.num_graph_edges,
            "num_spanner_edges": self.num_spanner_edges,
            "size_bound": self.size_bound,
            "within_bound": self.within_bound,
            "per_phase_edges": dict(sorted(self.per_phase_edges.items())),
            "superclustering_edges": self.superclustering_edges,
            "interconnection_edges": self.interconnection_edges,
            "density_ratio": self.density_ratio,
        }


def size_report(result: RunResult) -> SizeReport:
    """Build a :class:`SizeReport` for a run of the deterministic algorithm."""
    per_phase = {
        record.index: record.superclustering_edges + record.interconnection_edges
        for record in result.phase_records
        if record.superclustering_edges or record.interconnection_edges
    }
    by_step = result.edges_by_step()
    graph_edges = result.graph.num_edges
    return SizeReport(
        num_vertices=result.num_vertices,
        num_graph_edges=graph_edges,
        num_spanner_edges=result.num_edges,
        size_bound=result.parameters.size_bound(result.num_vertices),
        per_phase_edges=per_phase,
        superclustering_edges=by_step[SUPERCLUSTERING_STEP],
        interconnection_edges=by_step[INTERCONNECTION_STEP],
        density_ratio=result.num_edges / graph_edges if graph_edges else 1.0,
    )
