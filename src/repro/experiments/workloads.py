"""Workload helpers for the table/figure experiments.

The default parameter setting every experiment uses unless overridden, and
the geometric size sweeps of the scaling experiments.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..core.parameters import SpannerParameters
from ..graphs.graph import Graph
from ..graphs import generators


def default_parameters(epsilon: float = 0.25, kappa: int = 3, rho: float = 1.0 / 3.0) -> SpannerParameters:
    """The parameter setting used by all experiments unless overridden.

    The internal-epsilon convention is used so the phase thresholds stay
    human-scale; the resulting exact ``(1+alpha, beta)`` guarantee is reported
    alongside every measurement.
    """
    return SpannerParameters.from_internal_epsilon(epsilon, kappa, rho)


def scaling_sizes(base: int = 100, steps: int = 4, factor: float = 2.0) -> List[int]:
    """Geometric size sweep used by the scaling experiments."""
    sizes = []
    size = base
    for _ in range(steps):
        sizes.append(int(size))
        size *= factor
    return sizes


def scaling_graphs(sizes: Iterable[int], family: str = "gnp", seed: int = 11) -> List[Tuple[int, Graph]]:
    """One graph per size from the given family (for round/size scaling plots)."""
    graphs = []
    for index, size in enumerate(sizes):
        graphs.append((size, generators.make_workload(family, size, seed=seed + index)))
    return graphs
