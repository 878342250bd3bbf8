"""repro -- reproduction of "Near-Additive Spanners In Low Polynomial Deterministic CONGEST Time".

The package implements, from scratch:

* :mod:`repro.graphs` -- the graph substrate (adjacency graphs, BFS, distances,
  generators);
* :mod:`repro.congest` -- a synchronous CONGEST-model simulator with bandwidth
  auditing and round accounting;
* :mod:`repro.primitives` -- the distributed building blocks (Algorithm 1's
  bounded exploration, deterministic ruling sets, BFS forests, trace-backs);
* :mod:`repro.core` -- the paper's contribution: the deterministic
  superclustering-and-interconnection construction of ``(1+eps, beta)``-spanners,
  available both as a faithful CONGEST simulation and as a fast centralized
  reference engine;
* :mod:`repro.baselines` -- the nine algorithms the paper compares against
  (Elkin-Neiman'17, Elkin-Peleg'01, an Elkin'05-style surrogate, Baswana-Sen,
  greedy, Elkin's distributed MST, the sparse-schedule Elkin-Matar and
  Elkin-Neiman spanners, and the EEST low-stretch spanning tree);
* :mod:`repro.algorithms` -- the declarative algorithm registry: every
  construction above registered as an :class:`AlgorithmSpec` behind the one
  :func:`build` facade returning a unified :class:`RunResult`;
* :mod:`repro.analysis` -- stretch/size verification and the theoretical bound
  calculators behind Tables 1 and 2;
* :mod:`repro.experiments` -- the harness that regenerates every table and
  figure of the paper.

Quickstart::

    from repro import build, build_spanner
    from repro.graphs import gnp_random_graph

    graph = gnp_random_graph(300, 0.03, seed=7)
    result = build_spanner(graph, epsilon=0.5, kappa=3, rho=1/3)
    print(result.num_edges, "edges;", result.parameters.stretch_bound())

    # ... or any registered algorithm by name, via the registry facade:
    run = build("baswana-sen", graph, kappa=3, seed=1)
    print(run.algorithm, run.num_edges, run.guarantee)
"""

from . import algorithms
from .algorithms import AlgorithmSpec, RunResult, build
from .core import (
    SpannerParameters,
    SpannerResult,
    StretchGuarantee,
    build_spanner,
    build_spanner_centralized,
    build_spanner_distributed,
    make_parameters,
)
from .graphs import Graph

__version__ = "1.0.0"

__all__ = [
    "AlgorithmSpec",
    "Graph",
    "RunResult",
    "SpannerParameters",
    "SpannerResult",
    "StretchGuarantee",
    "__version__",
    "algorithms",
    "build",
    "build_spanner",
    "build_spanner_centralized",
    "build_spanner_distributed",
    "make_parameters",
]
