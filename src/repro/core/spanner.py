"""Public entry point: build a near-additive spanner deterministically.

Typical usage::

    from repro import build_spanner
    from repro.graphs import gnp_random_graph

    graph = gnp_random_graph(400, 0.02, seed=1)
    result = build_spanner(graph, epsilon=0.5, kappa=3, rho=1/3)
    print(result.num_edges, result.guarantee)

``epsilon`` is the *user-facing* stretch parameter: the returned spanner
satisfies ``d_H(u, v) <= (1 + epsilon) d_G(u, v) + beta`` for every vertex
pair, where ``beta = result.guarantee.additive``.  Pass
``epsilon_is_internal=True`` to hand the phase-threshold epsilon directly
(useful for studying the phase dynamics with human-scale thresholds; the
guarantee is then whatever ``parameters.stretch_bound()`` reports).
"""

from __future__ import annotations

from typing import Optional

from ..congest.simulator import Simulator
from ..graphs.graph import Graph
from .centralized import build_spanner_centralized
from .distributed import build_spanner_distributed
from .parameters import SpannerParameters
from .result import RunResult

ENGINE_CENTRALIZED = "centralized"
ENGINE_DISTRIBUTED = "distributed"
_ENGINES = (ENGINE_CENTRALIZED, ENGINE_DISTRIBUTED)


def make_parameters(
    epsilon: float,
    kappa: int,
    rho: float,
    epsilon_is_internal: bool = False,
) -> SpannerParameters:
    """Build a :class:`SpannerParameters` from user-level arguments."""
    if epsilon_is_internal:
        return SpannerParameters.from_internal_epsilon(epsilon, kappa, rho)
    return SpannerParameters.from_user_epsilon(epsilon, kappa, rho)


def build_spanner(
    graph: Graph,
    epsilon: float = 0.5,
    kappa: int = 3,
    rho: float = 1.0 / 3.0,
    engine: str = ENGINE_CENTRALIZED,
    epsilon_is_internal: bool = False,
    parameters: Optional[SpannerParameters] = None,
    simulator: Optional[Simulator] = None,
) -> RunResult:
    """Construct a ``(1 + epsilon, beta)``-spanner of ``graph``.

    Parameters
    ----------
    graph:
        The unweighted undirected host graph.
    epsilon, kappa, rho:
        The paper's parameters: multiplicative slack, sparseness exponent
        (``O(beta n^{1+1/kappa})`` edges) and round exponent
        (``O(beta n^rho / rho)`` CONGEST rounds); ``1/kappa <= rho <= 1/2``.
    engine:
        ``"centralized"`` (fast reference implementation) or ``"distributed"``
        (faithful CONGEST simulation with round/message accounting).
    epsilon_is_internal:
        Interpret ``epsilon`` as the paper's internal (pre-rescaling) epsilon.
    parameters:
        A fully-built :class:`SpannerParameters`; overrides the three scalars.
    simulator:
        Optional pre-configured simulator (distributed engine only).

    Returns
    -------
    RunResult
        The run labelled ``new-<engine>``, the same record
        :func:`repro.build` returns: the spanner, the guarantee, per-phase
        statistics, cluster history, edge provenance and (for the
        distributed engine) the round ledger.
    """
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if parameters is None:
        parameters = make_parameters(epsilon, kappa, rho, epsilon_is_internal)
    if engine == ENGINE_CENTRALIZED:
        if simulator is not None:
            raise ValueError("a simulator can only be supplied to the distributed engine")
        return build_spanner_centralized(graph, parameters)
    return build_spanner_distributed(graph, parameters, simulator=simulator)
