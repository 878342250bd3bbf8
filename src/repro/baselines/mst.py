"""Elkin's deterministic distributed MST ([Elk17], arXiv:1703.02411).

The registry's first non-spanner sibling: a minimum-spanning-forest
construction that runs as a genuine CONGEST protocol on the same simulator as
the paper's distributed engine (see :mod:`repro.primitives.fragments` for the
Boruvka fragment-merging protocol and :mod:`repro.graphs.mst` for the
canonical edge weights).  The output is *exact*, not approximate, so its
registry guarantee kind is ``exact-mst``: verification compares the produced
edge set against the centralized Kruskal reference, which must match edge for
edge because the canonical ``(weight, u, v)`` order is a strict total order.

The forest doubles as a (trivially guaranteed) spanner so every
spanner-shaped pipeline -- Table 2, stretch evaluation, the serve tier --
consumes it unchanged: a spanning forest preserves connectivity and distorts
distances by at most ``n - 1`` multiplicatively, which is the declared
run-level guarantee.
"""

from __future__ import annotations

from typing import Optional

from ..algorithms.result import RunResult
from ..congest.simulator import Simulator
from ..core.parameters import StretchGuarantee
from ..graphs.graph import Graph
from ..graphs.mst import total_weight
from ..primitives.fragments import run_boruvka_msf


def build_elkin_mst(
    graph: Graph,
    *,
    seed: int = 0,
    simulator: Optional[Simulator] = None,
) -> RunResult:
    """Build the minimum spanning forest via the distributed Boruvka protocol.

    ``simulator`` may be supplied to share round/message accounting with a
    caller-owned ledger (the CLI's ``--simulate`` path); otherwise a strict
    CONGEST simulator is created for the build.  ``seed`` is accepted for
    builder-signature uniformity; the algorithm is deterministic.
    """
    if simulator is None:
        simulator = Simulator(graph, strict_congestion=True)
    outcome = run_boruvka_msf(simulator)

    n = graph.num_vertices
    forest = Graph(n)
    for u, v in outcome.edges:
        forest.add_edge(u, v)

    return RunResult(
        algorithm="elkin-mst-2017",
        graph=graph,
        spanner=forest,
        # A spanning forest is trivially an (n-1)-multiplicative spanner; the
        # real guarantee (exactness against Kruskal) is checked by the
        # registry's ``exact-mst`` guarantee kind.
        guarantee=StretchGuarantee(multiplicative=float(max(1, n - 1)), additive=0.0),
        nominal_rounds=outcome.nominal_rounds,
        phases=outcome.phase_stats,
        details={
            "msf_weight": total_weight(outcome.edges),
            "num_msf_edges": len(outcome.edges),
            "num_fragments": len(set(outcome.fragment)),
            "num_boruvka_phases": outcome.num_phases,
            "messages": outcome.messages,
            "seed": seed,
        },
    )
