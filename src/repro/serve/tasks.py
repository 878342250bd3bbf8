"""Pure task functions behind the serving tier.

``build_task`` is the process-pool entry point for build misses (module-level
so it pickles); the remaining helpers are the in-process compute paths for
stretch and distance queries plus the payload <-> warm-object adapters.

Every function here is a pure function of its (JSON-safe) inputs -- no
wall-clock, no worker identity -- which is what makes served payloads
byte-identical to direct :func:`repro.build` / stretch evaluation and
independent of concurrency, batching and coalescing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import algorithms
from ..analysis.stretch import (
    EXHAUSTIVE_MAX_VERTICES,
    evaluate_stretch,
    evaluate_stretch_sampled,
)
from ..core.parameters import StretchGuarantee
from ..graphs.distances import INFINITY, DistanceCache
from ..graphs.graph import Graph


def build_task(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Build one spanner; pool entry point for build-request misses.

    ``params`` is :meth:`BuildRequest.task_params` verbatim (the workload and
    algorithm seeds ride inside it, so the payload is a pure function of
    ``params`` alone).  Returns the canonical run-result dict plus the sorted
    spanner edge list the service needs to warm an in-memory snapshot for
    stretch queries.
    """
    from ..graphs.generators import make_workload

    graph = make_workload(
        str(params["family"]), int(params["size"]), seed=int(params["seed"])
    )
    run = algorithms.build(
        str(params["algorithm"]),
        graph,
        seed=int(params["seed"]),
        **dict(params.get("algorithm_params") or {}),
    )
    return {
        "result": run.to_dict(),
        "spanner_edges": [list(edge) for edge in sorted(run.spanner.edge_set())],
    }


def spanner_from_payload(num_vertices: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Reconstruct a warm spanner graph from a stored build wrapper."""
    return Graph(int(num_vertices), (tuple(int(x) for x in edge) for edge in edges))


def guarantee_from_payload(
    guarantee: Optional[Mapping[str, object]],
) -> Optional[StretchGuarantee]:
    """The declared guarantee of a run-result payload (floats survive the JSON
    round-trip exactly, so this reconstruction cannot shift a verdict)."""
    if guarantee is None:
        return None
    return StretchGuarantee(
        multiplicative=float(guarantee["multiplicative"]),
        additive=float(guarantee["additive"]),
    )


def stretch_payload(
    graph: Graph,
    spanner: Graph,
    guarantee: Optional[StretchGuarantee],
    num_pairs: int,
    pair_seed: int,
) -> Dict[str, object]:
    """Stretch-report payload for one query (in-process, cache-warm).

    Branches exactly like :func:`~repro.analysis.evaluate_run_stretch`:
    exhaustive on small graphs or ``num_pairs <= 0``, sampled otherwise.
    """
    if num_pairs <= 0 or graph.num_vertices <= EXHAUSTIVE_MAX_VERTICES:
        report = evaluate_stretch(graph, spanner, guarantee=guarantee)
    else:
        report = evaluate_stretch_sampled(
            graph, spanner, num_pairs=num_pairs, seed=pair_seed, guarantee=guarantee
        )
    return report.to_dict()


def distance_payload(
    cache: DistanceCache, pairs: Sequence[Tuple[int, int]]
) -> Dict[str, object]:
    """Distance-query payload: exact hop counts (-1 for unreachable pairs)."""
    distances: List[int] = []
    for u, v in pairs:
        d = cache.vector(int(u))[int(v)]
        distances.append(-1 if d == INFINITY else int(d))
    return {
        "pairs": [[int(u), int(v)] for u, v in pairs],
        "distances": distances,
    }
