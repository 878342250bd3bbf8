"""Guarantee-kind dispatch: one verifier for every registered algorithm.

The registry's original contract -- "every algorithm declares a
``(1 + eps, beta)`` stretch guarantee" -- stopped being the whole story the
moment non-spanner siblings joined the survey: the distributed MST promises an
*exact* edge set, and the low-stretch tree promises a bound on the stretch
*averaged* over vertex pairs.  :class:`~repro.algorithms.registry.AlgorithmSpec`
therefore carries a ``guarantee_kind`` field, and this module owns the
dispatch: :func:`verify_registered_guarantee` turns (spec, run) into a
uniform pass/fail verdict regardless of what kind of promise the algorithm
makes.  The registry-driven property tests and the verification CLI both call
this single entry point, so registering a new guarantee kind means teaching
exactly one function how to check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..baselines.low_stretch_tree import declared_average_stretch_bound
from ..graphs.distances import INFINITY, sample_vertex_pairs
from ..graphs.graph import Graph
from ..graphs.mst import kruskal_msf, total_weight
from .stretch import EXHAUSTIVE_MAX_VERTICES


@dataclass
class GuaranteeCheck:
    """A verified guarantee: which kind was checked, whether it held, and how."""

    kind: str
    ok: bool
    detail: Dict[str, object] = field(default_factory=dict)
    failure: Optional[str] = None


def measured_average_stretch(
    graph: Graph,
    spanner: Graph,
    num_pairs: int = 400,
    seed: int = 0,
) -> GuaranteeCheck:
    """Average multiplicative stretch over vertex pairs, via :class:`DistanceCache`.

    Pairs disconnected in the graph are skipped (no distance to preserve);
    a pair connected in the graph but not in the subgraph is an immediate
    failure (a spanning subgraph must preserve connectivity).  Small graphs
    are measured over all pairs, larger ones over ``num_pairs`` sampled ones.
    """
    n = graph.num_vertices
    if n <= EXHAUSTIVE_MAX_VERTICES or num_pairs <= 0:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        pairs = sample_vertex_pairs(n, num_pairs, seed=seed)

    graph_cache = graph.distance_cache()
    spanner_cache = spanner.distance_cache()
    total_ratio = 0.0
    counted = 0
    for u, v in pairs:
        d_graph = graph_cache.vector(u)[v]
        if d_graph == INFINITY or d_graph == 0:
            continue
        d_spanner = spanner_cache.vector(u)[v]
        if d_spanner == INFINITY:
            return GuaranteeCheck(
                kind="average-stretch",
                ok=False,
                detail={"pairs_checked": counted},
                failure=f"pair ({u}, {v}) is connected in the graph but not the tree",
            )
        total_ratio += d_spanner / d_graph
        counted += 1

    average = total_ratio / counted if counted else 1.0
    return GuaranteeCheck(
        kind="average-stretch",
        ok=True,
        detail={"average_stretch": average, "pairs_checked": counted},
    )


def _verify_stretch(spec, run, num_pairs: int, seed: int) -> GuaranteeCheck:
    from .stretch import evaluate_run_stretch

    guarantee = run.guarantee
    if guarantee is None:
        return GuaranteeCheck(
            kind="stretch",
            ok=False,
            failure=f"algorithm {spec.name!r} run declares no stretch guarantee",
        )
    report = evaluate_run_stretch(run, num_pairs=num_pairs, seed=seed)
    return GuaranteeCheck(
        kind="stretch",
        ok=report.satisfies_guarantee,
        detail={
            "pairs_checked": report.pairs_checked,
            "max_multiplicative": report.max_multiplicative,
            "max_additive_surplus": report.max_additive_surplus,
            "declared_multiplicative": guarantee.multiplicative,
            "declared_additive": guarantee.additive,
        },
        failure=(
            None
            if report.satisfies_guarantee
            else (
                f"{len(report.violations)} pair(s) exceed the declared "
                f"guarantee; {report.disconnected_mismatches} connectivity "
                "mismatch(es)"
            )
        ),
    )


def _verify_exact_mst(spec, run) -> GuaranteeCheck:
    produced = sorted(run.spanner.edges())
    reference = sorted(kruskal_msf(run.graph))
    produced_weight = total_weight(produced)
    reference_weight = total_weight(reference)
    ok = produced == reference
    detail = {
        "num_edges": len(produced),
        "reference_edges": len(reference),
        "total_weight": produced_weight,
        "reference_weight": reference_weight,
    }
    failure = None
    if not ok:
        missing = len(set(reference) - set(produced))
        extra = len(set(produced) - set(reference))
        failure = (
            f"edge set differs from the Kruskal reference: {missing} missing, "
            f"{extra} extra (weight {produced_weight} vs {reference_weight})"
        )
    return GuaranteeCheck(kind="exact-mst", ok=ok, detail=detail, failure=failure)


def _verify_average_stretch(spec, run, num_pairs: int, seed: int) -> GuaranteeCheck:
    bound = run.details.get("average_stretch_bound")
    if not isinstance(bound, (int, float)):
        bound = declared_average_stretch_bound(run.graph.num_vertices)
    check = measured_average_stretch(
        run.graph, run.spanner, num_pairs=num_pairs, seed=seed
    )
    if not check.ok:
        return check
    average = check.detail["average_stretch"]
    check.detail["declared_bound"] = float(bound)
    if average > bound:
        check.ok = False
        check.failure = (
            f"measured average stretch {average:.3f} exceeds the declared "
            f"bound {float(bound):.3f}"
        )
    return check


def verify_registered_guarantee(spec, run, num_pairs: int = 400, seed: int = 0) -> GuaranteeCheck:
    """Check ``run`` against ``spec``'s declared guarantee, whatever its kind.

    ``spec`` is an :class:`~repro.algorithms.registry.AlgorithmSpec`; ``run``
    the :class:`~repro.core.result.RunResult` its builder produced.
    Dispatches on ``spec.guarantee_kind`` (see
    :data:`~repro.algorithms.registry.GUARANTEE_KINDS`).
    """
    kind = spec.guarantee_kind
    if kind == "stretch":
        return _verify_stretch(spec, run, num_pairs, seed)
    if kind == "exact-mst":
        return _verify_exact_mst(spec, run)
    if kind == "average-stretch":
        return _verify_average_stretch(spec, run, num_pairs, seed)
    raise ValueError(f"no verifier for guarantee kind {kind!r}")
