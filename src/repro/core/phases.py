"""The one phase loop of the construction (paper Sections 2.2-2.3).

Every phase ``i`` does the same three things: run Algorithm 1 from the
centers of ``P_i``, supercluster around a ruling set of the popular centers
``W_i`` (phases ``i < ell`` only), and interconnect the clusters ``U_i``
left unclustered.  :func:`run_phases` owns everything the phases share --
the :class:`~repro.core.cluster_table.ClusterTable`, the spanner, the
provenance certificate, the phase records and both cluster histories --
while a :class:`PhaseSteps` object says *how* each step runs and what it
costs: the centralized engine (:mod:`repro.core.centralized`), the CONGEST
engine (:mod:`repro.core.distributed`) and the Elkin'05 surrogate
(:mod:`repro.baselines.elkin05_surrogate`) each supply one.

No edge is copied into a second store.  A step's edge batch goes into the
spanner, whose ``add_edges`` returns how many of its edges are new -- the
phase record's ``superclustering_edges`` / ``interconnection_edges`` -- and
the certificate keeps a reference to the same batch, for provenance.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..congest.ledger import RoundLedger
from ..graphs.graph import Graph
from .certificate import INTERCONNECTION_STEP, SUPERCLUSTERING_STEP, SpannerCertificate
from .cluster_table import ClusterTable, FlatClusters
from .interconnection import flatten_requests
from .parameters import SpannerParameters
from .result import PhaseRecord, RunResult

Edges = Set[Tuple[int, int]]


class PhaseSteps:
    """How one builder runs the steps of a phase, and its schedule.

    ``radii`` and ``deltas`` are the radius and exploration-depth schedules
    (the paper's by default).  A builder supplies:

    * ``rounds()`` -- the running ``(nominal, simulated)`` round totals, which
      the loop differences per phase;
    * ``explore(i, centers, delta, degree)`` -- Algorithm 1 from ``centers``;
      the result exposes ``popular``;
    * ``supercluster(i, centers, popular)`` -- the ruling set, the spanned
      center -> root map and the forest edges (phases ``i < ell``);
    * ``interconnect(i, exploration, unclustered_centers)`` -- the trace-back
      requests of ``U_i`` and the edges they add.
    """

    engine = ""
    ledger: Optional[RoundLedger] = None

    def __init__(self, graph: Graph, parameters: SpannerParameters) -> None:
        self.graph = graph
        self.parameters = parameters
        self.radii: List[int] = parameters.radius_bounds()
        self.deltas: List[int] = parameters.deltas()


def run_phases(graph: Graph, parameters: SpannerParameters, steps: PhaseSteps) -> RunResult:
    """Run every phase of the construction with ``steps``.

    The run is labelled ``new-<engine>``.  Its round total (summed over the
    phase records) and ledger summary are fixed here, so a simulator that
    runs more protocols later leaves them as they were.
    """
    n = graph.num_vertices
    spanner = Graph(n)
    certificate = SpannerCertificate()
    table = ClusterTable.singletons(n)
    cluster_history: List[FlatClusters] = [table.snapshot()]
    unclustered_history: List[FlatClusters] = []
    phase_records: List[PhaseRecord] = []

    for i in parameters.phases():
        delta = steps.deltas[i]
        degree = parameters.degree_threshold(i, n)
        centers = table.centers()
        nominal_before, simulated_before = steps.rounds()

        exploration = steps.explore(i, centers, delta, degree)
        popular = exploration.popular

        ruling_set: Set[int] = set()
        spanned_centers: List[int] = []
        forest_edges: Edges = set()
        superclustering_edges = 0
        if i < parameters.ell:
            ruling_set, center_root, forest_edges = steps.supercluster(i, centers, popular)
            spanned_centers = sorted(center_root)
            superclustering_edges = spanner.add_edges(forest_edges)
            certificate.record(forest_edges, i, SUPERCLUSTERING_STEP)
            unclustered = table.supercluster(center_root)
            cluster_history.append(table.snapshot())
        else:
            # Concluding phase: the superclustering step is skipped entirely.
            unclustered = table.retire_all()

        requests, edges = steps.interconnect(i, exploration, unclustered.centers())
        interconnection_edges = spanner.add_edges(edges)
        certificate.record(edges, i, INTERCONNECTION_STEP)
        pairs = flatten_requests(requests)

        nominal_after, simulated_after = steps.rounds()
        phase_records.append(
            PhaseRecord(
                index=i,
                stage=parameters.stage(i),
                delta=delta,
                degree_threshold=degree,
                num_clusters=len(centers),
                num_popular=len(popular),
                ruling_set_size=len(ruling_set),
                num_superclustered=len(spanned_centers),
                num_unclustered=len(unclustered),
                superclustering_edges=superclustering_edges,
                interconnection_edges=interconnection_edges,
                interconnection_paths=len(pairs),
                radius_bound=steps.radii[i],
                nominal_rounds=nominal_after - nominal_before,
                simulated_rounds=simulated_after - simulated_before,
                clusters_out=table.num_active,
                cluster_merges=len(spanned_centers),
                forest_edges=len(forest_edges),
                popular_centers=sorted(popular),
                ruling_set=sorted(ruling_set),
                superclustered_centers=spanned_centers,
                interconnection_pairs=pairs,
            )
        )
        unclustered_history.append(unclustered)

    ledger = steps.ledger
    result = RunResult(
        algorithm=f"new-{steps.engine}",
        graph=graph,
        spanner=spanner,
        guarantee=parameters.stretch_bound(),
        nominal_rounds=sum(record.nominal_rounds for record in phase_records),
        engine=steps.engine,
        phases=[record.to_dict() for record in phase_records],
        ledger_summary=ledger.summary() if ledger is not None else None,
        parameters=parameters,
        phase_records=phase_records,
        cluster_history=cluster_history,
        unclustered_history=unclustered_history,
        certificate=certificate,
        ledger=ledger,
    )
    result.details["edges_by_step"] = result.edges_by_step()
    return result
