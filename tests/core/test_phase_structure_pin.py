"""Structural pin of the phase loop: what each phase decided, not what it cost.

Every build below is reduced to one digest of

* every :class:`~repro.core.result.PhaseRecord` field except the two round
  counts (the per-phase sets included);
* the centers and the vertex -> center membership of every ``P_i`` and
  ``U_i`` snapshot;
* the certificate's provenance, sorted by edge.

A digest moves only if a phase's popular set, ruling set, superclusters,
interconnection requests or spanner edges move -- never for a change to the
round accounting alone.  The Elkin'05 surrogate's whole payload (rounds
included) and edge list are pinned at the benchmark scale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

import repro
import repro.kernels as kernels
from repro.graphs import gnp_random_graph, sparse_gnp_random_graph

GRAPHS = {
    "gnp40": lambda: gnp_random_graph(40, 0.15, seed=4),
    "gnp120": lambda: gnp_random_graph(120, 0.05, seed=21),
    # Phase 1 superclusters 26 centers here.
    "sparse4096": lambda: sparse_gnp_random_graph(4096, 16 / 4095, seed=3),
}

#: ``structural_digest`` of ``repro.build(engine, graph, seed=3)``.
PINNED_STRUCTURE = {
    ("new-centralized", "gnp40"): "fcbb677ac82064d9",
    ("new-distributed", "gnp40"): "fcbb677ac82064d9",
    ("new-centralized", "gnp120"): "47d443394abe28b8",
    ("new-distributed", "gnp120"): "e5208ba2420f38a1",
    ("new-centralized", "sparse4096"): "1252eadd40a5558a",
    ("new-distributed", "sparse4096"): "1252eadd40a5558a",
}

#: ``sha256(to_dict JSON + sorted edge list JSON)[:16]`` of the surrogate on
#: the ``sparse4096`` graph.
PINNED_SURROGATE_4096 = "7824c3b3024bb0c9"

_ROUND_FIELDS = ("nominal_rounds", "simulated_rounds")


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def structural_digest(result) -> str:
    """Digest of a build's per-phase structure, its clusters and its provenance."""
    records = []
    for record in result.phase_records:
        fields = dataclasses.asdict(record)
        for name in _ROUND_FIELDS:
            del fields[name]
        records.append(fields)
    snapshots = [
        [snapshot.centers(), sorted(snapshot.vertex_to_center().items())]
        for history in (result.cluster_history, result.unclustered_history)
        for snapshot in history
    ]
    provenance = [
        [u, v, origin.phase, origin.step]
        for (u, v), origin in sorted(result.certificate.provenance.items())
    ]
    return _sha(json.dumps([records, snapshots, provenance]))


@pytest.fixture(params=["python", "numpy", "auto"])
def any_kernel(request, kernel):
    """Run a test once per kernel mode (numpy and auto skip without numpy)."""
    if request.param != "python" and not kernels.numpy_available():
        pytest.skip("numpy/scipy not installed")
    kernel(None if request.param == "auto" else request.param)
    return request.param


@pytest.mark.parametrize("engine, graph_name", sorted(PINNED_STRUCTURE))
def test_phase_structure_is_pinned(engine, graph_name, any_kernel):
    result = repro.build(engine, GRAPHS[graph_name](), seed=3)
    assert structural_digest(result) == PINNED_STRUCTURE[(engine, graph_name)]


def test_surrogate_payload_is_pinned_at_scale(any_kernel):
    run = repro.build("elkin05-surrogate", GRAPHS["sparse4096"](), seed=3)
    payload = json.dumps(run.to_dict()) + json.dumps(sorted(run.spanner.edge_set()))
    assert _sha(payload) == PINNED_SURROGATE_4096
