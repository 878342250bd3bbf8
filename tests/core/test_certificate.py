"""Tests for the edge-provenance certificate."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    INTERCONNECTION_STEP,
    SUPERCLUSTERING_STEP,
    EdgeProvenance,
    SpannerCertificate,
    build_spanner,
)


def test_first_provenance_wins():
    cert = SpannerCertificate()
    cert.record([(0, 1)], phase=0, step=SUPERCLUSTERING_STEP)
    cert.record([(0, 1)], phase=2, step=INTERCONNECTION_STEP)
    assert cert.provenance[(0, 1)].phase == 0
    assert cert.provenance[(0, 1)].step == SUPERCLUSTERING_STEP


def test_unknown_step_rejected():
    cert = SpannerCertificate()
    with pytest.raises(ValueError):
        cert.record([(0, 1)], phase=0, step="bogus")


def test_edges_are_normalized():
    cert = SpannerCertificate()
    cert.record([(5, 2)], phase=0, step=INTERCONNECTION_STEP)
    assert cert.provenance == {(2, 5): EdgeProvenance(0, INTERCONNECTION_STEP)}


def test_provenance_read_before_a_record_is_rebuilt():
    cert = SpannerCertificate()
    cert.record([(0, 1)], phase=0, step=SUPERCLUSTERING_STEP)
    assert list(cert.provenance) == [(0, 1)]
    cert.record([(2, 1), (0, 1)], phase=1, step=INTERCONNECTION_STEP)
    assert cert.provenance == {
        (0, 1): EdgeProvenance(0, SUPERCLUSTERING_STEP),
        (1, 2): EdgeProvenance(1, INTERCONNECTION_STEP),
    }


@pytest.mark.parametrize("engine", ["centralized", "distributed"])
def test_provenance_agrees_with_spanner_and_phase_records(any_graph, default_params, engine):
    result = build_spanner(any_graph, parameters=default_params, engine=engine)
    provenance = result.certificate.provenance
    assert set(provenance) == result.spanner.edge_set()
    tallies = Counter((origin.phase, origin.step) for origin in provenance.values())
    counted = {}
    for record in result.phase_records:
        counted[(record.index, SUPERCLUSTERING_STEP)] = record.superclustering_edges
        counted[(record.index, INTERCONNECTION_STEP)] = record.interconnection_edges
    assert dict(tallies) == {key: count for key, count in counted.items() if count}
    assert result.edges_by_step()["total"] == result.num_edges
