"""Tests for size accounting and the lemma-verification report."""

from __future__ import annotations

import pytest

from repro.analysis import size_report, verify_run
from repro.experiments.figures import figure5_interconnection
from repro.core import build_spanner
from repro.graphs import planted_partition_graph


@pytest.fixture(scope="module")
def run_result():
    graph = planted_partition_graph(5, 10, 0.6, 0.03, seed=6)
    from repro.core import SpannerParameters

    params = SpannerParameters.from_internal_epsilon(0.25, kappa=3, rho=1 / 3)
    return build_spanner(graph, parameters=params)


class TestSizeReport:
    def test_within_bound_and_consistent_totals(self, run_result):
        report = size_report(run_result)
        assert report.within_bound
        assert report.num_spanner_edges == run_result.num_edges
        assert report.superclustering_edges + report.interconnection_edges == report.num_spanner_edges
        assert sum(report.per_phase_edges.values()) == report.num_spanner_edges

    def test_density_ratio(self, run_result):
        report = size_report(run_result)
        assert 0 < report.density_ratio <= 1.0

    def test_to_dict_keys(self, run_result):
        data = size_report(run_result).to_dict()
        assert data["within_bound"] is True
        assert "per_phase_edges" in data

    def test_interconnection_budget_rows(self, run_result):
        # The per-phase Lemma 2.12 budget is the Figure 5 experiment's check.
        record = figure5_interconnection(run_result)
        assert len(record.rows) == len(run_result.phase_records)
        assert record.all_checks_passed, record.checks
        assert all(row["edges_added"] <= row["edge_budget"] or row["edge_budget"] == 0
                   for row in record.rows)

    def test_compression_summary(self, run_result):
        report = size_report(run_result)
        assert report.num_spanner_edges <= report.num_graph_edges
        assert report.density_ratio == report.num_spanner_edges / report.num_graph_edges
        assert report.size_bound > 0


class TestVerificationReport:
    def test_all_checks_pass_on_valid_run(self, run_result):
        report = verify_run(run_result)
        assert report.all_passed
        assert report.failures() == []

    def test_expected_check_names_present(self, run_result):
        report = verify_run(run_result)
        names = {check.name for check in report.checks}
        assert {
            "spanner-is-subgraph",
            "connectivity-preserved",
            "corollary-2.5-partition",
            "lemma-2.3-radius-bounds",
            "lemma-2.4-popular-superclustered",
            "lemmas-2.10-2.11-cluster-counts",
            "theorem-2.2-ruling-set-separation",
            "theorem-2.1-shortest-interconnection-paths",
        } <= names

    def test_by_name_lookup(self, run_result):
        report = verify_run(run_result)
        assert report.by_name("spanner-is-subgraph").passed
        with pytest.raises(KeyError):
            report.by_name("not-a-check")

    def test_to_dict(self, run_result):
        data = verify_run(run_result).to_dict()
        assert data["all_passed"] is True
        assert len(data["checks"]) >= 8

    def test_tampered_run_is_caught(self, run_result):
        """Corrupt the result (drop spanner edges) and make sure checks fail."""
        import copy

        tampered = copy.copy(run_result)
        tampered.spanner = run_result.graph.subgraph_from_edges([])
        report = verify_run(tampered, check_interconnection_paths=True)
        assert not report.all_passed

    def test_interconnection_path_check_optional(self, run_result):
        fast = verify_run(run_result, check_interconnection_paths=False)
        names = {check.name for check in fast.checks}
        assert "theorem-2.1-shortest-interconnection-paths" not in names
