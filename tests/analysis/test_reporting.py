"""Tests for the table/series renderers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    format_value,
    percentile,
    render_markdown_table,
    render_serve_report,
    render_series,
    render_table,
)


def test_format_value_variants():
    assert format_value(None) == "-"
    assert format_value(True) == "yes"
    assert format_value(False) == "no"
    assert format_value(0.0) == "0"
    assert format_value(float("inf")) == "inf"
    assert format_value(1234567.0) == "1.23e+06"
    assert format_value(0.25) == "0.25"
    assert format_value("text") == "text"


def test_render_table_alignment_and_header():
    rows = [{"name": "a", "value": 1}, {"name": "bbbb", "value": 23}]
    text = render_table(rows, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 2 + 1 + len(rows)


def test_render_table_empty():
    assert "(no rows)" in render_table([])
    assert render_table([], title="t").startswith("t")


def test_render_table_respects_column_selection():
    rows = [{"a": 1, "b": 2}]
    text = render_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


def test_render_markdown_table():
    rows = [{"x": 1, "y": 2.5}]
    text = render_markdown_table(rows)
    assert text.splitlines()[0] == "| x | y |"
    assert "---" in text.splitlines()[1]
    assert "2.5" in text.splitlines()[2]


def test_render_markdown_empty():
    assert render_markdown_table([]) == "(no rows)"


def test_render_series():
    text = render_series({"rounds": [1.0, 2.0, 4.0]}, x_label="n", title="scaling")
    assert "scaling" in text
    assert "rounds (n)" in text


class TestPercentile:
    """The one nearest-rank percentile every report shares (PR 9)."""

    def test_nearest_rank_values(self):
        values = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert percentile(values, 30) == 20.0
        assert percentile(values, 40) == 20.0
        assert percentile(values, 50) == 35.0
        assert percentile(values, 100) == 50.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile([1.0, 2.0, 3.0], 50)

    def test_extremes_and_empty(self):
        assert percentile([7.0, 3.0], 0) == 3.0
        assert percentile([], 50) == 0.0
        assert percentile([4.0], 99) == 4.0

    def test_reported_quantile_is_an_observed_value(self):
        values = [float(v) for v in range(101)]
        for q in (1, 25, 50, 75, 99):
            assert percentile(values, q) in values

    def test_q_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_shape(self):
        # The p50/p99 pair the serve load report and suite manifests print.
        values = [1.0, 2.0, 3.0, 4.0]
        assert (percentile(values, 50), percentile(values, 99)) == (2.0, 4.0)
        assert percentile([5.0], 90) == 5.0


def test_render_serve_report_shows_the_load_facts():
    report = {
        "requests": 100,
        "elapsed_seconds": 0.5,
        "throughput_rps": 200.0,
        "dropped": 0,
        "latency_ms": {"p50": 1.0, "p99": 9.0, "max": 12.0},
        "hit_rate": 0.8,
        "coalesce_rate": 0.05,
        "max_batch": 4,
        "stats": {"pool_submissions": 6},
        "status_counts": {"hit": 80, "computed": 15, "coalesced": 5},
        "kind_counts": {"build": 40, "stretch-query": 60},
        "failure_count": 0,
    }
    text = render_serve_report(report)
    assert "100 requests" in text
    assert "p50 1" in text and "p99 9" in text
    assert "hit rate 0.8" in text
    assert "pool submissions 6" in text
    assert "responses by status" in text
    assert "responses by kind" in text
    assert "no quarantined requests" in text


def test_render_serve_report_flags_quarantined_requests():
    report = {"requests": 1, "status_counts": {"failed": 1}, "failure_count": 1}
    assert "QUARANTINED REQUESTS: 1" in render_serve_report(report)
