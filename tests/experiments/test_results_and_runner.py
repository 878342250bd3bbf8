"""Tests for experiment records, workloads and the measurement runner."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentRecord,
    default_parameters,
    fit_power_law,
    measure_algorithm,
    measurement_row,
    save_records,
    scaling_spec,
)
from repro.experiments.scaling import scaling_workload
from repro.graphs import gnp_random_graph


class TestExperimentRecord:
    def test_checks_aggregate(self):
        record = ExperimentRecord(name="x", description="d", checks={"a": True, "b": True})
        assert record.all_checks_passed
        record.checks["c"] = False
        assert not record.all_checks_passed

    def test_empty_checks_count_as_passed(self):
        assert ExperimentRecord(name="x", description="d").all_checks_passed

    def test_render_contains_rows_and_checks(self):
        record = ExperimentRecord(
            name="demo",
            description="a demo",
            rows=[{"a": 1}, {"a": 2}],
            series={"s": [1.0, 2.0]},
            checks={"ok": True},
        )
        record.add_note("hello")
        text = record.render()
        assert "== demo ==" in text
        assert "ok=PASS" in text
        assert "note: hello" in text

    def test_render_groups_heterogeneous_rows(self):
        record = ExperimentRecord(
            name="demo", description="", rows=[{"a": 1}, {"b": 2}],
        )
        text = record.render()
        assert "a" in text and "b" in text

    def test_save_and_load_round_trip(self, tmp_path):
        record = ExperimentRecord(
            name="demo", description="d", rows=[{"a": 1}], series={"s": [1.0]}, checks={"ok": True}
        )
        path = tmp_path / "demo.json"
        record.save(path)
        loaded = ExperimentRecord.load(path)
        assert loaded.name == "demo"
        assert loaded.rows == [{"a": 1}]
        assert loaded.checks == {"ok": True}

    def test_save_records_directory(self, tmp_path):
        # Files are named after the scenario: two records of the same name
        # (scaling and scaling-large) must not overwrite each other.
        records = {f"s{i}": ExperimentRecord(name="same", description="") for i in range(3)}
        paths = save_records(records, tmp_path / "out")
        assert [path.name for path in paths] == ["s0.json", "s1.json", "s2.json"]
        assert all(path.exists() for path in paths)

    def test_canonical_json_is_stable_and_sorted(self):
        record = ExperimentRecord(
            name="c", description="d", parameters={"b": 1, "a": 2}, checks={"ok": True}
        )
        text = record.to_canonical_json()
        assert text == record.to_canonical_json()
        assert text.index('"a"') < text.index('"b"')
        assert record.digest() == ExperimentRecord.from_dict(record.to_dict()).digest()

    def test_from_dict_round_trip(self):
        record = ExperimentRecord(
            name="r", description="d", rows=[{"a": 1}], series={"s": [1.0]},
            checks={"ok": False}, notes=["n"],
        )
        rebuilt = ExperimentRecord.from_dict(record.to_dict())
        assert rebuilt == record


class TestWorkloads:
    def test_default_parameters(self):
        params = default_parameters()
        assert params.kappa == 3
        assert params.num_phases >= 2

    def test_scaling_sizes_geometric(self):
        points = scaling_spec(sizes=(50, 100, 200), seed=4).task_params()
        assert [p["size"] for p in points] == [50, 100, 200]
        # The workload seed follows the sweep position.
        assert [p["workload_seed"] for p in points] == [4, 5, 6]

    def test_scaling_graphs(self):
        points = scaling_spec(sizes=(20, 40), family="gnp").task_params()
        graphs = [scaling_workload(p) for p in points]
        assert [g.num_vertices for g in graphs] == [20, 40]
        assert scaling_workload(points[1]) == graphs[1]


class TestRunner:
    def test_measure_algorithm_new_centralized(self):
        graph = gnp_random_graph(40, 0.1, seed=1)
        measurement, run = measure_algorithm(graph, "new-centralized", graph_name="g")
        assert measurement.algorithm == "new-centralized"
        assert measurement.guarantee_satisfied
        assert measurement.num_spanner_edges == run.num_edges
        assert measurement.nominal_rounds == run.nominal_rounds
        row = measurement.to_row()
        assert row["graph"] == "g"
        assert row["n"] == 40
        assert row["superclustering_edges"] + row["interconnection_edges"] <= run.num_edges

    def test_measure_algorithm_greedy(self):
        graph = gnp_random_graph(40, 0.1, seed=2)
        measurement, run = measure_algorithm(graph, "greedy", {"stretch": 5})
        assert measurement.algorithm == "greedy"
        assert measurement.multiplicative_bound == 5
        assert measurement.guarantee_satisfied
        assert measurement.num_spanner_edges == run.num_edges
        assert "superclustering_edges" not in measurement.to_row()

    def test_fit_power_law_exact(self):
        sizes = [10, 100, 1000]
        values = [5 * s ** 2 for s in sizes]
        assert fit_power_law(sizes, values) == pytest.approx(2.0)

    def test_fit_power_law_degenerate(self):
        assert fit_power_law([10], [100]) == 0.0
        assert fit_power_law([], []) == 0.0

    def test_measurement_row_strips_timing(self):
        graph = gnp_random_graph(30, 0.15, seed=3)
        measurement, _ = measure_algorithm(graph, "new-centralized", graph_name="g")
        row = measurement_row(measurement)
        assert "seconds" not in row
        assert "wall_seconds" not in row
        full = measurement.to_row()
        assert {k: v for k, v in full.items() if k != "seconds"} == row
