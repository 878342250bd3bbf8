"""Integration tests for the table/figure experiment modules (small instances)."""

from __future__ import annotations

import pytest

from repro import build_spanner
from repro.experiments import (
    ALL_FIGURES,
    default_parameters,
    figure_spec,
    run_scenario,
    scaling_spec,
    table1_spec,
    table2_spec,
)
from repro.experiments.figures import figure_task
from repro.graphs import planted_partition_graph

#: The figure workloads: a small planted-community graph, and the larger one
#: whose communities give every phase popular clusters to supercluster
#: (epsilon=0.25, kappa=3, rho=1/3), with the pair samples the stretch
#: figures take on it.
FIGURE_WORKLOADS = {
    "planted60": (planted_partition_graph(6, 10, 0.6, 0.03, seed=5), {}),
    "planted140": (
        planted_partition_graph(10, 14, p_intra=0.5, p_inter=0.02, seed=13),
        {"figure7": {"sample_pairs": 400}, "figure8": {"sample_pairs": 400}},
    ),
}

#: The bound every row of Figures 2-8 must respect.
ROW_BOUNDS = {
    "figure2": lambda row: row["max_radius_measured"] <= row["radius_bound_R_i"],
    "figure3": lambda row: row["neighbourhood_overlaps"] == 0
    and (row["min_separation"] is None or row["min_separation"] >= row["required_separation"]),
    "figure4": lambda row: row["max_root_to_center_distance_in_H"] <= row["depth_bound"],
    "figure5": lambda row: not row["max_paths_per_center"]
    or row["max_paths_per_center"] < row["deg_i_budget"],
    "figure6": lambda row: row["max_measured"] <= row["bound"],
    "figure7": lambda row: row["max_additive_surplus"] <= row["allowed_surplus"] + 1e-9,
    "figure8": lambda row: row["max_surplus"] <= row["per-segment-allowance"] + 1e-9,
}


@pytest.fixture(scope="module", params=sorted(FIGURE_WORKLOADS))
def figure_run(request):
    graph, figure_kwargs = FIGURE_WORKLOADS[request.param]
    result = build_spanner(
        graph,
        parameters=default_parameters(epsilon=0.25, kappa=3, rho=1.0 / 3.0),
        engine="centralized",
    )
    return result, figure_kwargs


def _figure(name, figure_run):
    result, figure_kwargs = figure_run
    return ALL_FIGURES[name](result, **figure_kwargs.get(name, {}))


class TestTableExperiments:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sizes=(60, 120), sample_pairs=60),
            dict(sizes=(80, 160, 320), epsilon=0.25, kappa=3, rho=1.0 / 3.0, sample_pairs=120),
        ],
        ids=["n60-120", "n80-320"],
    )
    def test_table1_shape_checks_pass(self, kwargs):
        record = run_scenario(table1_spec(**kwargs))
        assert record.all_checks_passed, record.checks
        theory = [row for row in record.rows if row.get("kind") == "theory"]
        references = {row["reference"] for row in theory}
        assert any("Elkin'05" in ref for ref in references)
        assert any("New" in ref for ref in references)
        assert any(row.get("kind") == "measured" for row in record.rows)
        assert len(record.series["rounds-new"]) == len(kwargs["sizes"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=80, sample_pairs=60, include_distributed=False, include_greedy=True),
            dict(n=100, sample_pairs=80, include_distributed=False, include_greedy=False),
            dict(n=140, epsilon=0.25, kappa=3, rho=1.0 / 3.0, sample_pairs=150),
        ],
        ids=["n80", "n100", "n140"],
    )
    def test_table2_shape_checks_pass(self, kwargs):
        record = run_scenario(table2_spec(**kwargs))
        assert record.all_checks_passed, record.checks
        theory = [row for row in record.rows if row.get("kind") == "theory"]
        assert len(theory) == 14
        measured = {str(row["algorithm"]) for row in record.rows if row.get("kind") == "measured"}
        assert {
            "new-centralized",
            "elkin-neiman-2017",
            "elkin-peleg-2001",
            "elkin05-surrogate",
            "baswana-sen",
        } <= measured

    @pytest.mark.parametrize(
        "kwargs",
        [dict(sizes=(60, 120, 240), sample_pairs=50), dict(sizes=(80, 160, 320, 640), sample_pairs=100)],
        ids=["n60-240", "n80-640"],
    )
    def test_scaling_checks_pass(self, kwargs):
        record = run_scenario(scaling_spec(**kwargs))
        assert record.all_checks_passed, record.checks
        assert record.parameters["rounds-exponent"] < 1.0


class TestFigureExperiments:
    @pytest.mark.parametrize("name", sorted(ALL_FIGURES.keys()))
    def test_every_figure_check_passes(self, name, figure_run):
        record = _figure(name, figure_run)
        assert record.all_checks_passed, (name, record.checks)
        bound = ROW_BOUNDS.get(name)
        if bound is not None:
            assert all(bound(row) for row in record.rows), (name, record.rows)
        if name in ("figure3", "figure4"):
            # Both workloads reach a non-trivial ruling set and a
            # superclustering phase, so these figures have rows to check.
            assert record.rows

    def test_run_all_figures_returns_all(self):
        graph = planted_partition_graph(4, 8, 0.6, 0.05, seed=8)
        records = {name: run_scenario(figure_spec(name, graph=graph)) for name in ALL_FIGURES}
        assert set(records.keys()) == set(ALL_FIGURES.keys())
        assert all(record.all_checks_passed for record in records.values())

    def test_a_baseline_algorithm_is_refused(self):
        params = figure_spec("figure1", algorithm="baswana-sen").task_params()[0]
        with pytest.raises(ValueError, match="not an engine algorithm"):
            figure_task(params, seed=0)

    def test_figure1_reports_popular_clusters(self, figure_run):
        record = _figure("figure1", figure_run)
        assert any(row["popular"] > 0 for row in record.rows)
        assert any(row["superclustered"] > 0 for row in record.rows)

    def test_figure7_reports_pairs(self, figure_run):
        record = _figure("figure7", figure_run)
        assert record.parameters["pairs_checked"] > 0
        assert record.rows
