"""Tests for the registered dynamic scenarios and their pipeline contract."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import render_dynamic_summary
from repro.cli import main
from repro.dynamic.scenarios import (
    CHURN_KINDS,
    dynamic_churn_spec,
    dynamic_growth_spec,
    incremental_algorithm_names,
)
from repro.experiments import all_specs, get_spec, run_scenario


def quick_churn(**overrides):
    kwargs = dict(size=40, steps=3, batch_size=3, workload_seed=23)
    kwargs.update(overrides)
    return dynamic_churn_spec(**kwargs)


def quick_growth(**overrides):
    kwargs = dict(size=40, steps=4, batch_size=3, workload_seed=41)
    kwargs.update(overrides)
    return dynamic_growth_spec(**kwargs)


class TestRegistration:
    def test_both_scenarios_are_registered_under_the_dynamic_tag(self):
        names = [spec.name for spec in all_specs("dynamic")]
        assert names == ["dynamic-churn", "dynamic-growth"]

    def test_churn_carries_the_dynamic_tier_contract_checks(self):
        assert set(get_spec("dynamic-churn").checks) == {
            "guarantee-preserved-every-step",
            "spanner-stays-subgraph",
            "rebuild-equivalence-sparseness",
            "decisions-recorded",
        }

    def test_growth_adds_the_crossover_check(self):
        assert "incremental-beats-rebuild" in get_spec("dynamic-growth").checks

    def test_matrix_covers_kinds_times_incremental_algorithms(self):
        spec = get_spec("dynamic-churn")
        points = spec.task_params()
        names = incremental_algorithm_names(int(spec.defaults["size"]))
        assert len(points) == len(CHURN_KINDS) * len(names)
        assert {p["kind"] for p in points} == set(CHURN_KINDS)
        assert {p["algorithm"] for p in points} == set(names)

    def test_distributed_engine_is_not_in_the_matrix(self):
        spec = get_spec("dynamic-growth")
        assert all(
            p["algorithm"] != "new-distributed" for p in spec.task_params()
        )


class TestChurnScenario:
    @pytest.fixture(scope="class")
    def record(self):
        return run_scenario(quick_churn())

    def test_every_check_passes(self, record):
        assert record.all_checks_passed, record.checks

    def test_guarantee_holds_after_every_step_in_every_row(self, record):
        for row in record.rows:
            assert row["steps_ok"]
            assert all(step["guarantee_ok"] for step in row["steps"])

    def test_rows_carry_the_rebuild_equivalence_fields(self, record):
        for row in record.rows:
            assert row["rebuild_guarantee_ok"] is True
            assert 0 < row["sparseness_ratio"] <= 2.0
            assert row["trace_fingerprint"]

    def test_series_track_the_matrix(self, record):
        rows = len(record.rows)
        for name in ("incremental-work", "rebuild-proxy-work", "sparseness-ratio"):
            assert len(record.series[name]) == rows

    def test_render_dynamic_summary_tabulates_every_row(self, record):
        text = render_dynamic_summary(record)
        assert "dynamic summary: dynamic-churn" in text
        for algorithm in {row["algorithm"] for row in record.rows}:
            assert algorithm in text


class TestGrowthScenario:
    @pytest.fixture(scope="class")
    def record(self):
        return run_scenario(quick_growth())

    def test_every_check_passes(self, record):
        assert record.all_checks_passed, record.checks

    def test_growth_rows_are_insert_only(self, record):
        for row in record.rows:
            assert all(step["num_remove"] == 0 for step in row["steps"])

    def test_touched_certificate_rows_beat_the_rebuild_proxy(self, record):
        touched = [r for r in record.rows if r["certificate"] == "touched"]
        assert touched
        for row in touched:
            assert row["incremental_work"] < row["rebuild_proxy_work"]
            assert row["rebuilds"] == 0


class TestDeterminism:
    """Acceptance criterion: churn traces are identical across --jobs 1/N."""

    def test_churn_record_is_byte_identical_across_runs_and_jobs(self):
        spec = quick_churn()
        serial_one = run_scenario(spec, jobs=1).to_canonical_json()
        serial_two = run_scenario(spec, jobs=1).to_canonical_json()
        parallel = run_scenario(spec, jobs=4).to_canonical_json()
        assert serial_one == serial_two
        assert serial_one == parallel

    def test_growth_record_is_byte_identical_under_parallel_execution(self):
        serial = run_scenario(quick_growth(), jobs=1).to_canonical_json()
        parallel = run_scenario(quick_growth(), jobs=3).to_canonical_json()
        assert serial == parallel

    def test_workload_seed_changes_the_traces(self):
        one = run_scenario(quick_churn(workload_seed=23))
        two = run_scenario(quick_churn(workload_seed=24))
        prints = lambda rec: [row["trace_fingerprint"] for row in rec.rows]
        assert prints(one) != prints(two)


class TestCli:
    def test_repro_dynamic_runs_the_tier(self, tmp_path, capsys):
        records = tmp_path / "records"
        code = main(
            [
                "suite",
                "run",
                "--filter",
                "dynamic-churn",
                "--records",
                str(records),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dynamic summary: dynamic-churn" in out
        # The record is pinned: any drift means a maintenance decision, a
        # work count or a verification result changed.
        digest = hashlib.sha256((records / "dynamic-churn.json").read_bytes())
        assert digest.hexdigest() == (
            "0331c54134c1a5ee421de41c12736561a417eca86b52b74025a356a186c214bf"
        )

    def test_unknown_scenario_filter_fails_cleanly(self, capsys):
        assert main(["suite", "run", "--filter", "dynamic-nonsense"]) == 2
