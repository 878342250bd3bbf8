"""Tests for the chaos scenarios: fault injection vs. guarantee preservation."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import render_fault_summary
from repro.cli import main
from repro.congest import ProtocolFault
from repro.experiments import all_specs, get_spec, run_scenario
from repro.experiments import chaos as chaos_module
from repro.experiments.chaos import (
    CHAOS_PRIMITIVES,
    FAULT_PROFILES,
    OUTCOMES,
    chaos_primitives_spec,
    chaos_primitives_task,
    chaos_sweep_spec,
    chaos_sweep_task,
)


class TestRegistration:
    def test_both_scenarios_are_registered_under_the_chaos_tag(self):
        names = [spec.name for spec in all_specs("chaos")]
        assert names == ["chaos-primitives", "chaos-sweep"]

    def test_specs_carry_the_fault_tier_contract_checks(self):
        for name in ("chaos-primitives", "chaos-sweep"):
            spec = get_spec(name)
            assert set(spec.checks) == {
                "all-tasks-terminated",
                "safety-guarantees-survive",
                "zero-fault-exact",
                "faults-counted",
            }

    def test_primitives_grid_covers_every_primitive_and_profile(self):
        points = get_spec("chaos-primitives").task_params()
        assert len(points) == len(CHAOS_PRIMITIVES) * len(FAULT_PROFILES)
        assert {p["primitive"] for p in points} == set(CHAOS_PRIMITIVES)
        assert {p["profile"] for p in points} == set(FAULT_PROFILES)


class TestChaosPrimitives:
    @pytest.fixture(scope="class")
    def record(self):
        return run_scenario(chaos_primitives_spec(size=40))

    def test_every_check_passes(self, record):
        assert record.all_checks_passed, record.checks

    def test_every_row_reaches_a_typed_outcome(self, record):
        assert all(row["outcome"] in OUTCOMES for row in record.rows)

    def test_zero_fault_rows_are_exact_with_zero_counters(self, record):
        quiet = [row for row in record.rows if not row["injected"]]
        assert len(quiet) == len(CHAOS_PRIMITIVES)
        for row in quiet:
            assert row["outcome"] == "exact"
            assert row["attempts"] == 1
            assert all(count == 0 for count in row["fault_counters"].values())

    def test_active_plans_inject_counted_faults(self, record):
        for row in record.rows:
            if row["injected"] and row["outcome"] != "protocol-fault":
                assert sum(
                    v for k, v in row["fault_counters"].items() if k != "delay_rounds"
                ) > 0

    def test_safety_survives_every_terminating_run(self, record):
        for row in record.rows:
            if row["outcome"] != "protocol-fault":
                assert row["safety_intact"] is True

    def test_render_fault_summary_tabulates_every_row(self, record):
        text = render_fault_summary(record)
        assert "fault summary: chaos-primitives" in text
        for primitive in CHAOS_PRIMITIVES:
            assert primitive in text
        assert "dropped" in text and "crashed_nodes" in text


class TestChaosSweep:
    @pytest.fixture(scope="class")
    def record(self):
        return run_scenario(chaos_sweep_spec(size=48))

    def test_every_check_passes(self, record):
        assert record.all_checks_passed, record.checks

    def test_series_track_the_grid(self, record):
        rows = len(record.rows)
        for name in ("drop-rate", "crash-fraction", "exactness-held", "faults-injected"):
            assert len(record.series[name]) == rows

    def test_fault_free_corner_is_exact(self, record):
        corner = [
            row
            for row in record.rows
            if row["drop_rate"] == 0.0 and row["crash_fraction"] == 0.0
        ]
        assert len(corner) == 1
        assert corner[0]["outcome"] == "exact"

    def test_fault_pressure_erodes_exactness_but_not_safety(self, record):
        stressed = [row for row in record.rows if row["injected"]]
        assert any(row["outcome"] == "verified-degraded" for row in stressed)
        assert all(row["safety_intact"] for row in stressed)


class TestDeterminism:
    """Acceptance criterion: a fixed fault seed gives byte-identical records."""

    def test_same_fault_seed_is_byte_identical_across_runs_and_jobs(self):
        spec = chaos_sweep_spec(size=40, fault_seed=55)
        serial_one = run_scenario(spec, jobs=1).to_canonical_json()
        serial_two = run_scenario(spec, jobs=1).to_canonical_json()
        parallel = run_scenario(spec, jobs=4).to_canonical_json()
        assert serial_one == serial_two
        assert serial_one == parallel

    def test_primitive_matrix_is_byte_identical_under_parallel_execution(self):
        spec = chaos_primitives_spec(size=32, profiles=["none", "drops", "crashes"])
        serial = run_scenario(spec, jobs=1).to_canonical_json()
        parallel = run_scenario(spec, jobs=3).to_canonical_json()
        assert serial == parallel

    def test_different_fault_seeds_change_the_injected_schedule(self):
        one = run_scenario(chaos_sweep_spec(size=40, fault_seed=55))
        two = run_scenario(chaos_sweep_spec(size=40, fault_seed=56))
        assert one.series["faults-injected"] != two.series["faults-injected"]


class TestProtocolFaultRows:
    def test_task_converts_protocol_fault_into_a_typed_row(self, monkeypatch):
        def explode(primitive, graph, plan, max_attempts):
            raise ProtocolFault(
                primitive, "round-timeout", attempts=max_attempts,
                fault_counters={"dropped": 7},
            )

        monkeypatch.setattr(chaos_module, "_run_primitive", explode)
        params = {
            "size": 32, "workload_seed": 11, "fault_seed": 93,
            "max_attempts": 2, "primitive": "bfs-forest", "profile": "drops",
        }
        row = chaos_primitives_task(params, 0)["row"]
        assert row["outcome"] == "protocol-fault"
        assert row["fault_reason"] == "round-timeout"
        assert row["attempts"] == 2
        assert row["safety_intact"] is None
        assert row["all_passed"] is False
        assert row["fault_counters"] == {"dropped": 7}

    def test_real_round_timeout_surfaces_as_protocol_fault(self, monkeypatch):
        # Starve the faulted BFS forest of rounds so every bounded retry
        # times out and the task must fall back to the typed outcome.
        monkeypatch.setattr(
            "repro.congest.simulator.fault_round_limit", lambda nominal, plan: 1
        )
        params = {
            "size": 48, "workload_seed": 29, "fault_seed": 187,
            "max_attempts": 2, "drop_rate": 0.2, "crash_fraction": 0.0,
        }
        row = chaos_sweep_task(params, 0)["row"]
        assert row["outcome"] == "protocol-fault"
        assert row["attempts"] == 2

    def test_contract_checks_tolerate_protocol_fault_rows(self, monkeypatch):
        def explode(primitive, graph, plan, max_attempts):
            raise ProtocolFault(primitive, "round-timeout", attempts=max_attempts)

        monkeypatch.setattr(chaos_module, "_run_primitive", explode)
        spec = chaos_primitives_spec(size=32, profiles=["drops"])
        record = run_scenario(spec)
        assert all(row["outcome"] == "protocol-fault" for row in record.rows)
        # A fault-stopped run never reports counters or survives verification,
        # so the terminate/safety/counted checks must not misfire on it.
        assert record.all_checks_passed, record.checks


class TestChaosCli:
    def test_chaos_command_prints_fault_summaries_and_manifest(self, capsys):
        exit_code = main(["suite", "run", "--filter", "chaos-primitives", "--jobs", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "fault summary: chaos-primitives" in output
        assert "verified-degraded" in output
        assert "all ok" in output

    def test_chaos_command_saves_an_empty_failure_manifest(self, tmp_path, capsys):
        failures_path = tmp_path / "failures.json"
        exit_code = main([
            "suite", "run", "--filter", "chaos-sweep",
            "--task-timeout", "120", "--task-retries", "1",
            "--failures", str(failures_path),
        ])
        assert exit_code == 0
        manifest = json.loads(failures_path.read_text())
        assert manifest["schema"] == "repro-failure-manifest/v1"
        assert manifest["count"] == 0
        assert manifest["failures"] == []

    def test_chaos_records_are_pinned(self, tmp_path, capsys):
        # The records exactly as ``repro suite run --filter chaos --records``
        # writes them: any drift means a faulted primitive delivered or
        # counted differently.
        assert main(["suite", "run", "--filter", "chaos", "--records", str(tmp_path)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert digests == {
            "chaos-primitives.json": (
                "8655686a7cae7a4f309bb9389d09fc2fda4a79c965516584d7301566e13c221e"
            ),
            "chaos-sweep.json": (
                "50c9cac93b6797b0a109cef544c0338cf71ff7541efc5e8e44897f7c9f39f298"
            ),
        }

    def test_chaos_command_rejects_unknown_scenario(self, capsys):
        assert main(["suite", "run", "--filter", "no-such-chaos"]) == 2
        assert "no scenarios match" in capsys.readouterr().err

    def test_chaos_command_rejects_resume_without_store(self, capsys):
        assert main(["suite", "run", "--filter", "chaos", "--resume"]) == 2
        assert "--store" in capsys.readouterr().err
