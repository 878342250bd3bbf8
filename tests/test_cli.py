"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_argument_parser, main
from repro.graphs import cycle_graph, gnp_random_graph, read_edge_list, write_edge_list


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_argument_parser().parse_args([])


def test_build_generated_workload(capsys):
    exit_code = main(["build", "--family", "gnp", "--size", "60", "--seed", "1", "--internal", "--epsilon", "0.25"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "spanner:" in output
    assert "per-phase statistics" in output


def test_build_with_verification(capsys):
    exit_code = main(
        ["build", "--family", "planted", "--size", "60", "--verify", "--internal", "--epsilon", "0.25", "--sample-pairs", "50"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "all passed" in output
    assert "guarantee satisfied: True" in output


def test_build_from_file_and_write_output(tmp_path, capsys):
    graph = gnp_random_graph(40, 0.1, seed=2)
    input_path = tmp_path / "in.txt"
    output_path = tmp_path / "out.txt"
    write_edge_list(graph, input_path)
    exit_code = main(["build", "--input", str(input_path), "--output", str(output_path), "--internal", "--epsilon", "0.25"])
    assert exit_code == 0
    spanner = read_edge_list(output_path)
    assert spanner.is_subgraph_of(graph)


def test_build_with_registered_baseline_algorithm(capsys):
    exit_code = main(
        ["build", "--algorithm", "greedy", "--param", "stretch=5",
         "--family", "grid", "--size", "49", "--verify"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "algorithm: greedy" in output
    assert "guarantee: d_H <= 5" in output
    assert "guarantee satisfied: True" in output
    # A baseline run has no phase structure to verify.
    assert "structural lemma checks" not in output


@pytest.mark.parametrize(
    "n, mode", [(60, "exhaustive stretch (1770 pairs)"), (61, "sampled stretch (20 pairs)")]
)
def test_build_labels_the_stretch_check_it_ran(tmp_path, capsys, n, mode):
    input_path = tmp_path / "cycle.txt"
    write_edge_list(cycle_graph(n), input_path)
    exit_code = main(["build", "--input", str(input_path), "--verify", "--sample-pairs", "20"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "structural lemma checks: all passed" in output
    assert mode in output


def test_build_distributed_via_algorithm_flag(capsys):
    exit_code = main(
        ["build", "--algorithm", "new-distributed", "--family", "gnp",
         "--size", "50", "--seed", "1", "--internal", "--epsilon", "0.25"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "engine: distributed" in output
    assert "per-phase statistics" in output


def test_build_unknown_algorithm_errors(capsys):
    assert main(["build", "--algorithm", "no-such-algorithm"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_build_unknown_param_errors(capsys):
    assert main(["build", "--algorithm", "greedy", "--param", "epsilon=0.5"]) == 2
    assert "no parameters" in capsys.readouterr().err


def test_algorithms_list_shows_registry(capsys):
    assert main(["algorithms", "list"]) == 0
    output = capsys.readouterr().out
    for name in ("new-centralized", "new-distributed", "elkin-neiman-2017",
                 "elkin-peleg-2001", "elkin05-surrogate", "baswana-sen", "greedy"):
        assert name in output


def test_algorithms_list_tag_filter_and_json(capsys):
    assert main(["algorithms", "list", "--tag", "multiplicative", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {entry["name"] for entry in data} == {"baswana-sen", "greedy"}
    assert data[0]["params"], "parameter schemas must be listed"


def test_algorithms_list_unknown_tag(capsys):
    assert main(["algorithms", "list", "--tag", "no-such-tag"]) == 2


def test_algorithms_list_json_reports_capabilities_and_provenance(capsys):
    """Every JSON entry carries the incremental flag and capacity provenance."""
    assert main(["algorithms", "list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    by_name = {entry["name"] for entry in data}
    assert {"elkin-mst-2017", "elkin-matar-linear",
            "elkin-neiman-sparse", "eest-low-stretch-tree"} <= by_name
    for entry in data:
        assert isinstance(entry["supports_incremental"], bool)
        assert entry["guarantee_kind"] in ("stretch", "exact-mst", "average-stretch")
        assert entry["capacity_source"] in ("measured", "fallback")
        if entry["capacity_source"] == "measured":
            assert "kernel_backend" in entry and "budget_seconds" in entry


def test_build_survey_siblings_by_name(capsys):
    """Each PR-10 registration is CLI-buildable with verification."""
    for name in ("elkin-mst-2017", "eest-low-stretch-tree"):
        assert main(["build", "--algorithm", name, "--family", "gnp",
                     "--size", "30", "--seed", "2", "--verify"]) == 0
        assert f"algorithm: {name}" in capsys.readouterr().out


def test_params_command_outputs_json(capsys):
    exit_code = main(["params", "--epsilon", "0.25", "--kappa", "3", "--rho", "0.34", "--internal", "--size", "500"])
    assert exit_code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kappa"] == 3
    assert "radius_bounds" in data
    assert "round_bound" in data


def test_suite_run_unknown_filter(capsys):
    assert main(["suite", "run", "--filter", "no-such-experiment"]) == 2
    assert "no scenarios match" in capsys.readouterr().err


def test_suite_run_figure_saves_its_record(tmp_path, capsys):
    exit_code = main(["suite", "run", "--filter", "figure1", "--records", str(tmp_path)])
    assert exit_code == 0
    assert "== figure1-superclustering ==" in capsys.readouterr().out
    data = json.loads((tmp_path / "figure1.json").read_text())
    assert data["name"] == "figure1-superclustering"
    assert all(data["checks"].values())


def test_suite_run_scenario_name_beats_its_tag(tmp_path, capsys):
    # "scaling" names one scenario and tags three; the name wins.
    manifest_path = tmp_path / "manifest.json"
    assert main(["suite", "run", "--filter", "scaling", "--manifest", str(manifest_path)]) == 0
    manifest = json.loads(manifest_path.read_text())
    assert [entry["name"] for entry in manifest["scenarios"]] == ["scaling"]


def test_suite_run_renders_every_record(capsys):
    exit_code = main(["suite", "run", "--filter", "ablation-kappa"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "== ablation-kappa ==" in output
    assert "all ok" in output


def test_suite_run_reports_a_failing_scenario_in_the_manifest(monkeypatch, capsys):
    from repro.experiments import ExperimentRecord, ScenarioSpec

    def exploding_task(params, seed):
        raise RuntimeError("boom")

    spec = ScenarioSpec(
        name="exploding",
        description="",
        task=exploding_task,
        merge=lambda defaults, payloads: ExperimentRecord(name="x", description=""),
    )
    monkeypatch.setattr("repro.cli.all_specs", lambda name: [spec])
    # No traceback: the error is reported in the manifest and the exit is 1.
    assert main(["suite", "run", "--filter", "exploding"]) == 1
    output = capsys.readouterr().out
    assert "exploding | error" in output
    assert "quarantined tasks (1)" in output
    assert "boom" in output


def test_suite_list_shows_all_scenarios(capsys):
    assert main(["suite", "list"]) == 0
    output = capsys.readouterr().out
    for name in ("table1", "table2", "scaling", "ablation-epsilon", "figure8",
                 "family-small-world"):
        assert name in output


def test_suite_list_filter(capsys):
    assert main(["suite", "list", "--filter", "ablation"]) == 0
    output = capsys.readouterr().out
    assert "ablation-epsilon" in output
    assert "figure1" not in output


def test_suite_list_unknown_filter(capsys):
    assert main(["suite", "list", "--filter", "no-such-tag"]) == 2


def test_resume_without_store_is_an_error(capsys):
    assert main(["suite", "run", "--resume"]) == 2
    assert "--store" in capsys.readouterr().err
    assert main(["suite", "run", "--filter", "figure1", "--resume"]) == 2


def test_suite_run_rejects_bad_pipeline_arguments(capsys):
    assert main(["suite", "run", "--filter", "figure1", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert main(["suite", "run", "--filter", "figure1", "--task-timeout", "0"]) == 2
    assert main(["suite", "run", "--filter", "figure1", "--task-retries", "-1"]) == 2


def test_scenario_commands_are_gone(capsys):
    for command in ("experiment", "chaos", "dynamic"):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2


def test_suite_run_with_store_and_resume(tmp_path, capsys):
    store = tmp_path / "store"
    records = tmp_path / "records"
    manifest_path = tmp_path / "manifest.json"
    exit_code = main([
        "suite", "run", "--filter", "ablation", "--jobs", "2",
        "--store", str(store), "--records", str(records),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "ablation-epsilon" in output
    assert "all ok" in output
    assert (records / "ablation-epsilon.json").exists()

    exit_code = main([
        "suite", "run", "--filter", "ablation", "--store", str(store),
        "--resume", "--manifest", str(manifest_path),
    ])
    assert exit_code == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["total_computed"] == 0
    assert manifest["total_cache_hits"] == manifest["total_tasks"]


def test_capacity_command_emits_ladder(tmp_path, capsys):
    ladder_path = tmp_path / "ladder.json"
    exit_code = main([
        "capacity", "--budget", "0.3", "--algorithm", "new-centralized",
        "--start-n", "32", "--max-n", "64", "--json", str(ladder_path),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "capacity ladder" in output
    assert "new-centralized" in output
    ladder = json.loads(ladder_path.read_text())
    assert ladder["schema"] == "capacity-ladder/v1"
    entry = ladder["entries"]["new-centralized"]
    assert entry["max_practical_vertices"] >= 32
    assert entry["probes"]


def test_capacity_command_rejects_bad_input(capsys):
    assert main(["capacity", "--budget", "0"]) == 2
    assert main(["capacity", "--algorithm", "no-such-algo"]) == 2
    # --update-defaults needs the full ladder, not a filtered one.
    assert (
        main([
            "capacity", "--budget", "0.2", "--algorithm", "greedy",
            "--start-n", "32", "--max-n", "32", "--update-defaults",
        ])
        == 2
    )


def test_serve_command_runs_the_load_and_checks(tmp_path, capsys):
    report_path = tmp_path / "load.json"
    failures_path = tmp_path / "failures.json"
    exit_code = main([
        "serve", "--requests", "120", "--concurrency", "6", "--workers", "2",
        "--json", str(report_path), "--failures", str(failures_path), "--check",
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "120 requests" in output
    assert "responses by status" in output
    assert "serve check: OK" in output
    report = json.loads(report_path.read_text())
    assert report["requests"] == 120
    assert report["dropped"] == 0
    assert report["status_counts"].get("hit", 0) > 0
    assert report["status_counts"].get("coalesced", 0) > 0
    assert set(report["latency_ms"]) == {"p50", "p99", "max"}
    failures = json.loads(failures_path.read_text())
    assert failures["schema"] == "repro-failure-manifest/v1"
    assert failures["count"] == 0


def test_serve_command_persists_to_a_store(tmp_path, capsys):
    store = tmp_path / "store"
    assert main([
        "serve", "--requests", "40", "--concurrency", "4", "--workers", "2",
        "--store", str(store),
    ]) == 0
    capsys.readouterr()
    assert any(store.glob("serve-build/*.json"))
    assert main(["store", "audit", "--store", str(store)]) == 0
    output = capsys.readouterr().out
    assert "0 corrupt" in output


def test_serve_command_rejects_bad_input(capsys):
    assert main(["serve", "--requests", "0"]) == 2
    assert main(["serve", "--concurrency", "0"]) == 2
    assert main(["serve", "--workers", "0"]) == 2
    assert main(["serve", "--queue-limit", "0"]) == 2
    assert main(["serve", "--request-timeout", "0"]) == 2


def test_store_audit_flags_corruption(tmp_path, capsys):
    from repro.experiments import ResultStore

    store_dir = tmp_path / "store"
    store = ResultStore(store_dir)
    good = store.put("s", "1" * 32, {"v": 1}, params={}, seed=0,
                     workload_fingerprint="", version="1")
    bad = store.put("s", "2" * 32, {"v": 2}, params={}, seed=0,
                    workload_fingerprint="", version="1")
    bad.write_text("garbage", encoding="utf-8")
    assert main(["store", "audit", "--store", str(store_dir)]) == 1
    output = capsys.readouterr().out
    assert "1 corrupt" in output
    assert "CORRUPT s/" + "2" * 32 in output
    assert good.exists() and not bad.exists()
    # The corrupt entry was invalidated: a second audit is clean.
    assert main(["store", "audit", "--store", str(store_dir)]) == 0


def test_store_audit_missing_directory(capsys):
    assert main(["store", "audit", "--store", "/no/such/store-dir"]) == 2
    assert "no result store" in capsys.readouterr().err
