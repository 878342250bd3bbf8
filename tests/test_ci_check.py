"""Tests for the stage orchestration of ``scripts/ci_check.py``.

The stage commands are never actually executed here: ``subprocess.run`` is
stubbed out, so the tests pin the *orchestration* -- stage ordering, ``--fast``
and ``--junitxml`` handling, first-failure short-circuiting, exit-status
propagation, GitHub Actions annotations and the step-summary table.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_CHECK_PATH = REPO_ROOT / "scripts" / "ci_check.py"

EXPECTED_STAGE_ORDER = [
    "lint (ruff)",
    "tier-1 tests",
    "tier-1 tests (pure-python kernel)",
    "array message plane (numpy kernel)",
    "benchmark self-tests",
    "capacity ladder (quick mode)",
    "capacity ladder (quick mode, numpy kernel)",
    "fault injection (quick mode)",
    "dynamic churn (quick mode)",
    "serve smoke (quick mode)",
    "registry completeness",
    "experiments-md drift",
]


@pytest.fixture(scope="module")
def ci_check():
    spec = importlib.util.spec_from_file_location("ci_check_under_test", CI_CHECK_PATH)
    module = importlib.util.module_from_spec(spec)
    # The dataclass machinery resolves string annotations through
    # sys.modules[cls.__module__], so the module must be registered before
    # execution.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


@pytest.fixture(autouse=True)
def vectorized(ci_check, monkeypatch):
    """Pretend numpy/scipy are installed, so the plan is environment-independent."""
    monkeypatch.setattr(ci_check, "vectorized_tier_available", lambda: True)


@pytest.fixture()
def no_github(monkeypatch):
    monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


@pytest.fixture()
def with_ruff(ci_check, monkeypatch):
    """Pretend ruff is installed so the stage plan is environment-independent."""
    monkeypatch.setattr(ci_check.shutil, "which", lambda name: "/usr/bin/ruff")


@pytest.fixture()
def without_ruff(ci_check, monkeypatch):
    monkeypatch.setattr(ci_check.shutil, "which", lambda name: None)


def _args(**overrides):
    base = {"fast": False, "junitxml": None, "without_fast": False}
    base.update(overrides)
    return SimpleNamespace(**base)


class FakeRun:
    """subprocess.run stub recording commands and scripting exit codes."""

    def __init__(self, returncodes=None):
        self.calls = []
        self.returncodes = dict(returncodes or {})

    def __call__(self, cmd, cwd=None, env=None):
        self.calls.append(list(cmd))
        for needle, code in self.returncodes.items():
            if any(needle in part for part in cmd):
                return SimpleNamespace(returncode=code)
        return SimpleNamespace(returncode=0)


class TestStagePlan:
    def test_stage_order_and_names(self, ci_check, with_ruff):
        plan = ci_check.stage_plan(_args())
        assert [name for name, _ in plan] == EXPECTED_STAGE_ORDER
        assert all(cmd is not None for _, cmd in plan)

    def test_lint_stage_skipped_without_ruff(self, ci_check, without_ruff):
        plan = dict(ci_check.stage_plan(_args()))
        assert plan["lint (ruff)"] is None

    def test_lint_stage_runs_ruff_check_when_installed(self, ci_check, with_ruff):
        plan = dict(ci_check.stage_plan(_args()))
        lint = plan["lint (ruff)"]
        assert lint[:2] == ["ruff", "check"]

    def test_registry_completeness_stage_invokes_the_gate_script(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        gate = plan["registry completeness"]
        assert any("registry_check.py" in part for part in gate)

    def test_benchmark_self_tests_stage_runs_the_perfbench_suite(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        assert plan["benchmark self-tests"][1:] == ["-m", "pytest", "perfbench", "-q"]

    def test_fast_skips_only_the_pytest_stages(self, ci_check, with_ruff):
        plan = ci_check.stage_plan(_args(fast=True))
        assert [name for name, _ in plan] == EXPECTED_STAGE_ORDER
        commands = dict(plan)
        assert commands["tier-1 tests"] is None
        assert commands["tier-1 tests (pure-python kernel)"] is None
        assert all(
            commands[name] is not None
            for name in EXPECTED_STAGE_ORDER
            if name not in ("tier-1 tests", "tier-1 tests (pure-python kernel)")
        )

    def test_junitxml_passes_through_to_default_pytest_stage_only(self, ci_check, with_ruff):
        plan = dict(ci_check.stage_plan(_args(junitxml="report.xml")))
        assert "--junitxml=report.xml" in plan["tier-1 tests"]
        for name in EXPECTED_STAGE_ORDER:
            if name == "tier-1 tests":
                continue
            assert not any("junitxml" in part for part in plan[name])

    def test_pure_python_stage_pins_the_kernel_env(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        pure = plan["tier-1 tests (pure-python kernel)"]
        assert pure[0] == "REPRO_KERNEL=python"
        assert "pytest" in pure

    def test_array_plane_stage_pins_the_numpy_kernel(self, ci_check):
        plan = dict(ci_check.stage_plan(_args(fast=True)))
        stage = plan["array message plane (numpy kernel)"]
        assert stage[0] == "REPRO_KERNEL=numpy"
        assert any(part.endswith("test_exploration.py") for part in stage)
        assert any(part.endswith("test_golden_run.py") for part in stage)
        assert any(part.endswith("test_bfs_forest.py") for part in stage)
        assert any(part.endswith("test_elkin05_surrogate.py") for part in stage)
        assert any(part.endswith("test_phase_structure_pin.py") for part in stage)
        assert any(part.endswith("test_cluster_table.py") for part in stage)

    def test_array_plane_stage_skips_locally_without_numpy(self, ci_check, no_github):
        plan = ci_check.stage_plan(_args(), vectorized=False)
        assert [name for name, _ in plan] == EXPECTED_STAGE_ORDER
        assert dict(plan)["array message plane (numpy kernel)"] is None

    def test_array_plane_stage_fails_in_github_actions_without_numpy(self, ci_check, monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        plan = dict(ci_check.stage_plan(_args(), vectorized=False))
        stage = plan["array message plane (numpy kernel)"]
        assert "REPRO_KERNEL=numpy" not in stage
        proc = subprocess.run(stage, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "numpy/scipy are not installed" in proc.stderr

    def test_without_fast_declares_the_fallback_leg(self, ci_check, monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        plan = dict(
            ci_check.stage_plan(_args(without_fast=True), vectorized=False)
        )
        assert plan["array message plane (numpy kernel)"] is None
        # With numpy installed the flag changes nothing.
        plan = dict(ci_check.stage_plan(_args(without_fast=True)))
        assert plan["array message plane (numpy kernel)"][0] == "REPRO_KERNEL=numpy"

    def test_numpy_capacity_stage_forces_the_kernel_flag(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        capacity = plan["capacity ladder (quick mode, numpy kernel)"]
        assert "--kernel" in capacity
        assert "numpy" in capacity
        assert ci_check.QUICK_CAPACITY_BUDGET in capacity

    def test_run_stage_applies_leading_env_assignments(self, ci_check, monkeypatch, no_github):
        seen = {}

        def fake_run(cmd, cwd=None, env=None):
            seen["cmd"] = list(cmd)
            seen["env"] = env
            from types import SimpleNamespace

            return SimpleNamespace(returncode=0)

        monkeypatch.setattr(ci_check.subprocess, "run", fake_run)
        result = ci_check.run_stage("env demo", ["FOO_BAR=baz", "true"])
        assert result.ok
        assert seen["cmd"] == ["true"]
        assert seen["env"]["FOO_BAR"] == "baz"

    def test_capacity_stage_is_quick_mode(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        capacity = plan["capacity ladder (quick mode)"]
        assert "capacity" in capacity
        assert ci_check.QUICK_CAPACITY_BUDGET in capacity
        assert ci_check.QUICK_CAPACITY_MAX_N in capacity

    def test_chaos_stage_is_quick_mode_with_a_task_timeout(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        chaos = plan["fault injection (quick mode)"]
        assert chaos[-6:-2] == ["suite", "run", "--filter", "chaos-primitives"]
        assert ci_check.QUICK_CHAOS_TASK_TIMEOUT in chaos

    def test_dynamic_stage_is_quick_mode_with_a_task_timeout(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        dynamic = plan["dynamic churn (quick mode)"]
        assert dynamic[-6:-2] == ["suite", "run", "--filter", "dynamic-churn"]
        assert ci_check.QUICK_DYNAMIC_TASK_TIMEOUT in dynamic

    def test_serve_smoke_stage_is_quick_mode_with_the_check_gate(self, ci_check):
        plan = dict(ci_check.stage_plan(_args()))
        serve = plan["serve smoke (quick mode)"]
        assert "serve" in serve
        assert ci_check.QUICK_SERVE_REQUESTS in serve
        assert "--check" in serve


class TestMainOrchestration:
    def test_all_stages_pass(self, ci_check, monkeypatch, capsys, no_github, with_ruff):
        fake = FakeRun()
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main([]) == 0
        # One executed command per stage, in the declared order.
        assert len(fake.calls) == len(EXPECTED_STAGE_ORDER)
        assert "all checks passed" in capsys.readouterr().out

    def test_missing_ruff_skips_lint_without_failing(self, ci_check, monkeypatch, capsys, no_github, without_ruff):
        fake = FakeRun()
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main([]) == 0
        assert len(fake.calls) == len(EXPECTED_STAGE_ORDER) - 1
        assert "lint (ruff): skipped" in capsys.readouterr().out

    def test_fast_mode_runs_everything_but_pytest(self, ci_check, monkeypatch, capsys, no_github, with_ruff):
        fake = FakeRun()
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main(["--fast"]) == 0
        assert len(fake.calls) == len(EXPECTED_STAGE_ORDER) - 2
        out = capsys.readouterr().out
        assert "tier-1 tests: skipped" in out

    def test_missing_numpy_skips_the_array_plane_with_a_notice(
        self, ci_check, monkeypatch, capsys, no_github, with_ruff
    ):
        monkeypatch.setattr(ci_check, "vectorized_tier_available", lambda: False)
        fake = FakeRun()
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main([]) == 0
        assert len(fake.calls) == len(EXPECTED_STAGE_ORDER) - 1
        out = capsys.readouterr().out
        assert "array message plane (numpy kernel): skipped (numpy/scipy are not installed" in out

    def test_nonzero_stage_fails_run_and_skips_the_rest(self, ci_check, monkeypatch, capsys, no_github, with_ruff):
        fake = FakeRun(returncodes={"test_exploration.py": 3})
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main([]) == 1
        # lint + both tier-1 stages + the array plane ran; every later stage skipped.
        assert len(fake.calls) == 4
        out = capsys.readouterr().out
        assert "FAILED (exit 3)" in out
        assert "benchmark self-tests: skipped (earlier stage failed)" in out
        assert "registry completeness: skipped (earlier stage failed)" in out
        assert "CHECKS FAILED" in out


class TestGithubIntegration:
    def test_annotations_emitted_under_github_actions(self, ci_check, monkeypatch, capsys):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        fake = FakeRun(returncodes={"generate_experiments_md.py": 2})
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main([]) == 1
        out = capsys.readouterr().out
        assert "::group::tier-1 tests" in out
        assert "::endgroup::" in out
        assert "::error title=ci_check stage failed::" in out
        assert "'experiments-md drift'" in out

    def test_step_summary_table_written(self, ci_check, monkeypatch, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        fake = FakeRun(returncodes={"perfbench": 1})
        monkeypatch.setattr(ci_check.subprocess, "run", fake)
        assert ci_check.main(["--fast"]) == 1
        text = summary.read_text(encoding="utf-8")
        assert "### ci_check stage outcomes" in text
        assert "| tier-1 tests | ⏭️ skipped | - |" in text
        assert "❌ failed | 1" in text
        # Stages after the failure are reported as skipped.
        assert text.count("skipped") >= 3

    def test_render_step_summary_is_one_row_per_stage(self, ci_check):
        results = [
            ci_check.StageResult(name="a", status="ok", returncode=0, seconds=1.0),
            ci_check.StageResult(name="b", status="failed", returncode=2, seconds=0.5),
            ci_check.StageResult(name="c", status="skipped"),
        ]
        table = ci_check.render_step_summary(results)
        assert table.count("\n| ") >= 3
        assert "| a | ✅ ok | 0 | 1.0 |" in table
        assert "| b | ❌ failed | 2 | 0.5 |" in table
        assert "| c | ⏭️ skipped | - | 0.0 |" in table
