#!/usr/bin/env python
"""One-command repository health check: tests + benchmark self-tests + docs.

Runs, in order (see :func:`stage_plan`):

1. ``lint (ruff)`` -- ``ruff check`` over the tree with the pinned config in
   pyproject.toml.  Skipped (not failed) when ruff is not installed locally;
   the workflows install the pinned version so the stage always runs in CI.
2. ``tier-1 tests`` -- the full pytest suite (``PYTHONPATH=src python -m
   pytest -x -q``); ``--junitxml PATH`` passes a JUnit report path through to
   pytest, ``--fast`` skips the stage entirely.
3. ``tier-1 tests (pure-python kernel)`` -- the same suite pinned to
   ``REPRO_KERNEL=python``: the tree must work without the vectorized
   NumPy/SciPy tier (an optional extra).  Also skipped under ``--fast``.
4. ``array message plane (numpy kernel)`` -- the exploration, trace-back,
   BFS-forest, ruling-set, tracing, degradation-verifier, golden-run, engine
   cross-validation, Elkin'05-surrogate, cluster-scan-baseline,
   fault-injection, chaos, run-result payload-pin, distance-vector, stretch
   and cluster-table tests under
   ``REPRO_KERNEL=numpy``, so the array forms of the exploration phases and
   BFS forests, and the compiled distance vectors with their readers, run at
   every test size.  It
   needs the ``fast`` extra (NumPy/SciPy): without it the stage fails under
   GitHub Actions, unless ``--without-fast`` declares a leg that covers the
   pure-Python fallback on purpose, and is skipped with a notice locally.
5. ``benchmark self-tests`` -- ``python -m pytest perfbench -q``: the
   benchmark's own tests at tiny sizes (every workload end to end, the
   certificate, host-speed rescaling, layer tracing and its restoration, and
   the metric list against BENCHMARK.json).
6. ``capacity ladder (quick mode)`` -- ``repro capacity`` on a tiny budget
   and window: exercises the measured-capacity search and its CLI end to end
   on every push without paying real measurement time.
7. ``capacity ladder (quick mode, numpy kernel)`` -- the same quick ladder
   under ``repro --kernel numpy``: drives the vectorized kernels through the
   whole capacity CLI.
8. ``fault injection (quick mode)`` -- ``repro suite run --filter
   chaos-primitives`` with a wall-clock task timeout: every injected fault
   schedule must terminate in a typed outcome (the scenario checks enforce
   it) and the failure manifest must validate against its schema.
9. ``dynamic churn (quick mode)`` -- ``repro suite run --filter
   dynamic-churn`` with the same kind of timeout: every incremental-capable
   algorithm maintains its spanner through seeded churn traces and the
   scenario checks re-verify the declared guarantee after every single step.
10. ``serve smoke (quick mode)`` -- ``repro serve --check`` on a small seeded
    mixed load: the request broker must show cache hits and coalesced
    single-flight builds and lose no request (zero dropped / failed /
    rejected responses).
11. ``registry completeness`` -- ``scripts/registry_check.py``: every
    registered algorithm must have a measured CAPACITY.json entry, a row in
    EXPERIMENTS.md's Algorithm registry table, and membership in at least
    one scenario matrix.  Registration drift fails the build.
12. ``experiments-md drift`` -- ``scripts/generate_experiments_md.py
    --check``: the whole EXPERIMENTS.md, registry and measured sections
    alike, is regenerated in memory and must match the committed file byte
    for byte.

The golden protocol counters (a fixed distributed build and a fixed
BFS-forest run, bit-identical) are ``tests/congest/test_golden_run.py``, run
by both tier-1 stages and the array-plane stage.

The store-corruption check (corrupt one cached chaos-sweep entry, resume,
recompute exactly that task, reproduce a byte-identical record) is the
``test_corrupted_entry_recomputed_on_resume[chaos-sweep]`` test, run by both
tier-1 stages.

Stages run sequentially and the first failure stops the run (later stages
are reported as skipped).  Exit status is non-zero if any stage fails.

Under GitHub Actions (``GITHUB_ACTIONS=true``) every stage is wrapped in a
``::group::`` block, failures emit ``::error`` annotations, and a per-stage
outcome table is appended to ``$GITHUB_STEP_SUMMARY``.  Locally::

    python scripts/ci_check.py            # all stages
    python scripts/ci_check.py --fast     # skip the pytest stage
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Budget/window of the quick-mode capacity stage: small enough that every
#: probe build finishes in well under a second.
QUICK_CAPACITY_BUDGET = "0.2"
QUICK_CAPACITY_MAX_N = "128"
QUICK_CAPACITY_START_N = "32"

#: Wall-clock limit of the quick-mode chaos stage's tasks: generous (the
#: whole matrix runs in well under a second) but finite, so a wedged fault
#: schedule quarantines instead of hanging CI.
QUICK_CHAOS_TASK_TIMEOUT = "120"

#: Wall-clock limit of the quick-mode dynamic stage's tasks: each task
#: replays one small churn trace with exhaustive per-step verification, so
#: the whole matrix finishes in seconds; the limit only catches hangs.
QUICK_DYNAMIC_TASK_TIMEOUT = "120"

#: Request count of the quick-mode serve smoke: enough traffic over the
#: 12-key Zipf catalogue that hits and coalesced builds are guaranteed, small
#: enough to finish in a couple of seconds.
QUICK_SERVE_REQUESTS = "200"

#: Test files the array-message-plane stage runs under ``REPRO_KERNEL=numpy``.
ARRAY_PLANE_TESTS = (
    "primitives/test_exploration.py",
    "primitives/test_traceback.py",
    # The array BFS forest: directly, as the ruling set's knock-outs, and
    # under a recording tracer.
    "primitives/test_bfs_forest.py",
    "primitives/test_ruling_set.py",
    "congest/test_tracing.py",
    "analysis/test_degradation.py",
    "congest/test_golden_run.py",
    "core/test_engine_cross_validation.py",
    # What each phase decided, pinned independently of its round accounting.
    "core/test_phase_structure_pin.py",
    # Provenance, spanner and phase-record edge counts agree on the array tier.
    "core/test_certificate.py",
    # The Elkin'05 surrogate explores with the centralized engine's compiled
    # traversal.
    "baselines/test_elkin05_surrogate.py",
    # The four cluster-scan baselines explore and trace back with it too.
    "baselines/test_elkin_neiman.py",
    "baselines/test_elkin_neiman_sparse.py",
    "baselines/test_elkin_peleg.py",
    "baselines/test_elkin_matar.py",
    # A fault plan never takes the array tier: the faulted paths run the
    # same under the pinned numpy kernel.
    "congest/test_faults.py",
    "experiments/test_chaos.py",
    # Every registered algorithm's payload pin holds on the array tier too.
    "algorithms/test_run_result_schema.py",
    # The readers of a run's result: the lemma checks, the registry facade
    # and the figure experiments.
    "analysis/test_size_and_phase_stats.py",
    "algorithms/test_algorithm_registry.py",
    "experiments/test_tables_and_figures.py",
    # The distance vectors from the compiled traversal, and the stretch
    # reports that read them.
    "analysis/test_stretch.py",
    "graphs/test_distances.py",
    # The cluster radii, read off the compiled distance vectors.
    "core/test_cluster_table.py",
)

#: Name of the stage that needs the ``fast`` extra (NumPy/SciPy).
ARRAY_PLANE_STAGE = "array message plane (numpy kernel)"

#: Why a stage without a command was skipped, printed with the skip.  Stages
#: not listed here are only ever skipped by ``--fast``.
SKIP_REASONS = {
    "lint (ruff)": "ruff is not installed",
    ARRAY_PLANE_STAGE: "numpy/scipy are not installed; pip install '.[fast]' to run it",
}


@dataclass
class StageResult:
    """Outcome of one stage: name, skip reason or exit status, wall-clock."""

    name: str
    status: str  # "ok" | "failed" | "skipped"
    returncode: Optional[int] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "failed"


def _env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def in_github_actions() -> bool:
    """Whether we are running under GitHub Actions (enables annotations)."""
    return os.environ.get("GITHUB_ACTIONS") == "true"


def vectorized_tier_available() -> bool:
    """``repro.kernels.numpy_available()`` on the interpreter the stages use."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import kernels

    return kernels.numpy_available()


def stage_plan(
    args: argparse.Namespace, vectorized: bool = True
) -> List[Tuple[str, Optional[List[str]]]]:
    """The ordered stage list as ``(name, command-or-None)`` pairs.

    ``None`` commands are reported as skipped (e.g. the pytest stage under
    ``--fast``).  ``vectorized`` says whether the NumPy/SciPy tier can run.
    Kept as one pure function of its inputs so the stage ordering and flag
    handling are unit-testable without running anything.
    """
    pytest_cmd: Optional[List[str]] = None
    pure_pytest_cmd: Optional[List[str]] = None
    if not args.fast:
        pytest_cmd = [sys.executable, "-m", "pytest", "-x", "-q"]
        if args.junitxml:
            pytest_cmd.append(f"--junitxml={args.junitxml}")
        # The same suite pinned to the pure-Python kernel: proves the tree
        # still works on a bare interpreter (numpy/scipy are an optional
        # extra) and that no code path silently depends on the vectorized
        # tier.  Leading KEY=VALUE tokens are env assignments (env(1)
        # semantics, applied by run_stage).
        pure_pytest_cmd = [
            "REPRO_KERNEL=python",
            sys.executable,
            "-m",
            "pytest",
            "-x",
            "-q",
        ]
    # Lint runs wherever ruff is installed (the workflows pin and install
    # it); locally it degrades to a skip instead of failing on a missing
    # optional tool.
    lint_cmd: Optional[List[str]] = None
    if shutil.which("ruff"):
        lint_cmd = ["ruff", "check", str(REPO_ROOT)]
    # The array-plane stage pins REPRO_KERNEL=numpy, which silently resolves
    # to the pure-Python tier when numpy/scipy are missing.  A CI leg without
    # them must say so (--without-fast); any other CI leg fails here instead
    # of passing on the wrong kernel.
    array_plane_cmd: Optional[List[str]] = [
        "REPRO_KERNEL=numpy",
        sys.executable,
        "-m",
        "pytest",
        "-q",
        *(str(REPO_ROOT / "tests" / path) for path in ARRAY_PLANE_TESTS),
    ]
    if not vectorized:
        array_plane_cmd = None
        if in_github_actions() and not args.without_fast:
            message = f"{SKIP_REASONS[ARRAY_PLANE_STAGE]} (or pass --without-fast)"
            array_plane_cmd = [sys.executable, "-c", f"raise SystemExit({message!r})"]
    return [
        ("lint (ruff)", lint_cmd),
        ("tier-1 tests", pytest_cmd),
        ("tier-1 tests (pure-python kernel)", pure_pytest_cmd),
        # The tests that pin the exploration phases and the readers of its
        # knowledge, the golden build and the engine cross-validation, forced
        # onto the array message plane:
        # tier-1 graphs sit below its auto threshold, so the default stage
        # only covers the per-broadcast form.
        (ARRAY_PLANE_STAGE, array_plane_cmd),
        (
            "benchmark self-tests",
            [sys.executable, "-m", "pytest", "perfbench", "-q"],
        ),
        (
            "capacity ladder (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "capacity",
                "--budget",
                QUICK_CAPACITY_BUDGET,
                "--start-n",
                QUICK_CAPACITY_START_N,
                "--max-n",
                QUICK_CAPACITY_MAX_N,
            ],
        ),
        (
            # Same quick ladder forced onto the vectorized backend: exercises
            # the --kernel plumbing and the numpy kernels through the whole
            # capacity CLI on every push.
            "capacity ladder (quick mode, numpy kernel)",
            [
                sys.executable,
                "-m",
                "repro",
                "--kernel",
                "numpy",
                "capacity",
                "--budget",
                QUICK_CAPACITY_BUDGET,
                "--start-n",
                QUICK_CAPACITY_START_N,
                "--max-n",
                QUICK_CAPACITY_MAX_N,
            ],
        ),
        (
            "fault injection (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "suite",
                "run",
                "--filter",
                "chaos-primitives",
                "--task-timeout",
                QUICK_CHAOS_TASK_TIMEOUT,
            ],
        ),
        (
            "dynamic churn (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "suite",
                "run",
                "--filter",
                "dynamic-churn",
                "--task-timeout",
                QUICK_DYNAMIC_TASK_TIMEOUT,
            ],
        ),
        (
            "serve smoke (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--requests",
                QUICK_SERVE_REQUESTS,
                "--concurrency",
                "8",
                "--workers",
                "2",
                "--check",
            ],
        ),
        (
            "registry completeness",
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "registry_check.py"),
            ],
        ),
        (
            "experiments-md drift",
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "generate_experiments_md.py"),
                "--check",
            ],
        ),
    ]


def run_stage(name: str, cmd: List[str]) -> StageResult:
    """Run one stage command, grouped and annotated under GitHub Actions.

    Leading ``KEY=VALUE`` tokens in ``cmd`` are environment assignments for
    the stage (env(1) semantics), so the stage plan stays a plain list of
    ``(name, argv)`` pairs.
    """
    github = in_github_actions()
    if github:
        print(f"::group::{name}", flush=True)
    print(f"==> {name}: {' '.join(cmd)}", flush=True)
    env = _env()
    command = list(cmd)
    while command and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", command[0]):
        key, _, value = command.pop(0).partition("=")
        env[key] = value
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=REPO_ROOT, env=env)
    seconds = time.perf_counter() - start
    ok = proc.returncode == 0
    print(f"==> {name}: {'OK' if ok else f'FAILED (exit {proc.returncode})'}", flush=True)
    if github:
        print("::endgroup::", flush=True)
        if not ok:
            print(
                f"::error title=ci_check stage failed::stage {name!r} "
                f"exited with status {proc.returncode}",
                flush=True,
            )
    return StageResult(
        name=name,
        status="ok" if ok else "failed",
        returncode=proc.returncode,
        seconds=seconds,
    )


def render_step_summary(results: List[StageResult]) -> str:
    """The Markdown outcome table appended to ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "### ci_check stage outcomes",
        "",
        "| stage | outcome | exit | seconds |",
        "| --- | --- | --- | --- |",
    ]
    icons = {"ok": "✅ ok", "failed": "❌ failed", "skipped": "⏭️ skipped"}
    for result in results:
        exit_code = "-" if result.returncode is None else str(result.returncode)
        lines.append(
            f"| {result.name} | {icons[result.status]} | {exit_code} "
            f"| {result.seconds:.1f} |"
        )
    return "\n".join(lines) + "\n"


def write_step_summary(results: List[StageResult]) -> None:
    """Append the outcome table to the workflow step summary, if present."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    try:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render_step_summary(results))
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="skip the pytest stage; only run the cheap check stages",
    )
    parser.add_argument(
        "--junitxml",
        type=str,
        default=None,
        help="JUnit XML report path passed through to the pytest stage",
    )
    parser.add_argument(
        "--without-fast",
        action="store_true",
        help="this run covers the pure-Python fallback on purpose: skip the "
        "numpy-pinned stage instead of failing when numpy/scipy are missing",
    )
    args = parser.parse_args(argv)

    results: List[StageResult] = []
    failed = False
    try:
        for name, cmd in stage_plan(args, vectorized_tier_available()):
            if cmd is None:
                results.append(StageResult(name=name, status="skipped"))
                reason = f" ({SKIP_REASONS[name]})" if name in SKIP_REASONS else ""
                print(f"==> {name}: skipped{reason}", flush=True)
                continue
            if failed:
                results.append(StageResult(name=name, status="skipped"))
                print(f"==> {name}: skipped (earlier stage failed)", flush=True)
                continue
            result = run_stage(name, cmd)
            results.append(result)
            failed = failed or not result.ok
    finally:
        write_step_summary(results)

    print("==> all checks passed" if not failed else "==> CHECKS FAILED", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
