"""Generic experiment execution pipeline: expand, execute, merge, report.

The pipeline turns :class:`~repro.experiments.registry.ScenarioSpec`s into
independent *tasks* (one per grid point), executes them serially or
process-parallel (``concurrent.futures.ProcessPoolExecutor``), and merges the
per-task payloads back into one :class:`ExperimentRecord` per scenario.

Determinism contract
--------------------

``--jobs 1`` and ``--jobs N`` produce **byte-identical** records:

* task payloads are pure functions of ``(params, seed)`` -- both are fixed at
  expansion time, never influenced by worker identity or completion order;
* every payload (fresh, parallel or store-cached) is canonicalized through
  the same JSON round-trip before merging, and timing fields are stripped
  (wall-clock lives in the suite manifest, never in a record);
* payloads are merged in expansion order, and the merged record is itself
  normalized through :meth:`ExperimentRecord.from_dict`.

Resumability
------------

With a :class:`~repro.experiments.store.ResultStore` attached, every computed
payload is persisted under its content address.  With ``resume=True``,
previously stored payloads are reused and only invalidated tasks (changed
parameters, workload or scenario version) recompute; the suite manifest
reports per-scenario cache hits.

Fault tolerance
---------------

A worker that raises gets its exception wrapped in a picklable
:class:`TaskError` carrying the task's full identity (scenario, grid index,
derived seed), so failures cross the process boundary intact and are
replayable.  ``task_timeout`` puts a wall-clock ceiling on every task: a
worker that blows it is *terminated* (not joined) and the task is reported as
a timeout, while tasks stranded in the killed pool are transparently
resubmitted.  ``task_retries`` re-runs failed tasks with the **same** seed
(payloads are pure functions of ``(params, seed)``, so retries only ever
recover transient environmental failures, never change results) after a
deterministic exponential backoff.  A task that exhausts its retries is
quarantined into the suite's *failure manifest*
(:meth:`SuiteResult.failure_manifest`) while the rest of the suite completes.
None of this weakens the determinism contract above.
"""

from __future__ import annotations

import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.reporting import percentile
from .registry import (
    Params,
    ScenarioSpec,
    TaskFn,
    canonical_json,
    derive_seed,
    get_spec,
)
from .results import ExperimentRecord
from .runner import TIMING_FIELDS
from .store import ResultStore

PIPELINE_SCHEMA = "repro-suite-manifest/v1"
FAILURE_MANIFEST_SCHEMA = "repro-failure-manifest/v1"

#: Cap on a single retry-backoff sleep, however many attempts accumulate.
_MAX_BACKOFF_SECONDS = 5.0


class TaskError(RuntimeError):
    """A task function raised: the failure plus the task's full identity.

    Carries everything needed to replay the exact failing computation
    (scenario name, grid index, derived seed, JSON-safe params) and is
    picklable via ``__reduce__``, so worker-side failures cross the process
    boundary without degenerating into a bare traceback string.
    """

    def __init__(
        self,
        scenario: str,
        index: int,
        seed: int,
        cause: str,
        params: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.scenario = scenario
        self.index = index
        self.seed = seed
        self.cause = cause
        self.params = dict(params) if params is not None else {}
        super().__init__(
            f"task {index} of scenario {scenario!r} (seed={seed}) failed: {cause}"
        )

    def __reduce__(self):
        return (TaskError, (self.scenario, self.index, self.seed, self.cause, self.params))


@dataclass(frozen=True)
class TaskSpec:
    """One independent unit of work: a scenario at one grid point."""

    scenario: str
    index: int
    params: Mapping[str, object]
    seed: int
    key: Optional[str] = None  # content address; set when a store is attached
    workload_fingerprint: Optional[str] = None


@dataclass
class TaskOutcome:
    """The result of executing (or recalling) one task."""

    task: TaskSpec
    payload: Optional[Dict[str, object]] = None
    cached: bool = False
    wall_seconds: float = 0.0
    error: Optional[str] = None
    attempts: int = 1


@dataclass
class ScenarioOutcome:
    """Suite-level outcome of one scenario: its record plus execution stats."""

    name: str
    record: Optional[ExperimentRecord] = None
    error: Optional[str] = None
    tasks: int = 0
    cache_hits: int = 0
    computed: int = 0
    wall_seconds: float = 0.0
    #: Per-task wall-clock durations in task order (cache hits report 0.0);
    #: source of the manifest's p50/p99 columns.
    task_wall_seconds: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and (
            self.record is None or self.record.all_checks_passed
        )

    @property
    def failed_checks(self) -> List[str]:
        if self.record is None:
            return []
        return sorted(name for name, passed in self.record.checks.items() if not passed)

    def manifest_entry(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "name": self.name,
            "status": "error" if self.error else ("ok" if self.ok else "check-failed"),
            "tasks": self.tasks,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "wall_seconds": round(self.wall_seconds, 4),
            # Per-task quantiles via the shared nearest-rank helper (the same
            # math the serving tier's latency report uses).
            "wall_p50": round(percentile(self.task_wall_seconds, 50), 4),
            "wall_p99": round(percentile(self.task_wall_seconds, 99), 4),
            "checks_failed": self.failed_checks,
        }
        if self.record is not None:
            entry["record"] = self.record.name
            entry["record_digest"] = self.record.digest()
        if self.error:
            entry["error"] = self.error
        return entry


@dataclass
class SuiteResult:
    """Everything a suite run produced: records plus the execution manifest."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    jobs: int = 1
    store_root: Optional[str] = None
    resume: bool = False
    #: End-to-end elapsed wall-clock of the run (per-scenario ``wall_seconds``
    #: sums task durations instead, so it does not shrink with ``jobs``).
    elapsed_seconds: float = 0.0
    #: Task outcomes quarantined after exhausting their retries, in
    #: deterministic expansion order (spec order, then grid index).
    task_failures: List[TaskOutcome] = field(default_factory=list)

    @property
    def records(self) -> Dict[str, ExperimentRecord]:
        return {
            outcome.name: outcome.record
            for outcome in self.outcomes
            if outcome.record is not None
        }

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def manifest(self) -> Dict[str, object]:
        """The suite-level manifest (what ``repro suite run`` renders)."""
        return {
            "schema": PIPELINE_SCHEMA,
            "jobs": self.jobs,
            "store": self.store_root,
            "resume": self.resume,
            "scenarios": [outcome.manifest_entry() for outcome in self.outcomes],
            "total_tasks": sum(outcome.tasks for outcome in self.outcomes),
            "total_cache_hits": sum(outcome.cache_hits for outcome in self.outcomes),
            "total_computed": sum(outcome.computed for outcome in self.outcomes),
            "total_wall_seconds": round(
                sum(outcome.wall_seconds for outcome in self.outcomes), 4
            ),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "failed_tasks": len(self.task_failures),
            "all_ok": self.ok,
        }

    def failure_manifest(self) -> Dict[str, object]:
        """The quarantine manifest: every task that exhausted its retries.

        Each entry carries the task's replayable identity (scenario, grid
        index, derived seed, JSON-safe params) plus the terminal error and
        how many attempts were spent.  Empty ``failures`` means the whole
        suite executed cleanly.
        """
        return {
            "schema": FAILURE_MANIFEST_SCHEMA,
            "count": len(self.task_failures),
            "failures": [
                {
                    "scenario": outcome.task.scenario,
                    "task_index": outcome.task.index,
                    "seed": outcome.task.seed,
                    "params": {
                        k: v for k, v in outcome.task.params.items() if _json_safe(v)
                    },
                    "error": outcome.error,
                    "attempts": outcome.attempts,
                }
                for outcome in self.task_failures
            ],
        }


def validate_failure_manifest(manifest: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``manifest`` is a well-formed quarantine manifest."""
    if manifest.get("schema") != FAILURE_MANIFEST_SCHEMA:
        raise ValueError(
            f"bad failure-manifest schema: {manifest.get('schema')!r} "
            f"(expected {FAILURE_MANIFEST_SCHEMA!r})"
        )
    failures = manifest.get("failures")
    if not isinstance(failures, list):
        raise ValueError("failure manifest carries no 'failures' list")
    if manifest.get("count") != len(failures):
        raise ValueError(
            f"failure-manifest count {manifest.get('count')!r} does not match "
            f"{len(failures)} entries"
        )
    for position, entry in enumerate(failures):
        if not isinstance(entry, Mapping):
            raise ValueError(f"failure entry {position} is not a mapping")
        for key, kind in (
            ("scenario", str),
            ("task_index", int),
            ("seed", int),
            ("params", Mapping),
            ("error", str),
            ("attempts", int),
        ):
            if not isinstance(entry.get(key), kind):
                raise ValueError(
                    f"failure entry {position} field {key!r} is not a {kind.__name__}"
                )
        if entry["attempts"] < 1:
            raise ValueError(f"failure entry {position} spent {entry['attempts']} attempts")


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
def _strip_timing(obj: object) -> object:
    """Recursively drop wall-clock fields so payloads stay deterministic."""
    if isinstance(obj, dict):
        return {
            key: _strip_timing(value)
            for key, value in obj.items()
            if key not in TIMING_FIELDS
        }
    if isinstance(obj, (list, tuple)):
        return [_strip_timing(item) for item in obj]
    return obj


def canonicalize_payload(payload: Mapping[str, object]) -> Dict[str, object]:
    """The single canonical form every payload passes through before merging.

    Strips timing fields, then round-trips through canonical JSON so that
    fresh in-process results, pickled cross-process results and store-loaded
    results are all literally the same object graph.
    """
    return json.loads(canonical_json(_strip_timing(dict(payload))))


def execute_task(task_fn: TaskFn, params: Params, seed: int) -> Tuple[Dict[str, object], float]:
    """Run one task function and measure its wall-clock (worker entry point)."""
    start = time.perf_counter()
    payload = task_fn(dict(params), seed)
    elapsed = time.perf_counter() - start
    return canonicalize_payload(payload), elapsed


def execute_task_spec(
    task_fn: TaskFn,
    scenario: str,
    index: int,
    params: Params,
    seed: int,
) -> Tuple[Dict[str, object], float]:
    """Pool entry point: run one task, wrapping any failure in :class:`TaskError`.

    The wrapper keeps the task's identity attached to the exception across
    the process boundary, so the parent never has to guess which grid point
    a worker traceback belongs to.
    """
    try:
        return execute_task(task_fn, params, seed)
    except Exception as exc:  # noqa: BLE001 - re-raised typed
        raise TaskError(
            scenario, index, seed, f"{type(exc).__name__}: {exc}", params=dict(params)
        ) from exc


def expand_tasks(spec: ScenarioSpec, store: Optional[ResultStore]) -> List[TaskSpec]:
    """Expand a spec into ordered tasks (content-addressed when a store is attached)."""
    tasks: List[TaskSpec] = []
    fingerprints: Dict[str, str] = {}
    for index, params in enumerate(spec.task_params()):
        seed = derive_seed(spec.name, {k: v for k, v in params.items() if _json_safe(v)})
        key = None
        fingerprint = None
        if store is not None:
            # Content addressing needs the workload's fingerprint *before*
            # execution, so the parent builds the graph once per distinct
            # workload here and the task rebuilds it when it actually runs;
            # that duplication is the price of store keys that notice
            # generator changes.
            if spec.workload_keys is not None:
                # Tasks sharing a workload (e.g. a matrix of algorithms on one
                # graph) share one fingerprint computation.
                memo_key = canonical_json(
                    {k: params.get(k) for k in spec.workload_keys if _json_safe(params.get(k))}
                )
                if memo_key not in fingerprints:
                    fingerprints[memo_key] = spec.workload_fingerprint(dict(params))
                fingerprint = fingerprints[memo_key]
            else:
                fingerprint = spec.workload_fingerprint(dict(params))
            key = ResultStore.task_key(spec.name, params, fingerprint, spec.version)
        tasks.append(
            TaskSpec(
                scenario=spec.name,
                index=index,
                params=params,
                seed=seed,
                key=key,
                workload_fingerprint=fingerprint,
            )
        )
    return tasks


def _json_safe(value: object) -> bool:
    """Whether a parameter value survives strict JSON exactly (graphs do not).

    Strict (no ``default=`` fallback) and therefore deep: a Graph nested in a
    list would otherwise be serialized as its repr, giving two different
    graphs with equal (n, m) the same store key — a silent wrong cache hit.
    """
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------
def run_suite(
    specs: Sequence[ScenarioSpec],
    jobs: int = 1,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
    task_timeout: Optional[float] = None,
    task_retries: int = 0,
    retry_backoff: float = 0.05,
) -> SuiteResult:
    """Run a set of scenarios through the pipeline.

    ``jobs > 1`` executes tasks in a process pool; results are identical to a
    serial run (see the module docstring for the determinism contract).  With
    a ``store``, computed payloads are persisted; with ``resume=True``, stored
    payloads are reused and only invalidated tasks recompute.

    ``task_timeout`` (seconds) is a per-task wall-clock ceiling enforced by
    running tasks in worker processes (even at ``jobs=1``) and terminating
    any worker that blows it -- a hung task can never stall the suite.
    ``task_retries`` re-runs a failed or timed-out task up to that many extra
    times with the *same* derived seed, sleeping
    ``retry_backoff * 2**(attempt-1)`` seconds (capped) between rounds; tasks
    that exhaust their retries are quarantined into
    :meth:`SuiteResult.failure_manifest` while the rest of the suite runs to
    completion.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError("task_timeout must be positive (or None)")
    if task_retries < 0:
        raise ValueError("task_retries must be >= 0")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0")
    if resume and store is None:
        raise ValueError("resume=True requires a store (nothing to resume from)")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    started = time.perf_counter()
    result = SuiteResult(
        jobs=jobs,
        store_root=str(store.root) if store is not None else None,
        resume=resume,
    )

    spec_by_name = {spec.name: spec for spec in specs}
    if len(spec_by_name) != len(specs):
        raise ValueError("duplicate scenario names in suite")

    # Phase 1: expand every spec and recall whatever the store already holds.
    outcomes: Dict[Tuple[str, int], TaskOutcome] = {}
    pending: List[TaskSpec] = []
    tasks_by_scenario: Dict[str, List[TaskSpec]] = {}
    for spec in specs:
        tasks = expand_tasks(spec, store)
        tasks_by_scenario[spec.name] = tasks
        if jobs > 1 or store is not None or task_timeout is not None:
            # Graph-bearing params (the spec builders' explicit ``graph=``
            # escape hatch) are neither picklable-by-contract nor content-
            # addressable; insist on the in-process serial path for them.
            for task in tasks:
                bad = sorted(k for k, v in task.params.items() if not _json_safe(v))
                if bad:
                    raise ValueError(
                        f"scenario {spec.name!r} carries non-serializable parameters "
                        f"{bad}; run it serially (jobs=1) without a store"
                    )
        for task in tasks:
            if resume and store is not None and task.key is not None:
                payload = store.get(task.scenario, task.key)
                if payload is not None:
                    outcomes[(task.scenario, task.index)] = TaskOutcome(
                        task=task, payload=canonicalize_payload(payload), cached=True
                    )
                    continue
            pending.append(task)

    # Phase 2: execute the remaining tasks (serial or process-parallel).
    # Timeout enforcement needs a terminable worker, so ``task_timeout``
    # forces the pool path even at ``jobs=1``.
    if task_timeout is None and (jobs == 1 or len(pending) <= 1):
        for task in pending:
            outcomes[(task.scenario, task.index)] = _run_one(
                spec_by_name[task.scenario], task, task_retries, retry_backoff
            )
    elif pending:
        outcomes.update(
            _execute_with_pool(
                pending, spec_by_name, jobs, task_timeout, task_retries, retry_backoff
            )
        )

    # Phase 3: persist fresh payloads.
    if store is not None:
        for outcome in outcomes.values():
            task = outcome.task
            if outcome.cached or outcome.payload is None or task.key is None:
                continue
            store.put(
                task.scenario,
                task.key,
                outcome.payload,
                params={k: v for k, v in task.params.items() if _json_safe(v)},
                seed=task.seed,
                workload_fingerprint=task.workload_fingerprint or "",
                version=spec_by_name[task.scenario].version,
            )

    # Phase 4: deterministic merge, in spec order / task order.
    for spec in specs:
        scenario_outcome = ScenarioOutcome(name=spec.name)
        tasks = tasks_by_scenario[spec.name]
        scenario_outcome.tasks = len(tasks)
        task_outcomes = [outcomes[(spec.name, task.index)] for task in tasks]
        scenario_outcome.cache_hits = sum(1 for o in task_outcomes if o.cached)
        scenario_outcome.computed = sum(
            1 for o in task_outcomes if not o.cached and o.error is None
        )
        scenario_outcome.wall_seconds = sum(o.wall_seconds for o in task_outcomes)
        scenario_outcome.task_wall_seconds = [o.wall_seconds for o in task_outcomes]
        result.task_failures.extend(o for o in task_outcomes if o.error is not None)
        errors = [o for o in task_outcomes if o.error is not None]
        if errors:
            first = errors[0]
            scenario_outcome.error = (
                f"task {first.task.index} failed: {first.error}"
            )
        else:
            try:
                record = spec.merge(
                    dict(spec.defaults), [o.payload for o in task_outcomes]
                )
                spec.apply_checks(record)
                scenario_outcome.record = ExperimentRecord.from_dict(
                    json.loads(canonical_json(record.to_dict()))
                )
            except Exception as exc:  # noqa: BLE001 - reported in the manifest
                scenario_outcome.error = (
                    f"merge failed: {type(exc).__name__}: {exc}\n"
                    + traceback.format_exc(limit=3)
                )
        result.outcomes.append(scenario_outcome)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _backoff_sleep(attempt: int, retry_backoff: float) -> None:
    """Deterministic exponential backoff before retry round ``attempt`` (>= 1)."""
    if retry_backoff > 0:
        time.sleep(min(retry_backoff * (2 ** (attempt - 1)), _MAX_BACKOFF_SECONDS))


def _run_one(
    spec: ScenarioSpec,
    task: TaskSpec,
    task_retries: int = 0,
    retry_backoff: float = 0.05,
) -> TaskOutcome:
    """Serial execution of one task (same canonicalization as the pool path).

    Retries reuse the task's own seed: payloads are pure functions of
    ``(params, seed)``, so a retry either reproduces the failure or recovers
    from a transient environmental one -- it can never change a result.
    """
    outcome = TaskOutcome(task=task)
    for attempt in range(task_retries + 1):
        if attempt:
            _backoff_sleep(attempt, retry_backoff)
        try:
            outcome.payload, outcome.wall_seconds = execute_task(
                spec.task, task.params, task.seed
            )
            outcome.error = None
        except Exception as exc:  # noqa: BLE001 - reported in the manifest
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.attempts = attempt + 1
        if outcome.error is None:
            break
    return outcome


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's workers: one of them blew its wall-clock budget."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass


def _pool_round(
    tasks: Sequence[TaskSpec],
    spec_by_name: Mapping[str, ScenarioSpec],
    jobs: int,
    task_timeout: Optional[float],
) -> Dict[Tuple[str, int], Tuple[Optional[Dict[str, object]], float, Optional[str]]]:
    """Execute every task exactly once; returns ``(payload, wall, error)`` each.

    Futures are awaited in submission order, each with the full
    ``task_timeout``: a task has been running (or queued behind finished
    work) at least since its submission, so by the time its wait expires it
    has enjoyed >= ``task_timeout`` seconds of wall-clock -- earlier waits
    only ever add slack, never false positives.  On a timeout (or a worker
    dying hard enough to break the pool) the pool's processes are terminated;
    tasks stranded mid-flight did not fail and are resubmitted to a fresh
    pool.  Each pass records at least the offending task, so the loop always
    terminates.
    """
    results: Dict[Tuple[str, int], Tuple[Optional[Dict[str, object]], float, Optional[str]]] = {}
    todo = list(tasks)
    while todo:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))
        futures = [
            (
                task,
                pool.submit(
                    execute_task_spec,
                    spec_by_name[task.scenario].task,
                    task.scenario,
                    task.index,
                    dict(task.params),
                    task.seed,
                ),
            )
            for task in todo
        ]
        stranded: List[TaskSpec] = []
        killed = False
        try:
            for task, future in futures:
                key = (task.scenario, task.index)
                if killed:
                    # The pool is gone; harvest what finished, resubmit the rest.
                    if future.done() and not future.cancelled():
                        try:
                            payload, wall = future.result()
                            results[key] = (payload, wall, None)
                        except BrokenProcessPool:
                            stranded.append(task)
                        except Exception as exc:  # noqa: BLE001
                            results[key] = (None, 0.0, _task_error_text(exc))
                    else:
                        stranded.append(task)
                    continue
                try:
                    payload, wall = future.result(timeout=task_timeout)
                except FuturesTimeoutError:
                    results[key] = (
                        None,
                        float(task_timeout or 0.0),
                        f"TaskTimeout: no result within {task_timeout}s wall-clock limit",
                    )
                    _terminate_pool(pool)
                    killed = True
                except BrokenProcessPool:
                    results[key] = (
                        None,
                        0.0,
                        "WorkerCrash: process pool broke while running this task",
                    )
                    killed = True
                except Exception as exc:  # noqa: BLE001 - reported in the manifest
                    results[key] = (None, 0.0, _task_error_text(exc))
                else:
                    results[key] = (payload, wall, None)
        finally:
            pool.shutdown(wait=not killed, cancel_futures=True)
        todo = stranded
    return results


def _task_error_text(exc: BaseException) -> str:
    """The manifest's error string; :class:`TaskError` reports its bare cause
    (the surrounding manifest entry already names the task)."""
    if isinstance(exc, TaskError):
        return exc.cause
    return f"{type(exc).__name__}: {exc}"


def _execute_with_pool(
    pending: Sequence[TaskSpec],
    spec_by_name: Mapping[str, ScenarioSpec],
    jobs: int,
    task_timeout: Optional[float],
    task_retries: int,
    retry_backoff: float,
) -> Dict[Tuple[str, int], TaskOutcome]:
    """Pool execution with per-task timeouts and same-seed retry rounds."""
    outcomes: Dict[Tuple[str, int], TaskOutcome] = {}
    remaining = list(pending)
    for attempt in range(task_retries + 1):
        if not remaining:
            break
        if attempt:
            _backoff_sleep(attempt, retry_backoff)
        round_results = _pool_round(remaining, spec_by_name, jobs, task_timeout)
        retry_next: List[TaskSpec] = []
        for task in remaining:
            key = (task.scenario, task.index)
            payload, wall, error = round_results[key]
            if error is not None and attempt < task_retries:
                retry_next.append(task)
                continue
            outcomes[key] = TaskOutcome(
                task=task,
                payload=payload,
                wall_seconds=wall,
                error=error,
                attempts=attempt + 1,
            )
        remaining = retry_next
    return outcomes


def run_scenario(
    spec_or_name: Union[ScenarioSpec, str],
    jobs: int = 1,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
    task_timeout: Optional[float] = None,
    task_retries: int = 0,
    retry_backoff: float = 0.05,
) -> ExperimentRecord:
    """Run a single scenario through the pipeline and return its record.

    The library form of ``repro suite run --filter NAME``: one
    :func:`run_suite` call whose errors raise instead of being reported in
    the manifest.  A spec builder's result (``table1_spec(sizes=...)``,
    ``epsilon_ablation_spec(...)``) runs a scenario at another scale.
    """
    spec = get_spec(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    result = run_suite(
        [spec],
        jobs=jobs,
        store=store,
        resume=resume,
        task_timeout=task_timeout,
        task_retries=task_retries,
        retry_backoff=retry_backoff,
    )
    outcome = result.outcomes[0]
    if outcome.error is not None:
        raise RuntimeError(f"scenario {spec.name!r} failed: {outcome.error}")
    assert outcome.record is not None
    return outcome.record
