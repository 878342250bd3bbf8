"""Command-line interface: build spanners and regenerate the paper's experiments.

Usage (``python -m repro`` or, after ``pip install -e .``, just ``repro``)::

    repro build --family gnp --size 300 --epsilon 0.5 --kappa 3 --rho 0.34
    repro build --input graph.txt --engine distributed --output spanner.txt
    repro build --algorithm baswana-sen --family gnp --size 200 --verify
    repro build --algorithm greedy --param stretch=5 --family grid --size 100
    repro algorithms list [--tag near-additive] [--json]
    repro suite list --filter figure
    repro suite run --filter table1
    repro suite run --filter figure3 --records out/
    repro suite run --filter paper --jobs 4 --store .repro-store --resume
    repro suite run --filter chaos --jobs 4 --task-timeout 120 --task-retries 1
    repro suite run --filter chaos-sweep --failures failures.json
    repro suite run --filter dynamic --jobs 4 --store .repro-store --resume
    repro serve --requests 400 --concurrency 8 --workers 2
    repro serve --requests 1000 --store .repro-store --json load.json --check
    repro store audit --store .repro-store
    repro capacity --budget 5
    repro capacity --budget 5 --json ladder.json --update-defaults
    repro params --epsilon 0.25 --kappa 3 --rho 0.34 --internal --size 1000
    repro --kernel numpy build --family gnp --size 5000
    repro --kernel python capacity --budget 2

The global ``--kernel {python,numpy,auto}`` flag (equivalently the
``REPRO_KERNEL`` environment variable) selects the kernel backend for every
sub-command: pure-Python loops, the vectorized NumPy/SciPy tier, or automatic
size-based selection (the default).  Both backends produce identical results;
the switch only moves wall-clock.

Sub-commands:

``build``
    Build a spanner of a generated workload (``--family/--size/--seed``) or of
    an edge-list file (``--input``) with **any registered algorithm**
    (``--algorithm NAME``, defaulting to the engine selected by ``--engine``),
    print the unified run report and optionally write the spanner as an edge
    list (``--output``).  ``--param KEY=VALUE`` sets algorithm-specific
    parameters beyond the shared epsilon/kappa/rho flags.
``algorithms``
    Inspect the algorithm registry: ``algorithms list`` shows every
    registered algorithm (name, tags, parameter schema, capability hints);
    ``--tag`` filters, ``--json`` emits the machine-readable descriptions.
``suite``
    Operate on the scenario registry -- the paper's tables and figures, the
    scaling and ablation sweeps, the workload families, the fault tier
    (``chaos``) and the dynamic tier (``dynamic``).  ``suite list`` shows the
    registered scenarios; ``suite run`` is the one command that runs them.
    ``--filter`` selects the scenario of that exact name, else every
    scenario carrying that tag (no filter: all of them).  The selection goes
    through the experiment pipeline (``--jobs N`` process-parallel,
    ``--store DIR`` caches task results, ``--resume`` reuses them,
    ``--task-timeout`` / ``--task-retries`` quarantine hung or failing
    tasks).  Every record is printed -- a fault summary for ``chaos``
    scenarios, a maintenance summary for ``dynamic`` ones -- followed by the
    suite manifest and, if any task was quarantined, the failure manifest.
    ``--records``, ``--manifest`` and ``--failures`` save them as JSON.
``serve``
    Drive the serving tier's request broker with a seeded, Zipf-skewed mixed
    load of build / stretch-query / distance-query requests.  Cache hits are
    answered synchronously off the result store and warm in-memory snapshots,
    identical in-flight builds coalesce into one computation, compatible
    queries batch against one snapshot, and misses go through the hardened
    process pool under bounded admission.  Prints throughput, p50/p99
    latency, hit/coalesce rates and the per-status response table;
    ``--check`` turns the run into a CI gate (hits > 0, coalescing > 0, zero
    dropped/failed/rejected).
``store``
    Inspect an on-disk result store: ``store audit`` re-verifies every
    entry's integrity checksum (bypassing the hot layer), invalidates corrupt
    entries and exits nonzero if any were found.
``capacity``
    Measure the capacity ladder: binary-search the largest practical vertex
    count per registered algorithm under a wall-clock budget (``--budget``
    seconds per build) and print/save the machine-readable ladder
    (``--json``); ``--update-defaults`` commits it as the registry's measured
    ``max_practical_vertices`` hints.
``params``
    Print every derived schedule of a parameter setting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from . import algorithms
from .analysis import (
    evaluate_run_stretch,
    render_dynamic_summary,
    render_fault_summary,
    render_run_result,
    render_serve_report,
    render_suite_manifest,
    render_table,
    verify_run,
)
from .analysis.capacity import (
    DEFAULT_PROBE_TIMEOUT_FACTOR,
    MEASURED_HINTS_PATH,
    capacity_ladder,
    render_ladder,
    save_ladder,
)
from .analysis.stretch import EXHAUSTIVE_MAX_VERTICES
from .core import make_parameters
from .experiments import (
    ExperimentRecord,
    all_specs,
    run_suite,
    save_records,
    validate_failure_manifest,
)
from .graphs import make_workload, read_edge_list, write_edge_list
from .graphs.generators import WORKLOAD_FAMILIES
from .kernels import (
    AUTO_MIN_SCHEDULE_VERTICES,
    AUTO_MIN_TRAVERSAL_VERTICES,
    KERNEL_ENV_VAR,
    KERNEL_MODES,
    set_kernel,
)


def _add_parameter_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.5, help="stretch parameter epsilon")
    parser.add_argument("--kappa", type=int, default=3, help="sparseness parameter kappa")
    parser.add_argument("--rho", type=float, default=1.0 / 3.0, help="round-budget parameter rho")
    parser.add_argument(
        "--internal",
        action="store_true",
        help="interpret --epsilon as the paper's internal (pre-rescaling) epsilon",
    )


def _parameters_from_args(args: argparse.Namespace):
    return make_parameters(args.epsilon, args.kappa, args.rho, epsilon_is_internal=args.internal)


def _parse_param_overrides(entries: Optional[Sequence[str]]) -> Dict[str, object]:
    """Parse repeated ``--param KEY=VALUE`` flags (values as JSON when possible)."""
    params: Dict[str, object] = {}
    for entry in entries or ():
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects KEY=VALUE, got {entry!r}")
        try:
            value: object = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key.strip()] = value
    return params


def _cmd_build(args: argparse.Namespace) -> int:
    if args.input:
        graph = read_edge_list(args.input)
        source = args.input
    else:
        graph = make_workload(args.family, args.size, seed=args.seed)
        source = f"{args.family}(n~{args.size}, seed={args.seed})"

    name = args.algorithm or f"new-{args.engine}"
    try:
        spec = algorithms.get_spec(name)
    except KeyError:
        names = ", ".join(algorithms.algorithm_names())
        print(f"unknown algorithm {name!r}; choose from: {names}", file=sys.stderr)
        return 2
    # Every algorithm picks its declared subset of the shared stretch flags;
    # --param overrides cover algorithm-specific parameters (e.g. greedy's
    # explicit stretch).
    params = spec.subset_params(
        {
            "epsilon": args.epsilon,
            "kappa": args.kappa,
            "rho": args.rho,
            "epsilon_is_internal": args.internal,
        }
    )
    try:
        params.update(_parse_param_overrides(args.param))
        run = spec.run(graph, params, seed=args.seed)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"graph: {source}: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(render_run_result(run))

    if args.verify:
        structural_ok = True
        if run.engine is not None:
            report = verify_run(run)
            structural_ok = report.all_passed
            print(f"structural lemma checks: {'all passed' if report.all_passed else 'FAILURES'}")
            for check in report.failures():
                print(f"  FAIL {check.name}: {check.details}")
        stretch = evaluate_run_stretch(run, num_pairs=args.sample_pairs)
        # evaluate_run_stretch switches to exhaustive all-pairs checking on
        # small graphs; label whichever mode actually ran.
        exhaustive = args.sample_pairs <= 0 or graph.num_vertices <= EXHAUSTIVE_MAX_VERTICES
        mode = "exhaustive stretch" if exhaustive else "sampled stretch"
        print(
            f"{mode} ({stretch.pairs_checked} pairs): max multiplicative "
            f"{stretch.max_multiplicative:.3g}, max additive {stretch.max_additive_surplus:.3g}, "
            f"guarantee satisfied: {stretch.satisfies_guarantee}"
        )
        if not structural_ok or not stretch.satisfies_guarantee:
            return 1
    if args.output:
        write_edge_list(run.spanner, args.output)
        print(f"spanner written to {args.output}")
    return 0


def _cmd_algorithms_list(args: argparse.Namespace) -> int:
    # select() with no tags returns everything, engine variants first — one
    # code path, one ordering, with or without --tag.
    specs = algorithms.select(tags=args.tag)
    if not specs:
        print(f"no algorithms match tags {args.tag!r}", file=sys.stderr)
        return 2
    if args.json:
        from .algorithms.builtin import capacity_provenance

        # describe() already carries supports_incremental and guarantee_kind;
        # the provenance fields say whether each capacity hint was measured
        # by the committed ladder or is a hand-set fallback.
        print(
            json.dumps(
                [
                    dict(spec.describe(), **capacity_provenance(spec.name))
                    for spec in specs
                ],
                indent=2,
            )
        )
        return 0
    rows = [
        {
            "algorithm": spec.name,
            "tags": ",".join(spec.tags) or "-",
            "parameters": ", ".join(
                f"{param.name}={param.default!r}" for param in spec.params
            ),
            "max n": spec.max_practical_vertices,
            "capacity": _capacity_source(spec.name),
            "description": spec.description,
        }
        for spec in specs
    ]
    print(render_table(rows))
    return 0


def _capacity_source(name: str) -> str:
    from .algorithms.builtin import capacity_provenance

    return str(capacity_provenance(name)["capacity_source"])


def _cmd_suite_list(args: argparse.Namespace) -> int:
    specs = all_specs(args.filter)
    if not specs:
        print(f"no scenarios match filter {args.filter!r}", file=sys.stderr)
        return 2
    rows = [
        {
            "scenario": spec.name,
            "tags": ",".join(spec.tags) or "-",
            "tasks": len(spec.task_params()),
            "description": spec.description,
        }
        for spec in specs
    ]
    print(render_table(rows))
    return 0


#: How ``suite run`` prints a record: the renderer of the first tag here that
#: its scenario carries, else :meth:`ExperimentRecord.render`.
RECORD_RENDERERS = {
    "chaos": render_fault_summary,
    "dynamic": render_dynamic_summary,
}


def _render_record(tags: Sequence[str], record: ExperimentRecord) -> str:
    for tag, renderer in RECORD_RENDERERS.items():
        if tag in tags:
            return renderer(record)
    return record.render()


def _write_json(path: str, data: object) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cmd_suite_run(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        print("--resume requires --store DIR (there is nothing to resume from)", file=sys.stderr)
        return 2
    specs = all_specs(args.filter)
    if not specs:
        print(f"no scenarios match filter {args.filter!r}", file=sys.stderr)
        return 2
    try:
        result = run_suite(
            specs,
            jobs=args.jobs,
            store=args.store,
            resume=args.resume,
            task_timeout=args.task_timeout,
            task_retries=args.task_retries,
        )
    except ValueError as exc:  # --jobs / --task-timeout / --task-retries out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for spec, outcome in zip(specs, result.outcomes):  # outcomes follow spec order
        if outcome.record is not None:
            print(_render_record(spec.tags, outcome.record))
            print()
    manifest = result.manifest()
    print(render_suite_manifest(manifest))
    if args.manifest:
        _write_json(args.manifest, manifest)
        print(f"manifest saved to {args.manifest}")
    failures = result.failure_manifest()
    validate_failure_manifest(failures)
    if failures["count"]:
        print(f"\nquarantined tasks ({failures['count']}):")
        print(json.dumps(failures, indent=2, sort_keys=True))
    if args.failures:
        _write_json(args.failures, failures)
        print(f"failure manifest saved to {args.failures}")
    if args.records:
        paths = save_records(result.records, args.records)
        print(f"saved {len(paths)} records to {args.records}")
    return 0 if result.ok else 1


def _cmd_capacity(args: argparse.Namespace) -> int:
    if args.budget <= 0:
        print("--budget must be positive", file=sys.stderr)
        return 2
    if args.algorithm:
        unknown = sorted(set(args.algorithm) - set(algorithms.algorithm_names()))
        if unknown:
            names = ", ".join(algorithms.algorithm_names())
            print(f"unknown algorithms {unknown!r}; choose from: {names}", file=sys.stderr)
            return 2
        if args.update_defaults:
            print(
                "--update-defaults requires a full ladder (no --algorithm filter)",
                file=sys.stderr,
            )
            return 2
    if args.update_defaults:
        # The committed hints gate every scenario matrix; refuse to overwrite
        # them from a quick-mode (narrow-window / tiny-budget / off-family)
        # measurement, which would silently cap every algorithm.
        problems = []
        if args.budget < 1.0:
            problems.append(f"--budget {args.budget} < 1.0s")
        if args.family != "sparse_gnp":
            problems.append(f"--family {args.family!r} != 'sparse_gnp'")
        if args.start_n != 64 or args.max_n < 16384:
            problems.append(
                f"window {args.start_n}..{args.max_n} narrower than 64..16384"
            )
        if problems:
            print(
                "--update-defaults requires reference measurement settings: "
                + "; ".join(problems),
                file=sys.stderr,
            )
            return 2
    if args.probe_timeout_factor is None:
        timeout_factor: Optional[float] = DEFAULT_PROBE_TIMEOUT_FACTOR
    elif args.probe_timeout_factor == 0:
        timeout_factor = None  # explicitly uncapped
    elif args.probe_timeout_factor <= 1:
        print("--probe-timeout-factor must be > 1 (or 0 to disable)", file=sys.stderr)
        return 2
    else:
        timeout_factor = args.probe_timeout_factor
    ladder = capacity_ladder(
        args.budget,
        algorithms=args.algorithm or None,
        family=args.family,
        seed=args.seed,
        start_n=args.start_n,
        max_n=args.max_n,
        probe_timeout_factor=timeout_factor,
    )
    print(render_ladder(ladder))
    if args.json:
        save_ladder(ladder, Path(args.json))
        print(f"ladder saved to {args.json}")
    if args.update_defaults:
        save_ladder(ladder, MEASURED_HINTS_PATH)
        print(f"measured hints written to {MEASURED_HINTS_PATH}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    parameters = _parameters_from_args(args)
    info = parameters.describe(args.size)
    print(json.dumps(info, indent=2, default=str))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here (not module-top) so `repro --help` stays cheap: the serve
    # package pulls in concurrent.futures and the full algorithm registry.
    from .experiments import ResultStore
    from .serve import SpannerService, generate_requests, run_load

    if args.requests < 1:
        print("--requests must be >= 1", file=sys.stderr)
        return 2
    if args.concurrency < 1:
        print("--concurrency must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.queue_limit < 1:
        print("--queue-limit must be >= 1", file=sys.stderr)
        return 2
    if args.request_timeout is not None and args.request_timeout <= 0:
        print("--request-timeout must be positive", file=sys.stderr)
        return 2
    try:
        requests = generate_requests(args.requests, args.seed, zipf_s=args.zipf_s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = ResultStore(args.store) if args.store else None
    with SpannerService(
        store,
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
    ) as service:
        report = run_load(service, requests, concurrency=args.concurrency)
    summary = report.to_dict()
    print(render_serve_report(summary))
    failures = report.failures
    validate_failure_manifest(failures)
    if args.json:
        _write_json(args.json, summary)
        print(f"load report saved to {args.json}")
    if args.failures:
        _write_json(args.failures, failures)
        print(f"failure manifest saved to {args.failures}")
    if args.check:
        # The smoke contract: the stream must exercise the cache (hits), the
        # single-flight path (coalesced builds) and lose nothing on the way.
        counts = summary["status_counts"]
        problems = []
        if not counts.get("hit"):
            problems.append("no cache hits")
        if not counts.get("coalesced"):
            problems.append("no coalesced responses")
        if summary["dropped"]:
            problems.append(f"{summary['dropped']} dropped requests")
        for bad in ("failed", "rejected", "timeout"):
            if counts.get(bad):
                problems.append(f"{counts[bad]} {bad} responses")
        if summary["failure_count"]:
            problems.append(f"{summary['failure_count']} quarantined requests")
        if problems:
            print("serve check FAILED: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("serve check: OK (hits, coalescing, zero drops)")
    return 0


def _cmd_store_audit(args: argparse.Namespace) -> int:
    from .experiments import ResultStore

    if not Path(args.store).is_dir():
        print(f"no result store at {args.store}", file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    total = store.size(args.scenario)
    corrupt = store.audit(args.scenario)
    print(
        f"store {args.store}: {total} entries audited, "
        f"{len(corrupt)} corrupt (invalidated)"
    )
    for name, key in corrupt:
        print(f"  CORRUPT {name}/{key}: deleted; next run recomputes it")
    return 1 if corrupt else 0


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic near-additive spanners in the CONGEST model (Elkin-Matar, PODC 2019).",
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNEL_MODES),
        default=None,
        help="kernel backend: 'python' (pure loops), 'numpy' (vectorized "
        "NumPy/SciPy sweeps) or 'auto' (the default: array exploration "
        f"phases and BFS forests from {AUTO_MIN_SCHEDULE_VERTICES} vertices "
        "up, compiled traversal and distance vectors from "
        f"{AUTO_MIN_TRAVERSAL_VERTICES}). Overrides the "
        f"{KERNEL_ENV_VAR} environment variable and propagates to worker "
        "processes.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build_parser = subparsers.add_parser("build", help="build a spanner and report on it")
    build_parser.add_argument("--family", choices=sorted(WORKLOAD_FAMILIES), default="gnp")
    build_parser.add_argument("--size", type=int, default=200, help="approximate vertex count")
    build_parser.add_argument("--seed", type=int, default=0)
    build_parser.add_argument("--input", type=str, default=None, help="edge-list file to read instead of generating")
    build_parser.add_argument("--output", type=str, default=None, help="write the spanner as an edge list")
    build_parser.add_argument("--engine", choices=["centralized", "distributed"], default="centralized")
    build_parser.add_argument(
        "--algorithm",
        type=str,
        default=None,
        help="registered algorithm name (see `repro algorithms list`); overrides --engine",
    )
    build_parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="algorithm-specific parameter override (repeatable; VALUE parsed as JSON)",
    )
    build_parser.add_argument("--verify", action="store_true", help="run the structural lemma checks and sampled stretch")
    build_parser.add_argument("--sample-pairs", type=int, default=300)
    _add_parameter_arguments(build_parser)
    build_parser.set_defaults(handler=_cmd_build)

    algorithms_parser = subparsers.add_parser(
        "algorithms", help="inspect the algorithm registry"
    )
    algorithms_subparsers = algorithms_parser.add_subparsers(
        dest="algorithms_command", required=True
    )
    algorithms_list_parser = algorithms_subparsers.add_parser(
        "list", help="list every registered algorithm"
    )
    algorithms_list_parser.add_argument(
        "--tag",
        action="append",
        help="keep algorithms carrying this tag (repeatable; all tags must match)",
    )
    algorithms_list_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable descriptions"
    )
    algorithms_list_parser.set_defaults(handler=_cmd_algorithms_list)

    suite_parser = subparsers.add_parser("suite", help="list or run the registered scenario suite")
    suite_subparsers = suite_parser.add_subparsers(dest="suite_command", required=True)

    suite_list_parser = suite_subparsers.add_parser("list", help="list registered scenarios")
    suite_list_parser.add_argument("--filter", type=str, default=None, help="keep the scenario of this name, else the scenarios with this tag")
    suite_list_parser.set_defaults(handler=_cmd_suite_list)

    suite_run_parser = suite_subparsers.add_parser("run", help="run scenarios through the pipeline")
    suite_run_parser.add_argument("--filter", type=str, default=None, help="run the scenario of this name, else the scenarios with this tag")
    suite_run_parser.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial; results are identical)")
    suite_run_parser.add_argument("--store", type=str, default=None, help="result-store directory for task caching")
    suite_run_parser.add_argument("--resume", action="store_true", help="reuse stored task results; only invalidated tasks recompute")
    suite_run_parser.add_argument("--records", type=str, default=None, help="directory to save every record as JSON")
    suite_run_parser.add_argument("--manifest", type=str, default=None, help="file to save the suite manifest as JSON")
    suite_run_parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="quarantine any task that exceeds this many wall-clock seconds",
    )
    suite_run_parser.add_argument(
        "--task-retries", type=int, default=0,
        help="re-run a failed task this many times (same params and seed) before quarantining it",
    )
    suite_run_parser.add_argument(
        "--failures", type=str, default=None,
        help="file to save the failure manifest of quarantined tasks as JSON",
    )
    suite_run_parser.set_defaults(handler=_cmd_suite_run)

    capacity_parser = subparsers.add_parser(
        "capacity",
        help="measure the largest practical n per algorithm under a time budget",
    )
    capacity_parser.add_argument(
        "--budget", type=float, default=5.0, help="wall-clock budget per build, in seconds"
    )
    capacity_parser.add_argument(
        "--algorithm",
        action="append",
        help="measure only this registered algorithm (repeatable; default: all)",
    )
    capacity_parser.add_argument(
        "--family", type=str, default="sparse_gnp",
        choices=sorted(WORKLOAD_FAMILIES),
        help="workload family the probes build on",
    )
    capacity_parser.add_argument("--seed", type=int, default=7)
    capacity_parser.add_argument(
        "--start-n", type=int, default=64, help="first probed vertex count"
    )
    capacity_parser.add_argument(
        "--max-n", type=int, default=16384, help="search-window ceiling"
    )
    capacity_parser.add_argument(
        "--probe-timeout-factor",
        type=float,
        default=None,
        help="hard-cap each probe at budget*FACTOR seconds (0 disables the cap; "
        "default: the library's factor of 8)",
    )
    capacity_parser.add_argument(
        "--json", type=str, default=None, help="save the machine-readable ladder"
    )
    capacity_parser.add_argument(
        "--update-defaults",
        action="store_true",
        help="write the ladder to the registry's measured-hints file",
    )
    capacity_parser.set_defaults(handler=_cmd_capacity)

    serve_parser = subparsers.add_parser(
        "serve",
        help="drive the request broker with a seeded mixed load and report cache behavior",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=400,
        help="number of requests in the generated stream",
    )
    serve_parser.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop window: at most this many unresolved requests",
    )
    serve_parser.add_argument("--seed", type=int, default=0, help="load-generator seed")
    serve_parser.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf skew of the key-popularity distribution",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="worker processes for cache misses"
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission cap: reject new requests beyond this many outstanding",
    )
    serve_parser.add_argument(
        "--request-timeout", type=float, default=None,
        help="fail a computed request after this many wall-clock seconds",
    )
    serve_parser.add_argument(
        "--store", type=str, default=None,
        help="result-store directory backing the service (default: memory only)",
    )
    serve_parser.add_argument(
        "--json", type=str, default=None, help="file to save the load report as JSON"
    )
    serve_parser.add_argument(
        "--failures", type=str, default=None,
        help="file to save the failure manifest of quarantined requests as JSON",
    )
    serve_parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the run shows cache hits, coalescing and zero "
        "dropped/failed/rejected requests (the CI smoke gate)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    store_parser = subparsers.add_parser(
        "store", help="inspect an on-disk result store"
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    store_audit_parser = store_subparsers.add_parser(
        "audit",
        help="re-verify every entry's integrity checksum; corrupt entries are "
        "invalidated so the next run recomputes them",
    )
    store_audit_parser.add_argument(
        "--store", type=str, required=True, help="result-store directory to audit"
    )
    store_audit_parser.add_argument(
        "--scenario", type=str, default=None, help="audit only this scenario's entries"
    )
    store_audit_parser.set_defaults(handler=_cmd_store_audit)

    params_parser = subparsers.add_parser("params", help="print the derived parameter schedules")
    params_parser.add_argument("--size", type=int, default=None, help="evaluate n-dependent bounds at this n")
    _add_parameter_arguments(params_parser)
    params_parser.set_defaults(handler=_cmd_params)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` (and the ``repro`` console script)."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    if args.kernel is not None:
        set_kernel(args.kernel)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly instead
        # of tracebacking (redirect stdout so interpreter shutdown is clean).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised through __main__
    sys.exit(main())
