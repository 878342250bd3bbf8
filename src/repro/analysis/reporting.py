"""Plain-text / markdown rendering of experiment tables.

Experiment records, the CLI and the capacity report print the regenerated
paper tables through these helpers, so every surface shows the same
rows/series the paper reports.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample value with at least
    ``q`` percent of the sample at or below it.

    This is the one percentile definition every report in the repo shares
    (suite manifests, the serving tier's latency report); nearest-rank keeps
    every reported quantile an actually-observed value, with no
    interpolation ambiguity.  An empty sample reports 0.0.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if q == 0:
        return float(ordered[0])
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def format_value(value: object, precision: int = 3) -> str:
    """Human-friendly formatting: scientific for huge magnitudes, fixed otherwise."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if math.isinf(value):
            return "inf"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.2e}"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [[format_value(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), max(len(rendered[i]) for rendered in rendered_rows))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def render_markdown_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render a list of dictionaries as a GitHub-flavoured markdown table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    lines = ["| " + " | ".join(columns) + " |", "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(format_value(row.get(col)) for col in columns) + " |")
    return "\n".join(lines)


#: Preferred phase-table columns of an engine run (the registry's unified
#: RunResult keeps them in each phase dict); other algorithms' phase dicts
#: render with their own keys.
_ENGINE_PHASE_COLUMNS = (
    "index", "stage", "num_clusters", "num_popular", "ruling_set_size",
    "num_superclustered", "num_unclustered", "superclustering_edges",
    "interconnection_edges",
)


def render_run_result(run, title: str = "per-phase statistics") -> str:
    """Plain-text summary of a unified :class:`~repro.core.result.RunResult`.

    Works for every registered algorithm: header lines (algorithm, declared
    guarantee, spanner size, nominal rounds where defined) plus the per-phase
    table whenever the run carries phase records.
    """
    header = f"algorithm: {run.algorithm}"
    if run.engine:
        header += f" (engine: {run.engine})"
    lines = [header]
    guarantee = run.guarantee
    if guarantee is not None:
        lines.append(
            f"guarantee: d_H <= {guarantee.multiplicative:.4g} * d_G "
            f"+ {guarantee.additive:.4g}"
        )
    else:
        lines.append("guarantee: none declared")
    spanner_line = f"spanner: {run.num_edges} edges"
    if run.nominal_rounds is not None:
        spanner_line += f"; nominal CONGEST rounds: {run.nominal_rounds}"
    lines.append(spanner_line)
    if run.phases:
        first = run.phases[0]
        if all(column in first for column in _ENGINE_PHASE_COLUMNS):
            columns: Optional[Sequence[str]] = _ENGINE_PHASE_COLUMNS
        else:
            columns = list(first.keys())
        lines.append(render_table(run.phases, columns=columns, title=title))
    return "\n".join(lines)


#: Fault-counter columns of :func:`render_fault_summary`, in display order
#: (the keys of :func:`repro.congest.faults.fresh_fault_counters`).
_FAULT_COUNTER_COLUMNS = (
    "dropped", "duplicated", "delayed", "delay_rounds",
    "link_down", "crashed_nodes", "lost_to_crash",
)


def render_fault_summary(record) -> str:
    """Per-task fault summary of a chaos :class:`ExperimentRecord`.

    One line per grid point: the task's identity columns (whatever of
    primitive/profile/drop_rate/crash_fraction the scenario sweeps), its
    typed outcome, how many guarantees degraded, and the injected-fault
    counters the simulator recorded.
    """
    rows = []
    for row in record.rows:
        counters = row.get("fault_counters") or {}
        line: Dict[str, object] = {
            key: row[key]
            for key in ("primitive", "profile", "drop_rate", "crash_fraction")
            if key in row
        }
        line["outcome"] = row.get("outcome")
        line["attempts"] = row.get("attempts")
        line["degraded"] = len(row.get("degraded") or ())
        for key in _FAULT_COUNTER_COLUMNS:
            line[key] = counters.get(key, 0)
        rows.append(line)
    return render_table(rows, title=f"fault summary: {record.name}")


def render_dynamic_summary(record) -> str:
    """Per-task summary of a dynamic :class:`ExperimentRecord`.

    One line per (algorithm, churn kind) grid point: the per-step guarantee
    verdict, how the maintenance decisions split between absorb / repair /
    rebuild, and the incremental-vs-rebuild work comparison the dynamic tier
    exists to measure.
    """
    rows = []
    for row in record.rows:
        steps = row.get("steps") or ()
        decisions = [step.get("decision") for step in steps]
        rows.append(
            {
                "algorithm": row.get("algorithm"),
                "kind": row.get("kind"),
                "cert": row.get("certificate"),
                "steps_ok": "yes" if row.get("steps_ok") else "NO",
                "absorbed": decisions.count("absorbed"),
                "repaired": decisions.count("repaired"),
                "rebuilds": row.get("rebuilds"),
                "inc_work": row.get("incremental_work"),
                "rebuild_work": row.get("rebuild_proxy_work"),
                "m_maintained": row.get("maintained_edges"),
                "m_rebuilt": row.get("rebuilt_edges"),
            }
        )
    return render_table(rows, title=f"dynamic summary: {record.name}")


def render_suite_manifest(manifest: Dict[str, object]) -> str:
    """Render a suite-run manifest (per-scenario status, checks, cache hits, wall-clock).

    The manifest is produced by :meth:`repro.experiments.pipeline.SuiteResult.manifest`;
    this is what ``repro suite run`` prints.
    """
    lines: List[str] = []
    header = (
        f"suite: {manifest.get('total_tasks', 0)} tasks, "
        f"{manifest.get('total_cache_hits', 0)} cache hits, "
        f"{manifest.get('total_computed', 0)} computed, "
        f"jobs={manifest.get('jobs', 1)}, "
        f"elapsed {manifest.get('elapsed_seconds', 0)}s"
    )
    store = manifest.get("store")
    if store:
        header += f", store={store}" + (" (resume)" if manifest.get("resume") else "")
    lines.append(header)
    rows = []
    for scenario in manifest.get("scenarios", []):
        checks_failed = scenario.get("checks_failed") or []
        rows.append(
            {
                "scenario": scenario.get("name"),
                "status": scenario.get("status"),
                "tasks": scenario.get("tasks"),
                "hits": scenario.get("cache_hits"),
                "computed": scenario.get("computed"),
                "wall_s": scenario.get("wall_seconds"),
                # Per-task wall-clock quantiles (absent in pre-PR9 manifests,
                # rendered as "-").
                "wall_p50": scenario.get("wall_p50"),
                "wall_p99": scenario.get("wall_p99"),
                "failed_checks": ", ".join(checks_failed) if checks_failed else "-",
            }
        )
    if rows:
        lines.append(render_table(rows))
    for scenario in manifest.get("scenarios", []):
        if scenario.get("error"):
            lines.append(f"error in {scenario.get('name')}: {scenario.get('error')}")
    lines.append("all ok" if manifest.get("all_ok") else "FAILURES (see above)")
    return "\n".join(lines)


def render_serve_report(report: Dict[str, object]) -> str:
    """Render a serving-tier load report (what ``repro serve`` prints).

    ``report`` is :meth:`repro.serve.loadgen.LoadReport.to_dict` output:
    throughput and latency quantiles up top, then the per-status and
    per-kind response tables and the service counters that prove cache
    behavior (hits, coalesced single-flight builds, batching).
    """
    latency = report.get("latency_ms") or {}
    stats = report.get("stats") or {}
    lines = [
        f"serve: {report.get('requests', 0)} requests in "
        f"{format_value(report.get('elapsed_seconds'))}s "
        f"({format_value(report.get('throughput_rps'))} req/s), "
        f"dropped {report.get('dropped', 0)}",
        f"latency ms: p50 {format_value(latency.get('p50'))}, "
        f"p99 {format_value(latency.get('p99'))}, "
        f"max {format_value(latency.get('max'))}",
        f"cache: hit rate {format_value(report.get('hit_rate'))}, "
        f"coalesce rate {format_value(report.get('coalesce_rate'))}, "
        f"pool submissions {stats.get('pool_submissions', 0)}, "
        f"max batch {report.get('max_batch', 0)}",
    ]
    status_rows = [
        {"status": status, "count": count}
        for status, count in sorted((report.get("status_counts") or {}).items())
    ]
    if status_rows:
        lines.append(render_table(status_rows, title="responses by status"))
    kind_rows = [
        {"kind": kind, "count": count}
        for kind, count in sorted((report.get("kind_counts") or {}).items())
    ]
    if kind_rows:
        lines.append(render_table(kind_rows, title="responses by kind"))
    failures = report.get("failure_count", 0)
    lines.append(
        "no quarantined requests" if not failures
        else f"QUARANTINED REQUESTS: {failures} (see the failure manifest)"
    )
    return "\n".join(lines)


def render_series(
    series: Dict[str, Sequence[float]],
    x_label: str = "x",
    title: Optional[str] = None,
) -> str:
    """Render named numeric series (a text stand-in for a figure's curves)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for name in sorted(series.keys()):
        values = ", ".join(format_value(v) for v in series[name])
        lines.append(f"  {name} ({x_label}): [{values}]")
    return "\n".join(lines)
