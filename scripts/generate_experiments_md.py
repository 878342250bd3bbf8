#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the algorithm and scenario registries.

Documents every registered algorithm and scenario (straight from the
registries), the suite CLI and the result-store layout, then runs every
scenario through the experiment pipeline at its registered (CLI) scale and
appends the measured paper-vs-measured sections.  Refresh with::

    python scripts/generate_experiments_md.py              # write the file
    python scripts/generate_experiments_md.py --jobs 4     # same, process-parallel
    python scripts/generate_experiments_md.py --check      # CI drift check

``--check`` builds the whole document in memory, through the same code path
as a write, and compares it byte for byte with the committed EXPERIMENTS.md
(no writes); a non-zero exit means a registry or a measured result changed
without the docs being regenerated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "EXPERIMENTS.md"
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import algorithms  # noqa: E402
from repro.analysis.reporting import render_markdown_table  # noqa: E402
from repro.experiments import all_specs, run_suite  # noqa: E402

PAPER_CLAIMS = {
    "table1": (
        "Table 1 (paper): [Elk05] is the only previous deterministic CONGEST algorithm, with "
        "additive term beta_E = (kappa/eps)^{O(log kappa)} * rho^{-1/rho-1}, size "
        "O~(beta_E n^{1+1/kappa}) and superlinear running time O(n^{1+1/(2kappa)}); the new "
        "algorithm achieves beta in the [EN17] ballpark, size O(beta n^{1+1/kappa}) and "
        "low-polynomial running time O(beta n^rho / rho)."
    ),
    "table2": (
        "Table 2 (paper): survey of all near-additive spanner constructions; the new algorithm is "
        "the only deterministic CONGEST entry with low polynomial time."
    ),
    "figure1": "Figure 1: superclusters are grown around the chosen popular cluster centers; every popular center is covered (Lemma 2.4).",
    "figure2": "Figure 2: the BFS trees of the new superclusters are added to H; cluster radii stay below R_i (Lemma 2.3).",
    "figure3": "Figure 3: ruling-set vertices are 2*delta_i+1 separated, so their delta_i-neighbourhoods are pairwise disjoint (Theorem 2.2).",
    "figure4": "Figure 4: for every spanned center, the forest path from its root is added to H (length at most the superclustering depth).",
    "figure5": "Figure 5: every unclustered cluster is connected to all centers within delta_i; being unpopular, it adds fewer than deg_i paths (Lemma 2.12).",
    "figure6": "Figure 6: hopping through a neighbouring cluster costs at most 3R_j + 1 + R_i in H (Lemma 2.15).",
    "figure7": "Figure 7: end-to-end stretch decomposition; d_H <= (1+eps) d_G + beta for every pair (Lemma 2.16 / Corollary 2.18).",
    "figure8": "Figure 8: splitting a long path into eps^{-i}-length segments accumulates at most one additive beta per segment (eq. 15).",
    "scaling": "Corollaries 2.9 / 2.13: the round complexity grows like n^rho and the spanner size like n^{1+1/kappa}.",
    "ablation-epsilon": "Implementation ablation: the internal epsilon trades the additive term beta against multiplicative slack and size (eq. 17).",
    "ablation-rho": "Implementation ablation: a larger rho shrinks the n^rho round factor but inflates beta through the 1/rho exponent.",
    "ablation-kappa": "Implementation ablation: a larger kappa sparsifies the spanner (n^{1+1/kappa}) at the cost of more phases and a larger beta.",
    "family-small-world": "Workload family: small-world rewiring; the guarantee must hold across the lattice-to-expander transition, on both engines.",
    "family-geometric": "Workload family: random geometric graphs; supercluster growth over genuinely local, non-uniform neighbourhoods.",
    "family-multi-component": "Workload family: disconnected unions; the spanner must preserve the component structure exactly.",
    "family-powerlaw": "Scale-tier family: Holme-Kim preferential attachment with triangle closure; the guarantee must hold under heavy-tailed degrees and hub-dominated distances.",
    "family-hyperbolic": "Scale-tier family: hyperbolic-like graphs (Chung-Lu power-law hubs over an angular ring); heterogeneous degrees plus geometric locality, on both engines.",
    "family-torus": "Scale-tier family: 2-D tori at four-digit sizes; the canonical large-diameter regular regime where near-additive spanners beat multiplicative ones.",
    "scaling-large": "Scale tier: the Corollary 2.9 / 2.13 round and size exponents re-fitted at n up to 4096 on the O(n+m) skip-sampling G(n, p) family.",
    "scaling-growth": "Scale tier: the distributed engine's empirical CONGEST rounds/messages across the new families must grow consistently with the declared O(beta)-phase bound (rounds under the closed-form bound, exponent within rho plus slack, messages under the bandwidth ceiling).",
    "chaos-primitives": "Fault tier: every fault-hardened primitive (bounded exploration, BFS forest, ruling set) under every injected fault profile (drops, duplicates, delays, crash-stop, a mixed storm) must terminate in a typed outcome -- exact, verified-degraded (safety re-proved against the real graph), or a typed protocol fault.",
    "chaos-sweep": "Fault tier: a drop-rate x crash-fraction grid over the BFS forest; exactness erodes with fault pressure while every safety guarantee (tree edges real, distances are upper bounds, roots self-consistent) holds on every terminating schedule.",
    "dynamic-churn": "Dynamic tier: every incremental-capable algorithm maintains its spanner through steady-state churn traces (uniform, sliding-window, hotspot); the declared stretch guarantee is re-verified exhaustively after every single step and the final spanner stays within a bounded sparseness factor of a from-scratch rebuild.",
    "dynamic-growth": "Dynamic tier: on insert-only traces, absorption (insert a new edge only when the maintained spanner already violates the guarantee on it) preserves the guarantee at every step, and edge-local maintenance undercuts the rebuild-every-step work proxy -- the incremental-vs-rebuild crossover.",
}

DOC_HEADER = """\
# EXPERIMENTS — the scenario registry, suite pipeline and result store

This file is generated by `python scripts/generate_experiments_md.py`
(`--check` verifies it in CI).  It documents every algorithm registered with
the algorithm registry (`repro.algorithms`), every scenario registered with
the experiment registry (`repro.experiments.registry`), the suite CLI, and
the on-disk result store; the measured sections (regenerated by the same
script) record, for every scenario, what the paper claims and what this
reproduction measures.

Absolute numbers are not expected to match the paper: the paper proves
asymptotic bounds and has no experimental section, and all O(1) constants in
its formula tables are evaluated as 1 here.  What must (and does) hold is the
*shape*: every structural lemma holds exactly on every run, measured
resources stay inside the theoretical envelopes, and the relative comparisons
(deterministic vs. sequential selection, near-additive vs. multiplicative
stretch, sublinear round scaling) reproduce the paper's qualitative claims.

## Running scenarios

One command runs every scenario, by name, by tag or all together:

```
PYTHONPATH=src python -m repro suite list [--filter NAME|TAG]
PYTHONPATH=src python -m repro suite run [--filter NAME|TAG] [--jobs N] \\
    [--store DIR] [--resume] [--records DIR] [--manifest out.json] \\
    [--task-timeout SECONDS] [--task-retries K] [--failures out.json]
```

(after `pip install -e .`, `repro ...` works without the `PYTHONPATH=src` /
`python -m` prefix.)

* `--filter NAME|TAG` selects the scenario of that exact name if there is
  one, and otherwise every scenario carrying that tag (tags are listed in
  the registry table below; e.g. `paper`, `figure`, `ablation`, `family`).
  `--filter scaling` is the `scaling` scenario, not the three
  `scaling`-tagged ones.
* Every record is printed (a fault summary for `chaos` scenarios, a
  maintenance summary for `dynamic` ones), then the suite manifest;
  `--records DIR` saves each record as `DIR/<scenario name>.json`.  The exit
  status is 1 if any scenario errors or fails a check, and 2 on a usage
  error (an unknown filter, `--resume` without `--store`).
* `--jobs N` executes the expanded tasks in `N` worker processes.  Results
  are **byte-identical** to a serial run: tasks are pure functions of their
  parameters and per-task seeds, payloads are canonicalized through a JSON
  round-trip, and merges happen in expansion order.  Wall-clock timing never
  enters a record — it is reported through the suite manifest.
* `--store DIR --resume` makes re-runs incremental: each task result is
  persisted under a content address and only invalidated tasks recompute.
  A second `--resume` run of an unchanged tree recomputes **zero** tasks.

## Fault tier and pipeline hardening

The `chaos`-tagged scenarios drive deterministic fault injection (message
drops, duplicates, delays, link outages, crash-stop failures -- all pure
functions of a `fault_seed` parameter) against the CONGEST primitives and
verify, per task, which guarantee survived:

```
PYTHONPATH=src python -m repro suite run --filter chaos [--jobs N] \\
    [--task-timeout SECONDS] [--task-retries K] [--failures out.json]
```

Every task terminates in a typed outcome (`exact`, `verified-degraded`, or
`protocol-fault`), and the scenario checks enforce the tier's contract:
safety guarantees hold on every terminating schedule, zero-fault grid points
stay bit-exact, and active plans inject counted faults.  The pipeline itself
is hardened for such hostile tasks: `--task-timeout` quarantines a wedged
task (recorded in a schema-validated failure manifest) without sinking the
suite, and `--task-retries` re-runs failures with the *same* params and seed
(tasks are pure, so retries only recover transient environmental failures).
The store-corruption self-test is
`tests/experiments/test_store.py::test_corrupted_entry_recomputed_on_resume`:
it corrupts one cached chaos-sweep entry and proves the store invalidates
it, recomputes exactly that task and reproduces a byte-identical record.

## Result-store layout

The store is content-addressed: each task's key is
`sha256(scenario, params, workload-fingerprint, scenario-version)[:32]`,
where the workload fingerprint hashes the actual generated graph (vertex
count + sorted edge list).  Changing a parameter, a generator, or bumping a
spec's `version` therefore invalidates exactly the affected tasks.

```
<store>/
  <scenario-name>/
    <key>.json      # {"schema": "repro-result-store/v2", "scenario",
                    #  "params", "seed", "workload_fingerprint",
                    #  "version", "payload", "payload_sha256"}
```

Entries hold the canonical payload the pipeline merges, so a cache hit is
byte-for-byte indistinguishable from a fresh computation.  Writes are atomic
(temp file + rename), and every read re-verifies the `payload_sha256`
integrity checksum: a corrupted, truncated or stale-schema entry is treated
as a miss, deleted, and recomputed on the next `--resume` run.  Each store
instance also keeps an in-memory *hot layer* of already-verified entries
(guarded by the file's stat signature), so repeated reads of an unchanged
entry skip the re-read and the re-hash; `repro store audit` re-verifies every
entry from disk, invalidating any corruption it finds.

## Serving tier

`repro serve` drives a long-lived request broker (in-process API:
`repro.serve.ServiceHandle`) that answers `build`, `stretch-query` and
`distance-query` requests with the cheapest sufficient mechanism -- warm
in-memory snapshots, then the result store, then a bounded process pool:

```
PYTHONPATH=src python -m repro serve [--requests N] [--concurrency W] \\
    [--seed S] [--workers K] [--queue-limit Q] [--request-timeout SECONDS] \\
    [--store DIR] [--json out.json] [--failures out.json] [--check]
PYTHONPATH=src python -m repro store audit --store DIR [--scenario NAME]
```

The load is a seeded, Zipf-skewed mixed stream over a deterministic build
catalogue (a pure function of `--seed`).  Identical in-flight build misses
coalesce into one computation (single-flight, keyed by the store's content
address), queries batch per warm snapshot so they share the graph's
distance-cache sweeps, and requests beyond `--queue-limit` are rejected with
typed backpressure responses recorded in the same failure-manifest schema the
pipeline uses.  Responses carry provenance (`hit | coalesced | computed`,
queue/compute split) *next to* the payload, never inside it: served payloads
are byte-identical to direct `repro.build` / stretch evaluation regardless of
concurrency, coalescing or cache state.  `--check` turns a run into the CI
smoke gate (cache hits > 0, coalescing > 0, zero dropped/failed/rejected),
and a tier-1 test drives a 1500-request mixed load through the process pool
and asserts the cache-behavior facts (no drops, a hit rate above 0.5,
coalescing, at most one pool submission per distinct build) within a 30 s
budget.  The `serve-zipf` workload of `perfbench/` times the serving path.
"""


def algorithm_registry_section() -> str:
    intro = (
        "Every spanner construction is a registered `AlgorithmSpec` behind the\n"
        "one `repro.build(name, graph, **params)` facade (returning the unified\n"
        "`RunResult`); scenario matrices, `repro build --algorithm NAME` and the\n"
        "guarantee property tests all draw from this registry, so a new\n"
        "registration is measured, runnable and guarantee-checked with no\n"
        "experiment-code changes.  `max n` is the capability hint\n"
        "(`max_practical_vertices`) pipelines consult instead of hard-coding\n"
        "per-algorithm size rules.\n\n"
        "```\n"
        "PYTHONPATH=src python -m repro algorithms list [--tag TAG] [--json]\n"
        "PYTHONPATH=src python -m repro build --algorithm NAME [--param KEY=VALUE]\n"
        "```\n\n"
    )
    rows = [
        {
            "algorithm": spec.name,
            "tags": ", ".join(spec.tags),
            "parameters": ", ".join(
                f"`{param.name}={param.default!r}`" for param in spec.params
            ),
            "max n": spec.max_practical_vertices or "-",
            "description": spec.description,
        }
        for spec in algorithms.all_specs()
    ]
    return "## Algorithm registry\n\n" + intro + render_markdown_table(rows)


def registry_section() -> str:
    rows = [
        {
            "scenario": spec.name,
            "tags": ", ".join(spec.tags),
            "tasks": len(spec.task_params()),
            "version": spec.version,
            "description": spec.description,
        }
        for spec in all_specs()
    ]
    return "## Scenario registry\n\n" + render_markdown_table(rows)


def _compact_row(row):
    """Elide nested row lists (e.g. the dynamic tier's per-step records):
    they belong in the JSON records, not in a one-line markdown cell."""
    return {
        key: (
            f"[{len(value)} nested rows]"
            if isinstance(value, list) and value and isinstance(value[0], dict)
            else value
        )
        for key, value in row.items()
    }


def record_to_markdown(record, max_rows=40):
    lines = ["**Checks**: " + ", ".join(
        f"{name} = {'PASS' if ok else 'FAIL'}" for name, ok in sorted(record.checks.items())
    )]
    if record.parameters:
        lines.append("")
        lines.append("Parameters: " + ", ".join(f"`{k}={v}`" for k, v in sorted(record.parameters.items())))
    rows = [_compact_row(row) for row in record.rows[:max_rows]]
    if rows:
        groups = []
        for row in rows:
            if groups and tuple(groups[-1][0].keys()) == tuple(row.keys()):
                groups[-1].append(row)
            else:
                groups.append([row])
        for group in groups:
            lines.append("")
            lines.append(render_markdown_table(group))
    if record.series:
        lines.append("")
        for name in sorted(record.series):
            values = ", ".join(f"{v:.4g}" for v in record.series[name])
            lines.append(f"- series `{name}`: [{values}]")
    for note in record.notes:
        lines.append(f"\n> {note}")
    return "\n".join(lines)


def render_document(jobs: int = 1) -> Tuple[str, bool]:
    """The whole EXPERIMENTS.md text, and whether every scenario passed."""
    sections = [DOC_HEADER, algorithm_registry_section(), registry_section()]
    specs = all_specs()
    print(f"running {len(specs)} scenarios (jobs={jobs}) ...", file=sys.stderr)
    result = run_suite(specs, jobs=jobs)
    for outcome in result.outcomes:
        claim = PAPER_CLAIMS.get(outcome.name, "")
        title = f"## {outcome.name}"
        if outcome.record is None:
            sections.append(f"{title}\n\n{claim}\n\n**ERROR**: {outcome.error}")
            continue
        body = record_to_markdown(outcome.record)
        sections.append(f"{title}\n\n{claim}\n\n{body}")
    return "\n\n".join(sections) + "\n", result.ok


def check_drift(path: Path = DOC_PATH, jobs: int = 1) -> int:
    """Rebuild the document in memory and compare it byte for byte with ``path``."""
    if not path.exists():
        print(f"{path} missing; run scripts/generate_experiments_md.py", file=sys.stderr)
        return 1
    document, _ok = render_document(jobs)
    if path.read_bytes() != document.encode("utf-8"):
        print(
            f"{path} is out of date with the registries or the measured "
            "results; regenerate it with scripts/generate_experiments_md.py",
            file=sys.stderr,
        )
        return 1
    print(f"{path} is up to date", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify EXPERIMENTS.md matches a fresh regeneration (no writes)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the measured runs")
    args = parser.parse_args()

    if args.check:
        return check_drift(jobs=args.jobs)

    output, ok = render_document(args.jobs)
    DOC_PATH.write_text(output, encoding="utf-8")
    print(f"wrote {DOC_PATH} ({len(output)} bytes)", file=sys.stderr)
    if not ok:
        # The file is still written (the ERROR sections make the failure easy
        # to inspect), but a scripted regeneration must not pass silently.
        print("ERROR: some scenarios failed; see the generated file", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
