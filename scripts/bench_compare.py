#!/usr/bin/env python
"""Run the ``benchmarks/`` harness and diff the result against a baseline.

The script produces a small machine-readable snapshot of the repository's
performance:

* per-benchmark wall-clock statistics, obtained by running the pytest
  benchmark harness under ``benchmarks/`` with ``--benchmark-json``;
* a *golden workload* section: a fixed distributed spanner build and a fixed
  BFS-forest protocol whose ``rounds_executed`` / ``messages_delivered`` /
  result digests must stay bit-identical across engine refactors.

Typical usage::

    # after a change: record the snapshot (to the untracked
    # bench-snapshot.json by default) and compare it with the baseline
    python scripts/bench_compare.py --baseline BENCH_seed.json

    # re-record the committed golden-counter baseline on purpose
    python scripts/bench_compare.py --output BENCH_seed.json

The comparison prints a per-benchmark speedup table and re-checks that the
golden counters are unchanged; a golden mismatch exits non-zero because it
means a "performance" change silently altered protocol behaviour.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BENCH_DIR = REPO_ROOT / "benchmarks"
SCHEMA = "bench-compare/v1"


def _digest(obj: object) -> str:
    """Stable content digest of a JSON-serializable object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Golden workloads: fixed protocols whose counters must never drift
# ----------------------------------------------------------------------
def golden_workloads() -> Dict[str, Dict[str, object]]:
    """Run the fixed workloads and collect their exact counters."""
    sys.path.insert(0, str(SRC))
    from repro import build_spanner
    from repro.congest.simulator import Simulator
    from repro.experiments import default_parameters
    from repro.graphs import gnp_random_graph, planted_partition_graph
    from repro.primitives.bfs_forest import run_bfs_forest

    golden: Dict[str, Dict[str, object]] = {}

    # 1. Full distributed spanner build (the bench_congest_engine workload).
    graph = gnp_random_graph(120, 0.05, seed=21)
    result = build_spanner(graph, parameters=default_parameters(), engine="distributed")
    golden["distributed-build-gnp120"] = {
        "nominal_rounds": result.nominal_rounds,
        "spanner_edges": result.num_edges,
        "edges_digest": _digest(sorted(result.spanner.edge_set())),
    }

    # 2. A bare BFS-forest protocol on a community graph: pins the simulator's
    #    round/message/congestion accounting, not just the end result.
    forest_graph = planted_partition_graph(8, 12, p_intra=0.5, p_inter=0.03, seed=5)
    simulator = Simulator(forest_graph)
    forest = run_bfs_forest(simulator, sources=[0, 17, 55, 80], depth=6)
    golden["bfs-forest-planted96"] = {
        "rounds_executed": forest.run.rounds_executed,
        "messages_delivered": forest.run.messages_delivered,
        "words_delivered": forest.run.words_delivered,
        "max_edge_congestion": forest.run.max_edge_congestion,
        "results_digest": _digest(forest.run.results),
    }
    return golden


# ----------------------------------------------------------------------
# Benchmark harness
# ----------------------------------------------------------------------
def resolved_kernel_backend() -> str:
    """The kernel backend this process (and the benchmark subprocess,
    which inherits the environment) resolves to at large ``n``."""
    sys.path.insert(0, str(SRC))
    from repro.kernels import active_backend

    return active_backend()


def run_benchmarks(keyword: str = "") -> Dict[str, Dict[str, float]]:
    """Run the pytest benchmarks and return ``{fullname: wall-clock stats}``."""
    backend = resolved_kernel_backend()
    bench_files = sorted(str(p) for p in BENCH_DIR.glob("bench_*.py"))
    if not bench_files:
        raise SystemExit(f"no bench_*.py files found under {BENCH_DIR}")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "pytest", "-q", *bench_files, f"--benchmark-json={json_path}"]
    if keyword:
        cmd += ["-k", keyword]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if proc.returncode not in (0, 5):  # 5 = nothing collected under -k
        raise SystemExit(f"benchmark harness failed with exit code {proc.returncode}")
    with open(json_path) as handle:
        raw = json.load(handle)
    os.unlink(json_path)
    stats: Dict[str, Dict[str, object]] = {}
    for bench in raw.get("benchmarks", []):
        entry: Dict[str, object] = {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
        }
        # Benchmarks report protocol counters (nominal rounds, messages, ...)
        # through pytest-benchmark's extra_info; keep them in the snapshot,
        # stamped with the kernel backend the timings were taken under.
        entry.update(bench.get("extra_info") or {})
        entry["kernel_backend"] = backend
        stats[bench["fullname"]] = entry
    return stats


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare(current: Dict[str, object], baseline: Dict[str, object]) -> int:
    """Print a speedup table and check golden invariants; return exit status."""
    status = 0
    base_backend = baseline.get("kernel_backend")
    cur_backend = current.get("kernel_backend")
    cross_backend = (
        isinstance(base_backend, str)
        and isinstance(cur_backend, str)
        and base_backend != cur_backend
    )
    if cross_backend:
        print()
        print(
            f"NOTE: cross-backend comparison (baseline kernel={base_backend}, "
            f"current kernel={cur_backend}): wall-clock differences reflect "
            "the backend switch, not regressions.  Golden counters must still "
            "match bit-for-bit."
        )
    print()
    print(f"{'benchmark':60s} {'base(ms)':>10s} {'now(ms)':>10s} {'speedup':>8s}")
    print("-" * 92)
    base_bench = baseline.get("benchmarks", {})
    for name, stats in sorted(current["benchmarks"].items()):
        now_ms = stats["mean_s"] * 1e3
        if name in base_bench:
            base_ms = base_bench[name]["mean_s"] * 1e3
            ratio = base_ms / now_ms if now_ms else float("inf")
            print(f"{name:60s} {base_ms:10.3f} {now_ms:10.3f} {ratio:7.2f}x")
        else:
            print(f"{name:60s} {'--':>10s} {now_ms:10.3f} {'new':>8s}")

    print()
    base_golden = baseline.get("golden", {})
    for name, counters in sorted(current["golden"].items()):
        expected = base_golden.get(name)
        if expected is None:
            print(f"golden {name}: no baseline entry (new workload)")
            continue
        if counters == expected:
            print(f"golden {name}: OK (bit-identical counters)")
        else:
            status = 1
            print(f"golden {name}: MISMATCH")
            for key in sorted(set(counters) | set(expected)):
                if counters.get(key) != expected.get(key):
                    print(f"    {key}: baseline={expected.get(key)!r} current={counters.get(key)!r}")
    return status


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="bench-snapshot.json",
        help="where to write the snapshot (default: bench-snapshot.json, not tracked)",
    )
    parser.add_argument("--baseline", default=None, help="baseline snapshot to diff against")
    parser.add_argument("-k", "--keyword", default="", help="pytest -k filter for the benchmarks")
    parser.add_argument(
        "--skip-benchmarks",
        action="store_true",
        help="only run the golden workloads (fast smoke check)",
    )
    args = parser.parse_args(argv)

    snapshot: Dict[str, object] = {
        "schema": SCHEMA,
        "kernel_backend": resolved_kernel_backend(),
        "benchmarks": {} if args.skip_benchmarks else run_benchmarks(args.keyword),
        "golden": golden_workloads(),
    }
    out_path = Path(args.output)
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path} ({len(snapshot['benchmarks'])} benchmarks, "
          f"{len(snapshot['golden'])} golden workloads)")

    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found; skipping comparison", file=sys.stderr)
            return 0
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        return compare(snapshot, baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
