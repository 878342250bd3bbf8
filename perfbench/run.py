"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload central-20k --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the layer
wrappers for part of the window and prints the per-layer metrics, writing the
spans as Chrome trace-event JSON under ``.perfbench/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show every metric with its
unit, the workload details and the host fingerprint.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import the package from this checkout's ``src`` (never from elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def host_fingerprint(num_vertices: int) -> dict:
    """The ``host`` block of CAPACITY.json, plus CPU model and library versions."""
    from repro.analysis.capacity import measurement_context
    from repro.kernels import active_backend

    context = measurement_context()
    host = dict(context["host"])
    host["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    host["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for module in ("numpy", "scipy"):
        try:
            host[module] = __import__(module).__version__
        except ImportError:
            host[module] = None
    return {
        "host": host,
        "kernel_mode": context["kernel_mode"],
        "kernel_backend": active_backend(num_vertices),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import workloads

    import_s = time.perf_counter() - _STARTED
    table = {
        "central-20k": workloads.CENTRAL_20K,
        "congest-4k": workloads.CONGEST_4K,
        "serve-zipf": workloads.SERVE_ZIPF,
    }
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = table[args.workload]
    is_serve = isinstance(workload, workloads.ServeWorkload)

    if args.trace:
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.trace.json"
        runner = workloads.run_serve_traced if is_serve else workloads.run_build_traced
        result = runner(workload, args.seed, args.seconds, trace_path)
    else:
        runner = workloads.run_serve_untraced if is_serve else workloads.run_build_untraced
        result = runner(workload, args.seed, args.seconds, import_s)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print("# details " + json.dumps(result.details, sort_keys=True))
    print("# host " + json.dumps(
        host_fingerprint(max(workload.sizes) if is_serve else workload.n), sort_keys=True
    ))
    for problem in result.problems:
        print(f"# problem {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
