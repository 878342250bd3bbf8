#!/usr/bin/env python
"""Kernel parity gate: an engine's spanner matches under both kernels.

Builds ``--algorithm`` (``new-centralized`` by default, ``new-distributed``
or ``elkin05-surrogate``) on one seeded ``sparse_gnp`` graph twice, under
``--kernel python`` (the CPython loops) and ``--kernel auto`` (which past the
``auto`` thresholds of :mod:`repro.kernels` runs the vectorized tier: the
compiled per-center traversal of the centralized engine, which the
Elkin'05 surrogate explores with too, and the array message plane of the
distributed one), and fails unless both spanners have exactly the same edge
set.  For ``new-distributed`` the two builds must also charge
the same ledger entries, in the same order.  Each build's spanner is also
certified under its own kernel on a seeded sample of 8 sources against all
targets (past the traversal threshold ``auto`` sweeps those distances with
the compiled traversal too), and the two stretch reports must be identical.
The defaults are the ``central-20k`` benchmark's first graph: n=20000,
expected degree 16, seed 3.
Run::

    python scripts/kernel_parity.py [--algorithm A] [--size N] [--degree D] [--seed S]

Exits 1 on a mismatch, and also when the vectorized tier cannot run here
(NumPy/SciPy missing) or the build merged no cluster, because then the check
would compare the pure-Python path with itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro import kernels  # noqa: E402
from repro.analysis.stretch import evaluate_stretch  # noqa: E402
from repro.congest import Simulator  # noqa: E402
from repro.graphs.generators import make_workload  # noqa: E402

#: The builders the gate compares; the distributed one also has a ledger.
ALGORITHMS = ("new-centralized", "new-distributed", "elkin05-surrogate")

#: Sources of the stretch certificate, each checked against every target.
CERTIFICATE_SOURCES = 8


def certificate_pairs(n: int, seed: int):
    """The seeded certificate's pairs: ``CERTIFICATE_SOURCES`` sources x all targets."""
    sources = random.Random(f"kernel-parity:{seed}").sample(
        range(n), min(CERTIFICATE_SOURCES, n)
    )
    return [(s, v) for s in sources for v in range(n) if v != s]


def build_outcome(algorithm: str, graph, seed: int, mode: str, pairs):
    """The sorted spanner edges, the ledger charges, the merges and the stretch
    report over ``pairs`` under ``mode``.

    The charges are ``None`` for ``new-centralized``, which runs no simulator.
    """
    kernels.set_kernel(mode)
    simulator = Simulator(graph) if algorithm == "new-distributed" else None
    run = repro.build(algorithm, graph, seed=seed, simulator=simulator)
    merges = sum(int(phase["num_superclustered"]) for phase in run.phases)
    charges = None
    if simulator is not None:
        charges = [dataclasses.astuple(charge) for charge in simulator.ledger.charges]
    report = evaluate_stretch(graph, run.spanner, run.guarantee, pairs=pairs).to_dict()
    return sorted(run.spanner.edge_set()), charges, merges, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", choices=ALGORITHMS, default=ALGORITHMS[0])
    parser.add_argument("--size", type=int, default=20000)
    parser.add_argument("--degree", type=float, default=16.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    if not kernels.numpy_available():
        print("kernel parity: numpy/scipy are not installed; nothing to compare")
        return 1
    graph = make_workload(
        "sparse_gnp", args.size, seed=args.seed, p=args.degree / (args.size - 1)
    )
    pairs = certificate_pairs(args.size, args.seed)
    python_edges, python_charges, merges, python_report = build_outcome(
        args.algorithm, graph, args.seed, kernels.KERNEL_PYTHON, pairs
    )
    auto_edges, auto_charges, _, auto_report = build_outcome(
        args.algorithm, graph, args.seed, kernels.KERNEL_AUTO, pairs
    )
    label = f"{args.algorithm} n={args.size} degree={args.degree:g} seed={args.seed}"
    if merges == 0:
        print(f"kernel parity: {label}: no cluster merges, so no deep exploration ran")
        return 1
    if python_edges != auto_edges:
        only_python = len(set(python_edges) - set(auto_edges))
        only_auto = len(set(auto_edges) - set(python_edges))
        print(
            f"kernel parity: {label}: spanners differ "
            f"({only_python} edges only under python, {only_auto} only under auto)"
        )
        return 1
    if python_charges != auto_charges:
        print(f"kernel parity: {label}: the ledgers differ")
        return 1
    if python_report != auto_report:
        print(f"kernel parity: {label}: the stretch reports differ")
        return 1
    ledger = "" if auto_charges is None else f" and {len(auto_charges)} identical ledger charges"
    print(f"kernel parity: {label}: {len(auto_edges)} identical spanner edges{ledger}")
    print(
        f"kernel parity: {label}: identical stretch reports "
        f"({CERTIFICATE_SOURCES} sources, {auto_report['pairs_checked']} pairs checked)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
