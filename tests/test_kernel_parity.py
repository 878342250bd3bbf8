"""Tests for the kernel parity gate (``scripts/kernel_parity.py``)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro.kernels as kernels

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "kernel_parity.py"


def run_gate(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT_PATH), *args], capture_output=True, text=True
    )


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
def test_spanners_match_past_the_traversal_threshold():
    # Just past the threshold, so ``auto`` really runs the compiled traversal.
    size = kernels.AUTO_MIN_TRAVERSAL_VERTICES
    proc = run_gate("--size", str(size), "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identical spanner edges" in proc.stdout
    # The certificate's distance sweeps take the compiled traversal too.
    assert "identical stretch reports (8 sources" in proc.stdout


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
def test_distributed_spanners_and_ledgers_match_at_the_schedule_threshold():
    # At the threshold ``auto`` runs the array message plane: the array
    # exploration, forests and the program-free trace-backs.
    size = kernels.AUTO_MIN_SCHEDULE_VERTICES
    proc = run_gate("--algorithm", "new-distributed", "--size", str(size), "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identical spanner edges and" in proc.stdout
    assert "identical ledger charges" in proc.stdout


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
def test_surrogate_spanners_match_past_the_traversal_threshold():
    # The Elkin'05 surrogate explores with the centralized engine's traversal.
    size = kernels.AUTO_MIN_TRAVERSAL_VERTICES
    proc = run_gate("--algorithm", "elkin05-surrogate", "--size", str(size), "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identical spanner edges" in proc.stdout


@pytest.mark.skipif(not kernels.numpy_available(), reason="numpy/scipy not installed")
def test_cluster_scan_spanners_match_past_the_traversal_threshold():
    # The [EN17] baseline explores with the centralized engine's traversal,
    # and its host rule walks the compiled path's parent arrays.
    size = kernels.AUTO_MIN_TRAVERSAL_VERTICES
    proc = run_gate("--algorithm", "elkin-neiman-2017", "--size", str(size), "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identical spanner edges" in proc.stdout
    assert "identical stretch reports (8 sources" in proc.stdout


def test_a_graph_without_merges_fails_the_gate():
    # Degree 1 leaves nothing to supercluster: comparing would prove nothing.
    proc = run_gate("--size", "300", "--degree", "1")
    assert proc.returncode == 1
    if kernels.numpy_available():
        assert "no cluster merges" in proc.stdout


def test_a_cluster_scan_graph_without_merges_fails_the_gate():
    # [EN17] reports no superclustered count; its merges come from the
    # clusters that joined a sampled host, and an edgeless graph has none.
    proc = run_gate("--algorithm", "elkin-neiman-2017", "--size", "300", "--degree", "0")
    assert proc.returncode == 1
    if kernels.numpy_available():
        assert "no cluster merges" in proc.stdout
