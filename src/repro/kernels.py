"""Kernel backend selection: pure-Python loops vs NumPy/SciPy vectorized sweeps.

The hot kernels of the reproduction -- the distance vectors behind the
stretch evaluator and the cluster radii, the exploration phases' message
plane, the BFS forests, the centralized engine's per-center exploration --
exist in two implementations:

* the historical **pure-Python** loops over flat ``array('q')`` buffers (the
  only implementation until PR 7, and still the only one when NumPy is not
  installed); and
* a **vectorized** tier of two array paths: blocked NumPy reductions over
  zero-copy views of the same CSR buffers (``CSRGraph.indptr_np`` /
  ``adj_np``) for the message plane, and SciPy's compiled graph traversals
  over the ``CSRGraph.scipy_csr()`` handle for the per-center sweeps and
  the distance vectors.  It is what pushes the capacity ladder to
  n >= 100k.

This module is the single switch deciding which one runs.  Selection rules:

* ``REPRO_KERNEL`` environment variable or :func:`set_kernel` picks the mode:
  ``python`` (always pure Python), ``numpy`` (always vectorized) or ``auto``
  (the default);
* ``auto`` selects each array path from its own threshold up and the
  pure-Python loops below, so small graphs (every golden workload, every
  tier-1 test default) run the historical loops bit-for-bit.  Every caller
  names its threshold to :func:`use_numpy`: the fault-free exploration
  phases and BFS forests :data:`AUTO_MIN_SCHEDULE_VERTICES`; the
  centralized engine's per-center traversal and the distance layer's
  vectors (one predicate, ``graphs.distances.array_vectors``, which
  ``DistanceCache``, the cluster radii and the stretch, additive-term and
  histogram loops read too) :data:`AUTO_MIN_TRAVERSAL_VERTICES`;
* when NumPy/SciPy are missing (they are an *optional* extra:
  ``pip install .[fast]``), every mode silently resolves to ``python``.

Both backends produce **identical values** -- identical BFS distances,
partitions, stretch reports, exploration knowledge, ledger charges, tracer
events and spanners (the equivalence property tests in
``tests/graphs/test_kernel_backends.py`` and
``tests/primitives/test_exploration.py`` pin this on random workloads) -- so
golden protocol counters never depend on the backend.  The switch only moves
wall-clock.

NumPy and SciPy are imported lazily on first use, never at import time, so
the pure-Python tier works on a bare interpreter; :func:`require_numpy`
imports NumPy alone, SciPy waits for the first scipy CSR handle, and
:func:`require_csgraph` imports the compiled traversals.
"""

from __future__ import annotations

import os
from typing import Optional

#: Recognised kernel modes (the ``--kernel`` CLI choices).
KERNEL_PYTHON = "python"
KERNEL_NUMPY = "numpy"
KERNEL_AUTO = "auto"
KERNEL_MODES = (KERNEL_PYTHON, KERNEL_NUMPY, KERNEL_AUTO)

#: Environment override consulted when :func:`set_kernel` was never called
#: (also how ``--kernel`` propagates into experiment worker processes).
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: ``auto`` threshold of the array message plane: fault-free exploration
#: phases (Algorithm 1) run as blocked NumPy first-arrival reductions, and
#: fault-free BFS forests as array frontiers, from this many vertices up.
#: Measured on sparse_gnp degree-16 distributed builds (median of 9 builds
#: per size, 2-vCPU VM), the array exploration takes 0.91x of the
#: per-broadcast form's build time at n=512, 0.76x at 1024 and 2048 and
#: 0.59x at 4096.  The array forests take 0.65-0.84x of the per-broadcast
#: forests' time at n=1024, 0.57-0.69x at 2048 and 0.44-0.51x at 4096
#: (median of 24 builds per size and kernel, two runs each).  At 2048 the
#: ~45 ms the exploration saves per build repays the one-off ~65 ms NumPy
#: import from the second build on; below it, a small build would pay the
#: import for a few milliseconds.  It is separate from
#: :data:`AUTO_MIN_TRAVERSAL_VERTICES` because the message plane needs NumPy
#: alone, while the compiled traversal pays the larger SciPy import.
AUTO_MIN_SCHEDULE_VERTICES = 2048

#: ``auto`` threshold of SciPy's compiled breadth-first traversal: the
#: centralized engine's exploration (Algorithm 1) runs its per-center sweeps
#: on it, and the distance layer (``DistanceCache``, hence every stretch
#: certificate, and the cluster radii) its single-source sweeps, from this
#: many vertices up.  Per source, on sparse_gnp degree 16 (2-vCPU VM), the
#: traversal plus the pointer doubling that turns its predecessors into hop
#: counts takes 0.28x of the CPython loop's time at n=512, 0.17x at 4096,
#: 0.16x at 8192 and 0.24x at 20000.  Measured on sparse_gnp degree-16
#: new-centralized builds (median of 10 per size, in process, 2-vCPU VM), the
#: engine's traversal takes 0.63x of the CPython loop's build time at n=1024,
#: 0.41x at 2048, 0.40x at 4096, 0.28x at 8192, 0.23x at 12000 and 16384 and
#: 0.25x at 20000.  The one-off import of NumPy, scipy.sparse and
#: scipy.sparse.csgraph costs 0.25-0.43 s and 45 MB of resident memory.  At
#: 8192 a build saves ~190 ms, so the import is repaid from the second build
#: on; at 4096 (~47 ms saved) it would take six to nine builds.  The
#: central-20k benchmark (n=20000) takes the traversal, its certificate
#: included; congest-4k and the 512-vertex serve catalogue stay below.
AUTO_MIN_TRAVERSAL_VERTICES = 8192

#: Largest ``n * k`` (vertices times centers) for which the array tier of
#: Algorithm 1 keeps its knowledge as a dense boolean table over (receiver,
#: center index): 4 MB at the cap.  Each delivery block then drops the known
#: pairs with one gather instead of binary searches in a growing sorted key
#: array.  Above the cap, which the phase-0 exploration (every vertex a
#: center) passes from n = 2049 on, the sorted keys stay.  On sparse_gnp
#: n=4096 degree-16 distributed builds (8 graphs, 16 builds per run, two
#: runs per cap, 2-vCPU VM), raising the cap to ``1 << 24`` put phase 0 on
#: the 16 MB table: phase 0 took 17-19 ms instead of 24-28 ms (3-4% of the
#: build), and the process's peak RSS rose from 104.0 to 112.7 MB (+8%).
DENSE_KNOWLEDGE_MAX_CELLS = 1 << 22

_requested: Optional[str] = None
_numpy_modules: Optional[tuple] = None
_numpy_module = None
# Set when numpy or scipy failed to import: the vectorized tier is then off.
_numpy_failed = False
_numpy_installed: Optional[bool] = None


def numpy_available() -> bool:
    """Whether the vectorized tier can run (NumPy *and* SciPy import)."""
    return _modules() is not None


def _installed() -> bool:
    """Cheap installability probe: ``find_spec`` only, no module execution.

    Backend *selection* must not pay the several-hundred-ms numpy+scipy
    import (it runs at algorithm-registry import time and on every small
    pure-Python workload); the real import happens in :func:`require_numpy`
    at first vectorized use.  A package that is installed but broken
    therefore surfaces as a ``require_numpy`` error instead of a silent
    pure-Python fallback.
    """
    global _numpy_installed
    if _numpy_modules is not None:
        return True
    if _numpy_failed:
        return False
    if _numpy_installed is None:
        import importlib.util

        try:
            _numpy_installed = (
                importlib.util.find_spec("numpy") is not None
                and importlib.util.find_spec("scipy") is not None
            )
        except (ImportError, ValueError):
            _numpy_installed = False
    return _numpy_installed


def _modules() -> Optional[tuple]:
    """Lazily import (numpy, scipy.sparse); ``None`` when either is missing."""
    global _numpy_modules, _numpy_failed
    if _numpy_modules is None and not _numpy_failed:
        numpy = _numpy()
        if numpy is not None:
            try:
                import scipy.sparse
            except ImportError:
                _numpy_failed = True
            else:
                _numpy_modules = (numpy, scipy.sparse)
    return _numpy_modules


def _numpy():
    """Lazily import numpy alone; ``None`` when it is missing."""
    global _numpy_module, _numpy_failed
    if _numpy_module is None and not _numpy_failed:
        try:
            import numpy
        except ImportError:
            _numpy_failed = True
        else:
            _numpy_module = numpy
    return _numpy_module


def require_numpy():
    """The ``numpy`` module (the vectorized kernels' single import point).

    Only NumPy is imported: kernels that work on the zero-copy CSR views
    never pay the SciPy import, which :func:`require_scipy_sparse` defers to
    the first ``CSRGraph.scipy_csr()`` call.
    """
    numpy = _numpy()
    if numpy is None:
        raise RuntimeError(
            "the vectorized kernel tier needs numpy+scipy "
            "(pip install 'repro-near-additive-spanners[fast]')"
        )
    return numpy


def require_scipy_sparse():
    """The ``scipy.sparse`` module (for the CSR matrix handle)."""
    modules = _modules()
    if modules is None:
        raise RuntimeError(
            "the scipy CSR handle needs numpy+scipy "
            "(pip install 'repro-near-additive-spanners[fast]')"
        )
    return modules[1]


def require_csgraph():
    """The ``scipy.sparse.csgraph`` module (the compiled graph traversals)."""
    require_scipy_sparse()
    import scipy.sparse.csgraph

    return scipy.sparse.csgraph


def set_kernel(mode: str) -> None:
    """Select the kernel mode for this process and its worker children.

    The mode is mirrored into :data:`KERNEL_ENV_VAR` so experiment pipelines
    spawning ``ProcessPoolExecutor`` workers resolve the same backend (task
    results are backend-independent, but A/B wall-clock runs should not mix
    tiers mid-suite).
    """
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; choose from {KERNEL_MODES}")
    global _requested
    _requested = mode
    os.environ[KERNEL_ENV_VAR] = mode


def kernel_mode() -> str:
    """The requested mode: :func:`set_kernel` value, else env var, else auto."""
    if _requested is not None:
        return _requested
    env = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    return env if env in KERNEL_MODES else KERNEL_AUTO


def active_backend(
    num_vertices: Optional[int] = None,
    min_vertices: int = AUTO_MIN_TRAVERSAL_VERTICES,
) -> str:
    """Resolve the backend (``python`` or ``numpy``) for a workload size.

    ``num_vertices=None`` asks for the large-``n`` resolution (what ``auto``
    picks once past the threshold) -- the value capacity ladders stamp.
    ``min_vertices`` is the kernel's ``auto`` threshold.  The default,
    :data:`AUTO_MIN_TRAVERSAL_VERTICES`, is the higher of the two: a graph
    at or past it runs every array path.
    """
    mode = kernel_mode()
    if mode == KERNEL_PYTHON:
        return KERNEL_PYTHON
    if (
        mode == KERNEL_AUTO
        and num_vertices is not None
        and num_vertices < min_vertices
    ):
        # Decided by size alone -- must not touch the import machinery.
        return KERNEL_PYTHON
    return KERNEL_NUMPY if _installed() else KERNEL_PYTHON


def use_numpy(num_vertices: int, min_vertices: int) -> bool:
    """Whether the vectorized tier handles a graph of ``num_vertices``.

    ``min_vertices`` is the kernel's ``auto`` threshold:
    :data:`AUTO_MIN_SCHEDULE_VERTICES` for the exploration phases and
    BFS forests,
    :data:`AUTO_MIN_TRAVERSAL_VERTICES` for the compiled traversal: the
    centralized engine's per-center sweeps and the distance layer's vectors
    (read through ``graphs.distances.array_vectors``, never re-derived).
    """
    return active_backend(num_vertices, min_vertices) == KERNEL_NUMPY
