"""Backend-equivalence property tests for the vectorized kernel tier (PR 7).

The pure-Python and NumPy/SciPy kernels must produce **identical values** --
not merely statistically equivalent ones -- because golden protocol counters
and spanner digests are diffed bit-for-bit across snapshots.  These tests pin
that contract on random workloads: every public entry point that reads the
kernel (distance vectors/histograms, cluster radii, stretch reports, the
centralized exploration/trace-back pair, and a whole engine build) is run
under both backends and the results compared with plain ``==``.  Functions
with one implementation (``bfs_distances``, ``vertex_to_center``, the
partition check) are tested once, in ``test_bfs.py`` and
``test_cluster_table.py``.

Also covered here: the :mod:`repro.kernels` selector rules, the zero-copy
NumPy/SciPy CSR views and their invalidation through the ``Graph.version``
contract, and the :class:`DistanceCache` backend-switch behaviour.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.kernels as kernels
from repro.analysis.stretch import empirical_additive_term, evaluate_stretch
from repro.congest import RecordingTracer, Simulator
from repro.core import build_spanner
from repro.experiments import default_parameters
from repro.core.parameters import StretchGuarantee
from repro.graphs import Graph, disjoint_union, gnp_random_graph, sparse_gnp_random_graph
from repro.graphs.bfs import bfs_distances
from repro.graphs.distances import distance_histogram, single_source_distances
from repro.primitives.exploration import centralized_engine_exploration
from repro.primitives.traceback import centralized_traceback_flat

from reference_programs import flat_clusters

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy/scipy not installed"
)

INF = float("inf")


def _run_isolated(code):
    """Run ``code`` in a fresh interpreter on this checkout's ``src``."""
    src = Path(__file__).resolve().parents[2] / "src"
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )


def both_backends(kernel, fn):
    """Run ``fn`` under the pure-Python and the numpy kernel; return both."""
    kernel(kernels.KERNEL_PYTHON)
    python_result = fn()
    kernel(kernels.KERNEL_NUMPY)
    numpy_result = fn()
    return python_result, numpy_result


def workload(n, p, seed):
    return gnp_random_graph(n, p, seed=seed)


def voronoi_clusters(graph, centers):
    """Nearest-reachable-center partition (unreached vertices go singleton)."""
    dist = {c: bfs_distances(graph, c) for c in centers}
    vertex_center = {}
    for v in range(graph.num_vertices):
        best = min(
            ((dist[c].get(v, INF), c) for c in centers), key=lambda t: (t[0], t[1])
        )
        vertex_center[v] = best[1] if best[0] < INF else v
    return flat_clusters(graph.num_vertices, vertex_center)


# ----------------------------------------------------------------------
# BFS / distance kernels
# ----------------------------------------------------------------------
class TestBFSEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_single_source_vectors_match(self, kernel, seed):
        graph = workload(70, 0.05, seed)
        for source in (0, 13, 69):
            py, np_ = both_backends(
                kernel, lambda s=source: list(single_source_distances(graph, s))
            )
            assert py == np_

    def test_distance_histogram_matches(self, kernel):
        graph = workload(60, 0.06, seed=4)
        py, np_ = both_backends(
            kernel, lambda: distance_histogram(graph, max_sources=20, seed=1)
        )
        assert py == np_


# ----------------------------------------------------------------------
# The distance layer at the traversal threshold
# ----------------------------------------------------------------------
def python_and_auto(kernel, fn):
    """Run ``fn`` under the pure-Python kernel and under ``auto``."""
    kernel(kernels.KERNEL_PYTHON)
    python_result = fn()
    kernel(kernels.KERNEL_AUTO)
    auto_result = fn()
    return python_result, auto_result


def threshold_graph(seed):
    """A sparse_gnp giant part, a small far component and two isolated
    vertices: ``AUTO_MIN_TRAVERSAL_VERTICES`` vertices in all."""
    n = kernels.AUTO_MIN_TRAVERSAL_VERTICES
    big = n - 62
    return disjoint_union(
        [
            sparse_gnp_random_graph(big, 16 / (big - 1), seed=seed),
            sparse_gnp_random_graph(60, 0.1, seed=seed),
            Graph(2),
        ]
    )


class TestDistancesAtTheTraversalThreshold:
    N = kernels.AUTO_MIN_TRAVERSAL_VERTICES

    @staticmethod
    def _vectors(kernel, graph, sources):
        def run():
            vectors = [single_source_distances(graph, s) for s in sources]
            return [type(vec) is list for vec in vectors], [list(vec) for vec in vectors]

        (py_lists, py), (auto_lists, auto) = python_and_auto(kernel, run)
        assert all(py_lists) and not any(auto_lists)
        return py, auto

    def test_sparse_gnp_vectors_match(self, kernel):
        graph = sparse_gnp_random_graph(self.N, 16 / (self.N - 1), seed=3)
        py, auto = self._vectors(kernel, graph, (0, 4097, self.N - 1))
        assert py == auto

    def test_unreachable_entries_match(self, kernel):
        graph = threshold_graph(seed=5)
        isolated = self.N - 1
        py, auto = self._vectors(kernel, graph, (0, self.N - 30, isolated))
        assert py == auto
        assert py[0][self.N - 30] == INF and py[1][0] == INF
        assert py[2].count(INF) == self.N - 1 and py[2][isolated] == 0.0

    def test_long_path_vectors_match(self, kernel):
        # Eccentricity n-1: the pointer doubling needs its most rounds here.
        graph = Graph(self.N, [(v, v + 1) for v in range(self.N - 1)])
        py, auto = self._vectors(kernel, graph, (0, self.N // 3, self.N - 1))
        assert py == auto
        assert py[0] == [float(v) for v in range(self.N)]

    def test_single_vertex_under_the_numpy_kernel(self, kernel, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, kernels.KERNEL_NUMPY)
        vec = single_source_distances(Graph(1), 0)
        assert type(vec) is not list and list(vec) == [0.0]

    def test_stretch_readers_match(self, kernel):
        graph = threshold_graph(seed=7)
        spanner = build_spanner(
            graph, parameters=default_parameters(), engine="centralized"
        ).spanner
        assert spanner.num_edges < graph.num_edges
        sources = (0, 9, 2048, self.N - 40, self.N - 2, self.N - 1)
        pairs = [(s, v) for s in sources for v in range(self.N) if v != s]
        # A deliberately unsatisfiable guarantee so violations are exercised.
        guarantee = StretchGuarantee(multiplicative=1.0, additive=0.0)

        def run():
            graph.distance_cache().clear()
            spanner.distance_cache().clear()
            report = evaluate_stretch(graph, spanner, guarantee=guarantee, pairs=pairs)
            return (
                report.to_dict(),
                empirical_additive_term(graph, spanner, 1.0, pairs=pairs),
                distance_histogram(graph, max_sources=6, seed=2),
            )

        py, auto = python_and_auto(kernel, run)
        assert py == auto
        assert py[0]["num_violations"] > 0 and py[0]["pairs_checked"] > 0

    def test_cluster_radii_match(self, kernel):
        # Under auto the radius reader takes the compiled distance vectors.
        graph = threshold_graph(seed=5)
        snapshot = voronoi_clusters(graph, centers=[0, 9, 2048, self.N - 40])
        py, auto = python_and_auto(kernel, lambda: snapshot.max_radius_in(graph))
        assert py == auto
        assert type(auto) is int and auto > 0

    def test_unreachable_cluster_member_raises_on_both(self, kernel):
        graph = threshold_graph(seed=5)
        far = self.N - 30
        cluster = flat_clusters(self.N, {0: 0, 9: 0, far: 0})

        def run():
            with pytest.raises(ValueError, match="unreachable") as info:
                cluster.max_radius_in(graph)
            return str(info.value)

        py, auto = python_and_auto(kernel, run)
        assert py == auto == f"vertex {far} of the cluster centered at 0 is unreachable"


# ----------------------------------------------------------------------
# Cluster-table bulk queries
# ----------------------------------------------------------------------
class TestClusterEquivalence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_bulk_queries_match(self, kernel, seed):
        graph = workload(80, 0.05, seed)
        snapshot = voronoi_clusters(graph, centers=[0, 11, 37, 62])
        n = graph.num_vertices
        clusters = [
            flat_clusters(n, dict.fromkeys(snapshot.members_of(i), snapshot.center(i)))
            for i in range(len(snapshot))
        ]

        def query():
            return {
                "max_radius": snapshot.max_radius_in(graph),
                "radii": [cluster.max_radius_in(graph) for cluster in clusters],
            }

        py, np_ = both_backends(kernel, query)
        assert py == np_


# ----------------------------------------------------------------------
# Stretch evaluation
# ----------------------------------------------------------------------
class TestStretchEquivalence:
    @pytest.mark.parametrize("seed", [1, 6])
    def test_reports_match_exactly(self, kernel, seed):
        graph = workload(70, 0.07, seed)
        spanner = build_spanner(
            graph, parameters=default_parameters(), engine="centralized"
        ).spanner
        # A deliberately unsatisfiable guarantee so violations are exercised.
        guarantee = StretchGuarantee(multiplicative=1.0, additive=0.0)

        def run():
            fresh = evaluate_stretch(graph, spanner, guarantee=guarantee)
            return {
                "checked": fresh.pairs_checked,
                "max_mult": fresh.max_multiplicative,
                "max_add": fresh.max_additive_surplus,
                "mean_mult": fresh.mean_multiplicative,
                "mean_add": fresh.mean_additive_surplus,
                "violations": fresh.violations,
                "disconnected": fresh.disconnected_mismatches,
                "surplus": fresh.surplus_by_distance,
            }

        py, np_ = both_backends(kernel, run)
        assert py == np_

    def test_empirical_additive_term_matches(self, kernel):
        graph = workload(60, 0.08, seed=2)
        spanner = build_spanner(
            graph, parameters=default_parameters(), engine="centralized"
        ).spanner
        py, np_ = both_backends(
            kernel, lambda: empirical_additive_term(graph, spanner, 1.0)
        )
        assert py == np_


# ----------------------------------------------------------------------
# Centralized exploration + trace-back
# ----------------------------------------------------------------------
def exploration_outcome(graph, centers, depth, cap):
    """Near centers, parents (int lists), popular set and trace-back edges."""
    exploration = centralized_engine_exploration(graph, centers, depth=depth, cap=cap)
    near = {c: list(v) for c, v in exploration.near_centers.items()}
    parents = {c: [int(p) for p in v] for c, v in exploration.parents.items()}
    edges = centralized_traceback_flat(exploration, near)
    return near, parents, exploration.popular, sorted(edges)


class TestExplorationEquivalence:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_exploration_and_traceback_match(self, kernel, depth):
        graph = workload(80, 0.06, seed=3)
        centers = [0, 9, 25, 44, 71]
        requests = {0: [25, 44], 9: [0], 44: [71]}

        def run():
            exploration = centralized_engine_exploration(
                graph, centers, depth=depth, cap=10
            )
            near = {c: list(v) for c, v in exploration.near_centers.items()}
            parents = {c: list(v) for c, v in exploration.parents.items()}
            reachable = {
                c: [t for t in targets if t in near[c]]
                for c, targets in requests.items()
            }
            edges = centralized_traceback_flat(exploration, reachable)
            return near, parents, sorted(edges)

        py, np_ = both_backends(kernel, run)
        assert py == np_
        # The trace-back edges feed JSON digests: no numpy scalars may leak.
        for edge in np_[2]:
            assert all(type(endpoint) is int for endpoint in edge)


    @pytest.mark.parametrize("seed", range(6))
    def test_random_workloads_match(self, kernel, seed):
        # Several components plus isolated vertices, random centers in all of
        # them, and depths from 0 up past the components' diameters.
        rng = random.Random(seed)
        parts = [
            sparse_gnp_random_graph(rng.randint(20, 90), rng.uniform(0.02, 0.12), seed=seed + k)
            for k in range(rng.randint(1, 3))
        ]
        graph = disjoint_union(parts + [Graph(rng.randint(0, 4))])
        centers = rng.sample(range(graph.num_vertices), rng.randint(1, graph.num_vertices // 3))
        for depth in (0, 1, 2, rng.randint(3, 12)):
            py, np_ = both_backends(
                kernel, lambda d=depth: exploration_outcome(graph, centers, d, cap=3)
            )
            assert py == np_
            _near, parents, _popular, edges = np_
            assert all(min(parent) >= -1 for parent in parents.values())
            assert all(type(endpoint) is int for edge in edges for endpoint in edge)


class TestEngineEquivalence:
    def test_centralized_build_is_backend_independent(self, kernel):
        graph = workload(150, 0.04, seed=9)

        def run():
            result = build_spanner(
                graph, parameters=default_parameters(), engine="centralized"
            )
            return result.nominal_rounds, sorted(result.spanner.edge_set())

        py, np_ = both_backends(kernel, run)
        assert py == np_

    def test_distributed_build_is_backend_independent(self, kernel):
        graph = workload(300, 0.03, seed=5)

        def run():
            tracer = RecordingTracer()
            result = build_spanner(
                graph,
                parameters=default_parameters(),
                engine="distributed",
                simulator=Simulator(graph, tracer=tracer),
            )
            return sorted(result.spanner.edge_set()), result.ledger.charges, tracer.events

        py, np_ = both_backends(kernel, run)
        assert py == np_


# ----------------------------------------------------------------------
# CSR views and the Graph.version invalidation contract
# ----------------------------------------------------------------------
class TestCSRViews:
    def test_numpy_views_are_zero_copy_and_read_only(self):
        graph = workload(30, 0.2, seed=0)
        csr = graph.csr()
        indptr, adj = csr.indptr_np, csr.adj_np
        assert not indptr.flags.writeable and not adj.flags.writeable
        assert list(indptr) == list(csr.indptr)
        assert list(adj) == list(csr.adj)

    def test_scipy_handle_is_cached_per_snapshot(self):
        csr = workload(30, 0.2, seed=0).csr()
        assert csr.scipy_csr() is csr.scipy_csr()

    def test_scipy_handle_is_read_by_csgraph_without_conversion(self):
        np = kernels.require_numpy()
        csr = workload(30, 0.2, seed=0).csr()
        matrix = csr.scipy_csr()
        # float64 is csgraph's working dtype, so its validation keeps the
        # matrix as is; the unit data is one broadcast value, not an array.
        assert matrix.dtype == np.float64
        assert matrix.astype(np.float64, copy=False) is matrix
        assert matrix.data.shape == (len(csr.adj),)
        assert matrix.data.strides == (0,) and not matrix.data.flags.writeable
        assert matrix.data[0] == 1.0
        assert np.shares_memory(matrix.indices, csr.adj_np)

    def test_graph_version_invalidates_the_scipy_view(self, kernel):
        kernel(kernels.KERNEL_NUMPY)
        graph = gnp_random_graph(20, 0.0, seed=0)
        graph.add_edges([(0, 1), (1, 2)])
        before = graph.csr()
        matrix = before.scipy_csr()
        assert matrix.nnz == 2 * graph.num_edges
        version = graph.version
        assert graph.add_edge(2, 3)
        assert graph.version > version
        after = graph.csr()
        assert after is not before
        fresh = after.scipy_csr()
        assert fresh is not matrix
        assert fresh.nnz == matrix.nnz + 2
        # The stale snapshot keeps its (frozen) pre-mutation view.
        assert matrix.nnz == 4


class TestDistanceCacheBackendSwitch:
    def test_vectors_are_invalidated_on_kernel_switch(self, kernel):
        graph = workload(25, 0.2, seed=1)
        cache = graph.distance_cache()
        kernel(kernels.KERNEL_PYTHON)
        python_vec = cache.vector(0)
        assert isinstance(python_vec, list)
        kernel(kernels.KERNEL_NUMPY)
        numpy_vec = cache.vector(0)
        assert not isinstance(numpy_vec, list)  # ndarray from the fresh sweep
        assert list(python_vec) == list(numpy_vec)
        # Memoized per backend: repeated reads return the same object.
        assert cache.vector(0) is numpy_vec


# ----------------------------------------------------------------------
# Selector rules
# ----------------------------------------------------------------------
class TestKernelSelector:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_kernel("fortran")

    def test_explicit_modes_override_size(self, kernel):
        kernel(kernels.KERNEL_PYTHON)
        assert kernels.active_backend(10**9) == "python"
        assert not kernels.use_numpy(10**9, kernels.AUTO_MIN_SCHEDULE_VERTICES)
        kernel(kernels.KERNEL_NUMPY)
        assert kernels.active_backend(1) == "numpy"
        assert kernels.use_numpy(1, kernels.AUTO_MIN_TRAVERSAL_VERTICES)

    def test_auto_threshold(self, kernel):
        kernel(kernels.KERNEL_AUTO)
        # The default threshold is the compiled traversal's.
        threshold = kernels.AUTO_MIN_TRAVERSAL_VERTICES
        assert kernels.active_backend(threshold - 1) == "python"
        assert kernels.active_backend(threshold) == "numpy"
        assert kernels.active_backend(threshold + 1) == "numpy"
        # The stamping resolution (num_vertices=None) is the large-n answer.
        assert kernels.active_backend() == "numpy"

    def test_auto_schedule_threshold(self, kernel):
        kernel(kernels.KERNEL_AUTO)
        threshold = kernels.AUTO_MIN_SCHEDULE_VERTICES
        assert threshold < kernels.AUTO_MIN_TRAVERSAL_VERTICES
        assert not kernels.use_numpy(threshold - 1, threshold)
        assert kernels.use_numpy(threshold, threshold)

    def test_auto_traversal_threshold(self, kernel):
        kernel(kernels.KERNEL_AUTO)
        threshold = kernels.AUTO_MIN_TRAVERSAL_VERTICES
        # central-20k (n=20000) engages it, the 512-vertex serve catalogue
        # stays far below it.
        assert 4 * 512 <= threshold <= 20000
        assert not kernels.use_numpy(threshold - 1, threshold)
        assert kernels.use_numpy(threshold, threshold)

    def test_env_var_resolution(self, kernel, monkeypatch):
        monkeypatch.setattr(kernels, "_requested", None)
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "python")
        assert kernels.kernel_mode() == "python"
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "not-a-mode")
        assert kernels.kernel_mode() == kernels.KERNEL_AUTO

    def test_small_auto_workloads_never_import_numpy(self):
        # Backend selection (and a whole small-graph build, registry hints
        # included) must not pay the numpy+scipy import: selection uses a
        # find_spec probe, the real import happens at first vectorized use.
        code = (
            "import sys\n"
            "from repro.kernels import active_backend\n"
            "assert active_backend(100) == 'python'\n"
            "import repro\n"
            "from repro.graphs import gnp_random_graph\n"
            "result = repro.build('new-centralized', gnp_random_graph(40, 0.15, seed=1))\n"
            "assert result.spanner.num_edges > 0\n"
            # The exploration phases' array tier has its own, lower threshold.
            "from repro.graphs import sparse_gnp_random_graph\n"
            "from repro.kernels import AUTO_MIN_SCHEDULE_VERTICES\n"
            "n = AUTO_MIN_SCHEDULE_VERTICES - 1\n"
            "graph = sparse_gnp_random_graph(n, 8 / n, seed=1)\n"
            "result = repro.build('new-distributed', graph, seed=1)\n"
            "assert result.spanner.num_edges > 0\n"
            # So has the centralized engine's compiled traversal.
            "from repro.kernels import AUTO_MIN_TRAVERSAL_VERTICES\n"
            "n = AUTO_MIN_TRAVERSAL_VERTICES - 1\n"
            "graph = sparse_gnp_random_graph(n, 16 / n, seed=3)\n"
            "result = repro.build('new-centralized', graph, seed=3)\n"
            "assert result.spanner.num_edges < graph.num_edges\n"
            # So are the certificate's distance vectors and their readers.
            "from repro.analysis.stretch import evaluate_stretch\n"
            "from repro.graphs.distances import distance_histogram\n"
            "pairs = [(s, v) for s in (0, 1) for v in range(n) if v != s]\n"
            "report = evaluate_stretch(graph, result.spanner, pairs=pairs)\n"
            "assert report.pairs_checked > 0\n"
            "assert distance_histogram(result.spanner, max_sources=2, seed=1)\n"
            # And the cluster radii and the Corollary 2.5 partition check.
            "engine = result.source\n"
            "assert [c.max_radius_in(engine.spanner) for c in engine.cluster_history]\n"
            "assert engine.unclustered_partitions_vertices()\n"
            "assert 'numpy' not in sys.modules, 'numpy imported on a small pure-Python workload'\n"
            "assert 'scipy' not in sys.modules, 'scipy imported on a small pure-Python workload'\n"
        )
        proc = _run_isolated(code)
        assert proc.returncode == 0, proc.stderr

    def test_require_numpy_does_not_import_scipy(self):
        # Kernels over the zero-copy CSR views need NumPy only; SciPy is
        # imported by the first scipy_csr() call.
        code = (
            "import sys\n"
            "from repro.kernels import require_numpy, require_scipy_sparse\n"
            "require_numpy()\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'scipy' not in sys.modules, 'require_numpy imported scipy'\n"
            "require_scipy_sparse()\n"
            "assert 'scipy.sparse' in sys.modules\n"
        )
        proc = _run_isolated(code)
        assert proc.returncode == 0, proc.stderr

    def test_set_kernel_mirrors_into_the_environment(self, kernel, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        import os

        kernels.set_kernel("numpy")
        try:
            assert os.environ[kernels.KERNEL_ENV_VAR] == "numpy"
            assert kernels.kernel_mode() == "numpy"
        finally:
            monkeypatch.setattr(kernels, "_requested", None)
