"""Tests for the scale tier: large-n families, growth checks and pinned budgets."""

from __future__ import annotations

import time

import pytest

from repro import build_spanner, kernels
from repro.experiments import default_parameters, get_spec, run_scenario
from repro.experiments.scaling import growth_merge
from repro.graphs import make_workload


class TestScalingGrowthScenario:
    @pytest.fixture(scope="class")
    def record(self):
        spec = get_spec("scaling-growth").with_defaults(
            families=["sparse_gnp", "powerlaw"], sizes=[48, 96]
        )
        return run_scenario(spec)

    def test_all_growth_checks_pass(self, record):
        assert record.all_checks_passed, record.checks
        assert set(record.checks) == {
            "rounds-within-declared-bound",
            "rounds-growth-within-phase-bound",
            "messages-within-bandwidth-bound",
            "messages-grow-subquadratically",
        }

    def test_per_family_series_and_exponents(self, record):
        for family in ("sparse_gnp", "powerlaw"):
            assert record.series[f"n[{family}]"] == [48.0, 96.0]
            assert len(record.series[f"rounds[{family}]"]) == 2
            assert len(record.series[f"messages[{family}]"]) == 2
            assert family in record.parameters["rounds-exponent-by-family"]

    def test_rows_carry_the_raw_congest_counters(self, record):
        assert len(record.rows) == 4
        for row in record.rows:
            assert row["rounds"] <= row["round_bound"]
            assert row["messages"] > 0
            assert row["simulated_rounds"] > 0


class TestGrowthMergeChecks:
    """The declared-bound checks on synthetic payloads (no builds)."""

    @staticmethod
    def _payload(family, size, rounds, round_bound, messages, simulated, edges):
        return {
            "family": family,
            "size": size,
            "rounds": float(rounds),
            "simulated_rounds": float(simulated),
            "messages": float(messages),
            "graph_edges": float(edges),
            "spanner_edges": float(edges),
            "round_bound": float(round_bound),
            "beta": 8.0,
        }

    _DEFAULTS = {
        "epsilon": 0.25,
        "kappa": 3,
        "rho": 1.0 / 3.0,
        "algorithm": "new-distributed",
    }

    def test_bound_violation_fails_the_check(self):
        payloads = [
            self._payload("f", 100, rounds=5000, round_bound=1000, messages=10,
                          simulated=10, edges=200),
        ]
        record = growth_merge(dict(self._DEFAULTS), payloads)
        assert record.checks["rounds-within-declared-bound"] is False

    def test_superlinear_round_growth_fails_the_phase_bound(self):
        # rounds ~ n^1.5 >> rho + slack.
        payloads = [
            self._payload("f", n, rounds=n ** 1.5, round_bound=10 ** 9,
                          messages=n, simulated=n, edges=2 * n)
            for n in (64, 128, 256, 512)
        ]
        record = growth_merge(dict(self._DEFAULTS), payloads)
        assert record.checks["rounds-within-declared-bound"] is True
        assert record.checks["rounds-growth-within-phase-bound"] is False

    def test_bandwidth_violation_fails_the_check(self):
        # More messages than 2 * m * simulated_rounds is physically impossible
        # in CONGEST; the check must catch an accounting regression.
        payloads = [
            self._payload("f", 100, rounds=10, round_bound=10 ** 6,
                          messages=10 ** 9, simulated=5, edges=100),
        ]
        record = growth_merge(dict(self._DEFAULTS), payloads)
        assert record.checks["messages-within-bandwidth-bound"] is False

    def test_well_behaved_payloads_pass_everything(self):
        payloads = [
            self._payload(family, n, rounds=40 * n ** (1 / 3), round_bound=10 ** 6,
                          messages=6 * n, simulated=n ** 0.5 + 20, edges=3 * n)
            for family in ("a", "b")
            for n in (64, 128, 256)
        ]
        record = growth_merge(dict(self._DEFAULTS), payloads)
        assert record.all_checks_passed, record.checks


class TestScaleTierFamilyScenarios:
    @pytest.mark.parametrize(
        "name", ["family-powerlaw", "family-hyperbolic", "family-torus"]
    )
    def test_family_scenario_checks_pass_at_reduced_scale(self, name):
        spec = get_spec(name).with_defaults(sizes=[48, 80], sample_pairs=40)
        record = run_scenario(spec)
        assert record.all_checks_passed, (name, record.checks)
        assert len(record.series["n"]) == len(record.rows)

    def test_scaling_large_spec_registered_with_scale_tier_tag(self):
        spec = get_spec("scaling-large")
        assert "scale-tier" in spec.tags
        assert spec.defaults["family"] == "sparse_gnp"
        assert max(spec.defaults["sizes"]) >= 4096

    def test_scaling_large_checks_pass_at_reduced_scale(self):
        spec = get_spec("scaling-large").with_defaults(
            sizes=[96, 192, 384], sample_pairs=40
        )
        record = run_scenario(spec)
        assert record.all_checks_passed, record.checks


class TestScaleTierBudgets:
    """Large-n builds under pinned wall-clock budgets.

    The budgets are generous multiples of a laptop's times (so CI hardware
    jitter does not trip them) but tight enough that an accidental O(n^2)
    regression on the large-n path fails outright.
    """

    BUDGET_S = 5.0

    @pytest.fixture(scope="class")
    def graphs_10k(self):
        return {
            family: make_workload(family, 10000, seed=3)
            for family in ("sparse_gnp", "powerlaw", "hyperbolic")
        }

    def _timed_build(self, graph, engine):
        start = time.perf_counter()
        build_spanner(graph, parameters=default_parameters(), engine=engine)
        seconds = time.perf_counter() - start
        assert seconds <= self.BUDGET_S, (
            f"{engine} n={graph.num_vertices} build took {seconds:.2f}s "
            f"(budget {self.BUDGET_S}s)"
        )

    def test_generators_produce_10k_vertex_graphs(self, graphs_10k):
        for family, graph in graphs_10k.items():
            assert graph.num_vertices == 10000, family
            assert graph.num_edges >= 10000, family

    def test_distributed_build_n2000(self):
        self._timed_build(make_workload("sparse_gnp", 2000, seed=3), "distributed")

    def test_centralized_build_n10000(self, graphs_10k):
        self._timed_build(graphs_10k["sparse_gnp"], "centralized")

    def test_centralized_build_n100000(self):
        """The vectorized tier end to end: BFS sweeps, cluster tables and
        exploration on the NumPy/SciPy kernels through a real build."""
        if kernels.active_backend(100_000) != kernels.KERNEL_NUMPY:
            pytest.skip("n=100000 budget is for the vectorized (numpy) tier")
        self._timed_build(make_workload("sparse_gnp", 100000, seed=3), "centralized")
