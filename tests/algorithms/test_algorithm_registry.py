"""Tests for the declarative algorithm registry and the ``build()`` facade."""

from __future__ import annotations

import json

import pytest

from repro import algorithms, build
from repro.algorithms import AlgorithmSpec, RunResult, get_spec, register, select
from repro.core.parameters import StretchGuarantee
from repro.graphs import gnp_random_graph

EXPECTED_ALGORITHMS = {
    "new-centralized",
    "new-distributed",
    "elkin-neiman-2017",
    "elkin-peleg-2001",
    "elkin05-surrogate",
    "baswana-sen",
    "greedy",
    # PR 10 survey siblings.
    "elkin-mst-2017",
    "elkin-matar-linear",
    "elkin-neiman-sparse",
    "eest-low-stretch-tree",
}


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(36, 0.15, seed=3)


class TestBuiltinRegistry:
    def test_every_expected_algorithm_registered(self):
        assert EXPECTED_ALGORITHMS <= set(algorithms.algorithm_names())

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            get_spec("no-such-algorithm")

    def test_select_by_tags(self):
        near_additive = {spec.name for spec in select(tags=("near-additive",))}
        assert near_additive == {
            "new-centralized",
            "new-distributed",
            "elkin-neiman-2017",
            "elkin-peleg-2001",
            "elkin05-surrogate",
            "elkin-matar-linear",
            "elkin-neiman-sparse",
        }
        multiplicative = {spec.name for spec in select(tags=("multiplicative",))}
        assert multiplicative == {"baswana-sen", "greedy"}
        deterministic_congest = {
            spec.name for spec in select(tags=("deterministic", "congest"))
        }
        assert deterministic_congest == {
            "new-distributed",
            "elkin05-surrogate",
            "elkin-mst-2017",
        }
        assert {spec.name for spec in select(tags=("mst",))} == {"elkin-mst-2017"}

    def test_select_engines_sort_first(self):
        names = [spec.name for spec in select()]
        assert names[:2] == ["new-centralized", "new-distributed"]

    def test_select_consults_capability_hints(self):
        # The committed measured ladder (src/repro/algorithms/CAPACITY.json)
        # gives every registered algorithm a finite max_practical_vertices
        # hint; select() must gate on the hints uniformly, whatever their
        # measured values are on the reference machine.
        specs = algorithms.all_specs()
        assert all(spec.max_practical_vertices for spec in specs)
        bounded = min(specs, key=lambda spec: spec.max_practical_vertices)
        cap = bounded.max_practical_vertices
        assert bounded.name in {spec.name for spec in select(max_vertices=cap)}
        assert bounded.name not in {
            spec.name for spec in select(max_vertices=cap + 1)
        }
        # Everything is practical at toy sizes.
        assert {spec.name for spec in select(max_vertices=50)} == {
            spec.name for spec in specs
        }

    def test_measured_hints_come_from_committed_ladder(self):
        # The hand-set fallbacks (greedy 400, distributed 300) must have been
        # replaced by the committed capacity-ladder measurements.
        from repro.algorithms.builtin import (
            MEASURED_CAPACITY_PATH,
            measured_capacity_hints,
        )

        ladder = json.loads(MEASURED_CAPACITY_PATH.read_text(encoding="utf-8"))
        assert ladder["schema"] == "capacity-ladder/v1"
        hints = measured_capacity_hints()
        assert set(hints) == set(ladder["entries"]) == EXPECTED_ALGORITHMS
        for name, spec in ((s.name, s) for s in algorithms.all_specs()):
            assert spec.max_practical_vertices == hints[name]

    def test_stale_backend_ladder_warns_once_but_hints_survive(
        self, monkeypatch, tmp_path
    ):
        # A ladder measured under the *other* kernel backend is stale: the
        # hints stay in use (best available estimate) but the first read
        # raises one RuntimeWarning; the cache absorbs repeat calls.
        import warnings

        from repro.algorithms import builtin
        from repro.kernels import active_backend

        other = "numpy" if active_backend() == "python" else "python"
        ladder = {
            "schema": "capacity-ladder/v1",
            "kernel_backend": other,
            "entries": {"greedy": {"max_practical_vertices": 123}},
        }
        path = tmp_path / "CAPACITY.json"
        path.write_text(json.dumps(ladder), encoding="utf-8")
        monkeypatch.setattr(builtin, "MEASURED_CAPACITY_PATH", path)
        monkeypatch.setattr(builtin, "_measured_hints_cache", None)
        with pytest.warns(RuntimeWarning, match="stale"):
            assert builtin.measured_capacity_hints() == {"greedy": 123}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert builtin.measured_capacity_hints() == {"greedy": 123}

    def test_unstamped_or_matching_ladders_do_not_warn(self, monkeypatch, tmp_path):
        import warnings

        from repro.algorithms import builtin
        from repro.kernels import active_backend

        for stamp in ({}, {"kernel_backend": active_backend()}):
            ladder = {
                "schema": "capacity-ladder/v1",
                "entries": {"greedy": {"max_practical_vertices": 99}},
                **stamp,
            }
            path = tmp_path / "CAPACITY.json"
            path.write_text(json.dumps(ladder), encoding="utf-8")
            monkeypatch.setattr(builtin, "MEASURED_CAPACITY_PATH", path)
            monkeypatch.setattr(builtin, "_measured_hints_cache", None)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert builtin.measured_capacity_hints() == {"greedy": 99}

    def test_duplicate_registration_rejected(self):
        # Registered under a throwaway name and removed again: leaking a test
        # algorithm into the global registry would enlarge every
        # registry-driven scenario matrix (e.g. table2's).
        from repro.algorithms import registry as registry_module

        spec = AlgorithmSpec(
            name="duplicate-algorithm-test",
            description="d",
            build=lambda graph, params, *, seed=0, simulator=None: None,
        )
        register(spec)
        try:
            with pytest.raises(ValueError):
                register(
                    AlgorithmSpec(
                        name="duplicate-algorithm-test",
                        description="d",
                        build=lambda graph, params, *, seed=0, simulator=None: None,
                    )
                )
            assert register(spec) is spec  # re-registering the same object is a no-op
        finally:
            registry_module._REGISTRY.pop("duplicate-algorithm-test", None)

    def test_every_spec_describes_json_safely(self):
        for spec in algorithms.all_specs():
            description = spec.describe()
            json.dumps(description)
            assert description["name"] == spec.name
            assert description["tags"] == list(spec.tags)


class TestParamSchema:
    def test_defaults_and_resolution(self):
        spec = get_spec("new-centralized")
        resolved = spec.resolve_params({"epsilon": 0.25})
        assert resolved["epsilon"] == 0.25
        assert resolved["kappa"] == 3
        assert resolved["epsilon_is_internal"] is False

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            get_spec("greedy").resolve_params({"epsilon": 0.25})

    def test_subset_params_picks_declared_subset(self):
        pool = {"epsilon": 0.25, "kappa": 4, "rho": 0.5, "epsilon_is_internal": True}
        assert get_spec("greedy").subset_params(pool) == {"kappa": 4}
        assert get_spec("elkin-peleg-2001").subset_params(pool) == pool

    def test_declared_guarantee_formulas(self):
        greedy = get_spec("greedy").declared_guarantee({"stretch": 7})
        assert greedy == StretchGuarantee(multiplicative=7.0, additive=0.0)
        baswana = get_spec("baswana-sen").declared_guarantee({"kappa": 4})
        assert baswana.multiplicative == 7.0
        engine = get_spec("new-centralized").declared_guarantee(
            {"epsilon": 0.25, "epsilon_is_internal": True}
        )
        assert engine.multiplicative > 1.0
        assert engine.additive > 0.0


class TestBuildFacade:
    def test_build_by_name(self, graph):
        run = build("greedy", graph, stretch=5)
        assert isinstance(run, RunResult)
        assert run.algorithm == "greedy"
        assert run.spanner.is_subgraph_of(graph)
        assert run.guarantee.multiplicative == 5.0

    def test_build_unknown_name(self, graph):
        with pytest.raises(KeyError):
            build("no-such-algorithm", graph)

    def test_build_unknown_parameter(self, graph):
        with pytest.raises(KeyError):
            build("baswana-sen", graph, epsilon=0.5)

    def test_engine_run_keeps_full_source(self, graph):
        run = build(
            "new-centralized", graph, epsilon=0.25, epsilon_is_internal=True
        )
        assert run.phase_records and run.cluster_history and run.certificate is not None
        assert run.engine == "centralized"
        assert run.phases and "num_clusters" in run.phases[0]
        assert run.details["edges_by_step"]["total"] == run.num_edges

    def test_distributed_run_carries_ledger(self, graph):
        run = build(
            "new-distributed", graph, epsilon=0.25, epsilon_is_internal=True
        )
        assert run.engine == "distributed"
        assert run.ledger_summary is not None
        assert run.ledger_summary["nominal_rounds"] == run.nominal_rounds

    def test_simulator_rejected_outside_distributed_engine(self, graph):
        with pytest.raises(ValueError):
            build("greedy", graph, simulator=object())
        with pytest.raises(ValueError):
            build("new-centralized", graph, simulator=object())

    def test_randomized_builds_respect_seed(self, graph):
        first = build("baswana-sen", graph, seed=5)
        again = build("baswana-sen", graph, seed=5)
        other = build("elkin-neiman-2017", graph, seed=6, epsilon=0.25,
                      epsilon_is_internal=True)
        assert sorted(first.spanner.edge_set()) == sorted(again.spanner.edge_set())
        assert other.algorithm == "elkin-neiman-2017"

    def test_run_result_label_contract_enforced(self, graph):
        def mislabelled(graph, params, *, seed=0, simulator=None):
            return RunResult(algorithm="wrong-name", graph=graph, spanner=graph)

        # Deliberately *not* registered: the contract is enforced by run().
        spec = AlgorithmSpec(
            name="label-contract-test", description="d", build=mislabelled
        )
        with pytest.raises(RuntimeError):
            spec.run(graph)
