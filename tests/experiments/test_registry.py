"""Tests for the declarative scenario registry."""

from __future__ import annotations

import pytest

from repro.experiments import all_specs, get_spec
from repro.experiments.registry import (
    ScenarioSpec,
    canonical_json,
    derive_seed,
    fingerprint_graph,
    register,
)
from repro.experiments.results import ExperimentRecord
from repro.graphs import gnp_random_graph


def _dummy_task(params, seed):
    return {"value": params["x"]}


def _dummy_merge(defaults, payloads):
    return ExperimentRecord(name="dummy", description="d")


def _make_spec(name="dummy-spec", **kwargs):
    base = dict(
        name=name,
        description="a test spec",
        task=_dummy_task,
        merge=_dummy_merge,
        defaults={"x": 1},
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


EXPECTED_SCENARIOS = {
    "table1",
    "table2",
    "scaling",
    "ablation-epsilon",
    "ablation-rho",
    "ablation-kappa",
    "family-small-world",
    "family-geometric",
    "family-multi-component",
    "family-powerlaw",
    "family-hyperbolic",
    "family-torus",
    "scaling-large",
    "scaling-growth",
} | {f"figure{i}" for i in range(1, 9)}


class TestBuiltinRegistry:
    def test_every_expected_scenario_registered(self):
        assert EXPECTED_SCENARIOS <= {spec.name for spec in all_specs()}

    def test_scaling_and_ablations_runnable_by_name(self):
        # The old CLI registry hardwired tables/figures only; every scenario
        # must now resolve by name.
        for name in ("scaling", "ablation-epsilon", "ablation-rho", "ablation-kappa"):
            spec = get_spec(name)
            assert spec.task_params(), name

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_spec("no-such-scenario")

    def test_tag_filtering(self):
        figures = {spec.name for spec in all_specs("figure")}
        assert figures == {f"figure{i}" for i in range(1, 9)}
        families = {spec.name for spec in all_specs("family")}
        assert families == {
            "family-small-world",
            "family-geometric",
            "family-multi-component",
            "family-powerlaw",
            "family-hyperbolic",
            "family-torus",
        }
        scale_tier = {spec.name for spec in all_specs("scale-tier")}
        assert scale_tier == {"scaling-large", "scaling-growth"}
        by_name = [spec.name for spec in all_specs("table1")]
        assert by_name == ["table1"]

    def test_an_exact_name_beats_a_tag(self):
        # "scaling" is a scenario and the tag of three; the name wins.
        assert [spec.name for spec in all_specs("scaling")] == ["scaling"]
        assert {spec.name for spec in all_specs("growth")} == {
            "dynamic-growth",
            "scaling-growth",
        }

    def test_every_spec_has_description_and_version(self):
        for spec in all_specs():
            assert spec.description, spec.name
            assert spec.version, spec.name


class TestScenarioSpec:
    def test_duplicate_registration_rejected(self):
        from repro.experiments import registry as registry_module

        spec = _make_spec(name="duplicate-test-spec")
        register(spec)
        try:
            with pytest.raises(ValueError):
                register(_make_spec(name="duplicate-test-spec"))
        finally:
            registry_module._REGISTRY.pop("duplicate-test-spec", None)

    def test_grid_expansion_is_cartesian_and_ordered(self):
        spec = _make_spec(
            defaults={"c": 0},
            grid={"a": [1, 2], "b": ["x", "y"]},
            matrix={"engine": ["e1", "e2"]},
        )
        points = spec.task_params()
        assert len(points) == 8
        assert points[0] == {"c": 0, "a": 1, "b": "x", "engine": "e1"}
        assert points[-1] == {"c": 0, "a": 2, "b": "y", "engine": "e2"}

    def test_no_axes_yields_single_task(self):
        assert _make_spec().task_params() == [{"x": 1}]

    def test_custom_expand_wins(self):
        spec = _make_spec(
            defaults={"sizes": [10, 20], "x": 0},
            expand=lambda defaults: [
                {"x": s + i} for i, s in enumerate(defaults.pop("sizes"))
            ],
        )
        assert spec.task_params() == [{"x": 10}, {"x": 21}]

    def test_with_defaults_override(self):
        spec = _make_spec()
        assert spec.with_defaults(x=5).defaults["x"] == 5
        with pytest.raises(KeyError):
            spec.with_defaults(unknown=1)

    def test_workload_fingerprint_content_addressed(self):
        spec = _make_spec(
            defaults={"x": 1},
            workload=lambda params: gnp_random_graph(20, 0.2, seed=params["x"]),
        )
        fp_same = spec.workload_fingerprint({"x": 1})
        assert fp_same == spec.workload_fingerprint({"x": 1})
        assert fp_same != spec.workload_fingerprint({"x": 2})

    def test_fingerprint_without_workload_uses_params(self):
        spec = _make_spec()
        assert spec.workload_fingerprint({"x": 1}).startswith("params:")


class TestHelpers:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_derive_seed_stable_and_param_sensitive(self):
        assert derive_seed("s", {"a": 1}) == derive_seed("s", {"a": 1})
        assert derive_seed("s", {"a": 1}) != derive_seed("s", {"a": 2})
        assert derive_seed("s", {"a": 1}) != derive_seed("t", {"a": 1})

    def test_fingerprint_graph_sensitive_to_edges(self):
        a = gnp_random_graph(15, 0.2, seed=1)
        b = gnp_random_graph(15, 0.2, seed=2)
        assert fingerprint_graph(a) == fingerprint_graph(a.copy())
        assert fingerprint_graph(a) != fingerprint_graph(b)
