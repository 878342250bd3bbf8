"""Registry-driven guarantee property test.

Every registered algorithm is run **by name** on two small graphs and its
*declared* guarantee is verified exhaustively with ``evaluate_stretch``.  A
newly registered algorithm is therefore guarantee-checked for free: if its
``AlgorithmSpec`` declares a ``(1 + alpha, beta)`` bound its spanners do not
satisfy, this test fails without anyone writing a dedicated test for it.
"""

from __future__ import annotations

import pytest

from repro import algorithms
from repro.analysis import evaluate_run_stretch, evaluate_stretch, verify_registered_guarantee
from repro.graphs import clustered_path_graph, gnp_random_graph
from repro.graphs.components import same_component_structure
from repro.kernels import numpy_available

#: Human-scale phase thresholds; every spec picks its declared subset.
PARAMETER_POOL = {
    "epsilon": 0.25,
    "kappa": 3,
    "rho": 1.0 / 3.0,
    "epsilon_is_internal": True,
}

#: Two structurally different small graphs: an unstructured random graph and
#: a large-diameter clustered path (the regime near-additive spanners are
#: about).  Small enough for exhaustive all-pairs verification.
GRAPHS = {
    "gnp": lambda: gnp_random_graph(36, 0.15, seed=3),
    "clustered-path": lambda: clustered_path_graph(5, 8),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("name", algorithms.algorithm_names())
def test_declared_guarantee_holds(name, graph_name):
    graph = GRAPHS[graph_name]()
    spec = algorithms.get_spec(name)
    run = spec.run(graph, spec.subset_params(PARAMETER_POOL), seed=2)

    assert run.algorithm == name
    assert run.spanner.is_subgraph_of(graph)
    assert same_component_structure(graph, run.spanner)

    guarantee = run.guarantee
    assert guarantee is not None, f"{name} must declare a stretch guarantee"
    report = evaluate_stretch(graph, run.spanner, guarantee=guarantee)
    assert report.pairs_checked > 0
    assert report.satisfies_guarantee, (
        f"{name} violated its declared guarantee "
        f"(1+{guarantee.multiplicative - 1:.3g}, {guarantee.additive:.3g}) "
        f"on {graph_name}: {len(report.violations)} violations"
    )


@pytest.mark.parametrize("name", algorithms.algorithm_names())
def test_declared_guarantee_matches_spec_formula(name):
    """The guarantee a run reports is the one the spec formula declares."""
    spec = algorithms.get_spec(name)
    params = spec.subset_params(PARAMETER_POOL)
    declared = spec.declared_guarantee(params)
    if declared is None:
        pytest.skip(f"{name} declares no guarantee formula")
    run = spec.run(GRAPHS["gnp"](), params, seed=2)
    reported = run.guarantee
    assert reported.multiplicative == pytest.approx(declared.multiplicative)
    assert reported.additive == pytest.approx(declared.additive)


@pytest.mark.parametrize("name", algorithms.algorithm_names())
def test_registered_guarantee_kind_verified(name):
    """Every registration passes the kind-dispatched verifier.

    Unlike :func:`test_declared_guarantee_holds` (which checks the run-level
    stretch guarantee), this exercises the registry's ``guarantee_kind``
    dispatch -- exact MST weight for the distributed MST, the declared
    average-stretch bound for the low-stretch tree, pair stretch for the
    spanners.
    """
    graph = GRAPHS["gnp"]()
    spec = algorithms.get_spec(name)
    run = spec.run(graph, spec.subset_params(PARAMETER_POOL), seed=2)
    check = verify_registered_guarantee(spec, run)
    assert check.kind == spec.guarantee_kind
    assert check.ok, f"{name} failed its {check.kind} guarantee: {check.failure}"


#: The PR-10 survey siblings: each must be buildable and guarantee-checked
#: under both kernel pins (the env var is read at backend-resolution time).
SURVEY_SIBLINGS = (
    "eest-low-stretch-tree",
    "elkin-matar-linear",
    "elkin-mst-2017",
    "elkin-neiman-sparse",
)

KERNEL_PINS = ("python", "numpy")


def _pin_kernel(monkeypatch, kernel: str) -> None:
    if kernel == "numpy" and not numpy_available():
        pytest.skip("numpy/scipy not installed; vectorized pin not testable")
    monkeypatch.setenv("REPRO_KERNEL", kernel)


@pytest.mark.parametrize("kernel", KERNEL_PINS)
@pytest.mark.parametrize("name", SURVEY_SIBLINGS)
def test_survey_sibling_verified_under_kernel_pin(name, kernel, monkeypatch):
    _pin_kernel(monkeypatch, kernel)
    graph = gnp_random_graph(30, 0.15, seed=4)
    spec = algorithms.get_spec(name)
    run = spec.run(graph, spec.subset_params(PARAMETER_POOL), seed=1)
    assert run.spanner.is_subgraph_of(graph)
    assert same_component_structure(graph, run.spanner)
    check = verify_registered_guarantee(spec, run)
    assert check.ok, f"{name} under {kernel} kernel: {check.failure}"


@pytest.mark.parametrize("kernel", KERNEL_PINS)
@pytest.mark.parametrize(
    "name", [n for n in SURVEY_SIBLINGS if algorithms.get_spec(n).supports_incremental]
)
def test_incremental_sibling_survives_churn_under_kernel_pin(name, kernel, monkeypatch):
    """supports_incremental survey siblings maintain their spanner through churn."""
    from repro.dynamic import ChurnTrace, DynamicSpanner

    _pin_kernel(monkeypatch, kernel)
    trace = ChurnTrace(kind="uniform", size=32, steps=10, seed=6)
    dynamic = DynamicSpanner(name, trace.initial_graph(), seed=3)
    for delta in trace.deltas():
        dynamic.maintain(delta)
    assert len(dynamic.records) == 10
    graph, spanner = dynamic.graph, dynamic.spanner
    assert spanner.is_subgraph_of(graph)
    report = evaluate_stretch(graph, spanner, guarantee=dynamic.guarantee)
    assert report.satisfies_guarantee


def test_evaluate_run_stretch_accessor_agrees():
    """The unified-result accessor reports the same verdict as evaluate_stretch."""
    graph = GRAPHS["gnp"]()
    spec = algorithms.get_spec("new-centralized")
    run = spec.run(graph, spec.subset_params(PARAMETER_POOL))
    report = evaluate_run_stretch(run)  # exhaustive below 60 vertices
    direct = evaluate_stretch(graph, run.spanner, guarantee=run.guarantee)
    assert report.pairs_checked == direct.pairs_checked
    assert report.satisfies_guarantee == direct.satisfies_guarantee
