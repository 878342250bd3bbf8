"""Tests for the ablation experiments.

Each sweep runs twice: short, on a small planted workload, and with its
default sweep on the default workload.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    epsilon_ablation_spec,
    kappa_ablation_spec,
    rho_ablation_spec,
    run_scenario,
)
from repro.graphs import planted_partition_graph

SMALL_WORKLOAD = planted_partition_graph(5, 8, 0.6, 0.03, seed=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilons=(0.1, 0.3, 0.9), graph=SMALL_WORKLOAD, sample_pairs=60),
        dict(epsilons=(0.1, 0.25, 0.5, 0.9), sample_pairs=100),
    ],
    ids=["small", "default"],
)
def test_epsilon_ablation_checks_pass(kwargs):
    record = run_scenario(epsilon_ablation_spec(**kwargs))
    assert record.all_checks_passed, record.checks
    assert len(record.rows) == len(kwargs["epsilons"])
    betas = record.series["beta"]
    assert betas[0] >= betas[-1]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rhos=(1 / 3, 0.5), graph=SMALL_WORKLOAD, sample_pairs=60),
        dict(rhos=(1 / 3, 0.4, 0.5), sample_pairs=100),
    ],
    ids=["small", "default"],
)
def test_rho_ablation_checks_pass(kwargs):
    record = run_scenario(rho_ablation_spec(**kwargs))
    assert record.all_checks_passed, record.checks
    assert all("round_bound" in row for row in record.rows)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kappas=(2, 3), graph=SMALL_WORKLOAD, sample_pairs=60),
        dict(kappas=(2, 3, 4), sample_pairs=100),
    ],
    ids=["small", "default"],
)
def test_kappa_ablation_checks_pass(kwargs):
    record = run_scenario(kappa_ablation_spec(**kwargs))
    assert record.all_checks_passed, record.checks
    assert [row["kappa"] for row in record.rows] == list(kwargs["kappas"])


def test_empty_sweep_yields_empty_record():
    record = run_scenario(epsilon_ablation_spec(epsilons=()))
    assert record.rows == []
    assert record.all_checks_passed
