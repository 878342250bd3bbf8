#!/usr/bin/env python
"""Inspect the phase dynamics of the superclustering-and-interconnection scheme.

Reproduces, as data, what the paper's Figures 1-5 illustrate: how many
clusters are popular in each phase, how the ruling set thins them out, how
the cluster count collapses across phases (Lemmas 2.10/2.11), how cluster
radii stay below the R_i bounds (Lemma 2.3), and how many edges each step
contributes to the spanner.

Usage::

    python examples/phase_dynamics.py [num_clusters] [cluster_size]
"""

from __future__ import annotations

import sys

from repro import build_spanner, make_parameters
from repro.experiments import (
    figure1_superclustering,
    figure2_bfs_trees,
    figure3_ruling_set,
    figure5_interconnection,
)
from repro.graphs import planted_partition_graph


def main() -> None:
    num_clusters = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    cluster_size = int(sys.argv[2]) if len(sys.argv) > 2 else 14
    graph = planted_partition_graph(num_clusters, cluster_size, 0.6, 0.02, seed=9)
    print(
        f"workload: {num_clusters} planted communities of {cluster_size} vertices "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges)"
    )

    parameters = make_parameters(epsilon=0.25, kappa=3, rho=1 / 3, epsilon_is_internal=True)
    result = build_spanner(graph, parameters=parameters)
    print(
        f"spanner: {result.num_edges} edges; phases: {parameters.num_phases}; "
        f"guarantee: (1+{parameters.stretch_bound().multiplicative - 1:.2f}, {parameters.beta():.0f})"
    )

    for experiment in (
        figure1_superclustering,
        figure2_bfs_trees,
        figure3_ruling_set,
        figure5_interconnection,
    ):
        record = experiment(result)
        print()
        print(record.render())


if __name__ == "__main__":
    main()
