"""Golden-run regression tests for the active-set CONGEST scheduler.

The counters below were recorded with the seed (pre-flat-array) simulator:
per-round dict-of-inboxes delivery, O(n)-per-round idle scans and per-pair
broadcast queueing.  The rewritten scheduler (reused inbox lists, incremental
idle tracking, sender-batched congestion audit, broadcast sentinels) must
reproduce them bit-for-bit -- any drift in ``rounds_executed``,
``messages_delivered``, ``words_delivered``, ``max_edge_congestion`` or the
per-node results means the "optimization" changed protocol behaviour.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import build_spanner
from repro.congest import FaultPlan
from repro.congest.simulator import Simulator
from repro.experiments import default_parameters
from repro.graphs import gnp_random_graph, planted_partition_graph
from repro.primitives.bfs_forest import run_bfs_forest


def _digest(obj) -> str:
    """Stable content digest: sha256 of the canonical JSON, 16 hex digits."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TestForestGoldenRun:
    """A bare BFS-forest protocol pins the scheduler's accounting.

    An inactive fault plan must take the fault-free path: same counters, and
    no fault bookkeeping attached to the run.
    """

    @pytest.fixture(params=[None, FaultPlan(seed=41)], ids=["no-plan", "inactive-plan"])
    def forest(self, request):
        graph = planted_partition_graph(8, 12, p_intra=0.5, p_inter=0.03, seed=5)
        simulator = Simulator(graph)
        return run_bfs_forest(
            simulator, sources=[0, 17, 55, 80], depth=6, fault_plan=request.param
        )

    def test_counters_match_seed_simulator(self, forest):
        assert forest.run.rounds_executed == 4
        assert forest.run.messages_delivered == 702
        assert forest.run.words_delivered == 2106
        assert forest.run.max_edge_congestion == 1
        assert not forest.run.congestion_violations
        assert forest.run.fault_counters is None

    def test_results_match_seed_simulator(self, forest):
        # The per-node results: every vertex's (root, dist, parent).
        labels = list(zip(forest.root, forest.dist, forest.parent))
        assert _digest(labels) == "ef9cf9921c445846"

    def test_rerun_on_same_simulator_is_identical(self):
        # Contexts and inbox buffers are reused across runs; a second run must
        # start from clean state and reproduce the same counters.
        graph = planted_partition_graph(8, 12, p_intra=0.5, p_inter=0.03, seed=5)
        simulator = Simulator(graph)
        first = run_bfs_forest(simulator, sources=[0, 17, 55, 80], depth=6)
        second = run_bfs_forest(simulator, sources=[0, 17, 55, 80], depth=6)
        assert first.run.rounds_executed == second.run.rounds_executed
        assert first.run.messages_delivered == second.run.messages_delivered
        assert (first.root, first.dist, first.parent) == (
            second.root, second.dist, second.parent
        )


class TestDistributedBuildGoldenRun:
    """The full distributed spanner build pins ledger totals and the spanner."""

    def test_build_matches_seed_engine(self, backend):
        # The exploration phases run per broadcast on the python kernel and
        # as array reductions on the numpy one; the ledger must not tell.
        graph = gnp_random_graph(120, 0.05, seed=21)
        result = build_spanner(
            graph, parameters=default_parameters(), engine="distributed"
        )
        assert result.nominal_rounds == 41408
        assert result.num_edges == 126
        assert _digest(sorted(result.spanner.edge_set())) == "8f0c24506186ec50"
        # Every sub-protocol's charge, in order: any drift in per-protocol
        # rounds, messages, words or congestion fails here.
        charges = [
            [c.label, c.nominal_rounds, c.simulated_rounds, c.messages, c.words,
             c.max_edge_congestion]
            for c in result.ledger.charges
        ]
        assert _digest(charges) == "18c48d6ce12b58b8"
