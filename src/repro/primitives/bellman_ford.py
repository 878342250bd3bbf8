"""Distributed depth-bounded Bellman-Ford exploration.

The paper's Algorithm 1 (our :mod:`repro.primitives.exploration`) is described
as "a variant of the Bellman-Ford algorithm"; the randomized predecessor
[EN17] uses plain Bellman-Ford explorations in its interconnection step.  This
module provides that plain primitive: a multi-source, depth-bounded distance
computation in which vertices keep improving their best known distance and
re-announce improvements.

On unweighted graphs the result coincides with a BFS forest, but the
relaxation-style protocol is the one [EN17] runs, and it is also useful as an
independent cross-check of :mod:`repro.primitives.bfs_forest` in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..congest.message import Message
from ..congest.node import NodeContext, NodeProgram
from ..congest.simulator import Simulator

BF_TAG = "bf"


@dataclass
class BellmanFordResult:
    """Distances/parents/sources computed by the exploration."""

    dist: List[Optional[int]]
    parent: List[Optional[int]]
    source: List[Optional[int]]
    depth: int
    nominal_rounds: int
    simulated_rounds: int


class _BellmanFordProgram(NodeProgram):
    """Relaxation-based exploration: re-announce whenever the estimate improves."""

    def __init__(self, node_id: int, is_source: bool, depth: int) -> None:
        self.node_id = node_id
        self.depth = depth
        self.dist: Optional[int] = 0 if is_source else None
        self.source: Optional[int] = node_id if is_source else None
        self.parent: Optional[int] = None
        self._needs_announce = is_source and depth > 0

    def on_start(self, ctx: NodeContext) -> None:
        self._announce(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        improved = False
        for message in sorted(inbox, key=lambda m: (m.content[2], m.content[1], m.sender)):
            if message.content[0] != BF_TAG:
                continue
            _, announced_source, announced_dist = message.content
            candidate = announced_dist + 1
            better = self.dist is None or candidate < self.dist or (
                candidate == self.dist
                and self.source is not None
                and announced_source < self.source
            )
            if better:
                self.dist = candidate
                self.source = announced_source
                self.parent = message.sender
                improved = True
        if improved and self.dist is not None and self.dist < self.depth:
            self._needs_announce = True
        self._announce(ctx)

    def _announce(self, ctx: NodeContext) -> None:
        if self._needs_announce:
            ctx.broadcast(BF_TAG, self.source, self.dist)
            self._needs_announce = False

    def result(self):
        return (self.dist, self.parent, self.source)


def run_bellman_ford(
    simulator: Simulator,
    sources: Iterable[int],
    depth: int,
    label: str = "bellman-ford",
) -> BellmanFordResult:
    """Run a depth-bounded multi-source Bellman-Ford exploration."""
    n = simulator.graph.num_vertices
    source_set = set(sources)
    for s in source_set:
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    programs = [_BellmanFordProgram(v, v in source_set, depth) for v in range(n)]
    run = simulator.run_protocol(programs, label=label, nominal_rounds=depth)
    return BellmanFordResult(
        dist=[r[0] for r in run.results],
        parent=[r[1] for r in run.results],
        source=[r[2] for r in run.results],
        depth=depth,
        nominal_rounds=depth,
        simulated_rounds=run.rounds_executed,
    )
