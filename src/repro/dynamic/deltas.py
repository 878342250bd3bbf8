"""Graph deltas: the value type one churn step is made of.

A :class:`GraphDelta` is an immutable batch of edge additions and removals in
canonical form: every edge normalized to ``(min, max)``, each side sorted and
de-duplicated, and the two sides disjoint (an edge cannot be added and removed
in the same step).  Canonical form makes deltas safely comparable, hashable
and JSON-round-trippable, so churn traces can be fingerprinted by content and
replayed byte-identically across processes (the pipeline's ``--jobs``
determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..graphs.graph import Edge, Graph, normalize_edge


def canonical_edges(edges: Iterable[Edge]) -> Tuple[Edge, ...]:
    """Normalize, de-duplicate and sort an edge iterable.

    Self-loops are rejected here (not at apply time) so a malformed trace
    fails loudly when the delta is built.
    """
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        seen.add(normalize_edge(int(u), int(v)))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class GraphDelta:
    """One churn step: a batch of edge additions and a batch of removals.

    Use :meth:`make` to construct from raw edge iterables; the constructor
    itself expects already-canonical tuples (it is what ``from_dict`` and the
    trace generators call after canonicalizing once).
    """

    add: Tuple[Edge, ...] = ()
    remove: Tuple[Edge, ...] = ()

    @classmethod
    def make(
        cls, add: Iterable[Edge] = (), remove: Iterable[Edge] = ()
    ) -> "GraphDelta":
        """Build a canonical delta; overlapping add/remove sides are an error."""
        add_edges = canonical_edges(add)
        remove_edges = canonical_edges(remove)
        overlap = set(add_edges) & set(remove_edges)
        if overlap:
            raise ValueError(
                f"edges {sorted(overlap)!r} appear in both the add and remove "
                "side of one delta"
            )
        return cls(add=add_edges, remove=remove_edges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_add(self) -> int:
        return len(self.add)

    @property
    def num_remove(self) -> int:
        return len(self.remove)

    @property
    def num_edges(self) -> int:
        """Total number of edges this delta touches."""
        return len(self.add) + len(self.remove)

    @property
    def is_empty(self) -> bool:
        return not self.add and not self.remove

    def touched_vertices(self) -> Tuple[int, ...]:
        """Sorted endpoints of every edge in the delta (certificate frontier)."""
        vertices = set()
        for u, v in self.add:
            vertices.add(u)
            vertices.add(v)
        for u, v in self.remove:
            vertices.add(u)
            vertices.add(v)
        return tuple(sorted(vertices))

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (tuples become lists; ``from_dict`` restores them)."""
        return {
            "add": [list(edge) for edge in self.add],
            "remove": [list(edge) for edge in self.remove],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphDelta":
        return cls.make(
            add=[tuple(edge) for edge in payload.get("add", [])],
            remove=[tuple(edge) for edge in payload.get("remove", [])],
        )


def apply_delta(graph: Graph, delta: GraphDelta) -> Tuple[int, int]:
    """Apply one delta to ``graph`` in place; returns ``(added, removed)``.

    Removals are applied before additions, both as single batches, so a
    non-empty delta costs at most two cache invalidations and a no-op delta
    (every removal absent, every addition present) costs none.
    """
    removed = graph.remove_edges(delta.remove) if delta.remove else 0
    added = graph.add_edges(delta.add) if delta.add else 0
    return added, removed


__all__ = [
    "GraphDelta",
    "apply_delta",
    "canonical_edges",
]
