"""Edge-list serialization for graphs.

The experiment runner uses these helpers to persist workload graphs and
spanners so that benchmark runs can be inspected and re-verified offline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .graph import Graph

PathLike = Union[str, Path]

_HEADER_PREFIX = "# repro-graph"


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` as a simple text edge list with a vertex-count header."""
    lines = [f"{_HEADER_PREFIX} n={graph.num_vertices} m={graph.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph previously written by :func:`write_edge_list`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}: missing '{_HEADER_PREFIX}' header")
    header = lines[0]
    fields = dict(item.split("=") for item in header.split() if "=" in item)
    num_vertices = int(fields["n"])
    graph = Graph(num_vertices)
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {line!r}")
        graph.add_edge(int(parts[0]), int(parts[1]))
    return graph
