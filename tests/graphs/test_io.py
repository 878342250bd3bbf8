"""Unit tests for graph serialization."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    gnp_random_graph,
    read_edge_list,
    write_edge_list,
)


def test_edge_list_round_trip(tmp_path):
    g = gnp_random_graph(25, 0.2, seed=8)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_of_empty_graph(tmp_path):
    g = Graph(4)
    path = tmp_path / "empty.txt"
    write_edge_list(g, path)
    loaded = read_edge_list(path)
    assert loaded.num_vertices == 4
    assert loaded.num_edges == 0


def test_edge_list_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# repro-graph n=3 m=1\n0 1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_dict_round_trip(tmp_path):
    # Isolated vertices survive through the header's vertex count.
    g = Graph(5, [(0, 4), (1, 2)])
    path = tmp_path / "isolated.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_json_round_trip(tmp_path):
    g = gnp_random_graph(15, 0.3, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    write_edge_list(read_edge_list(path), tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == path.read_text()
