"""Graphs and the four-color edge-coloring routine."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roommates import (
    DegreeTooHigh,
    EdgeColoring,
    Graph,
    check_degree_cap,
    gen_degree3_graph,
    misra_gries_edge_coloring,
)

from oracles import proper_edge_coloring

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# Graph basics
# ---------------------------------------------------------------------------

def test_edges_are_normalized_deduplicated_and_sorted():
    graph = Graph(4, [(2, 0), (0, 2), (3, 1)])
    assert graph.edges == ((0, 2), (1, 3))


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_neighbors_and_degrees():
    graph = Graph(4, [(0, 1), (0, 2)])
    assert graph.neighbors[0] == (1, 2)
    assert graph.neighbors[3] == ()
    assert [graph.degree(v) for v in range(4)] == [2, 1, 1, 0]
    assert [K4.degree(v) for v in range(4)] == [3, 3, 3, 3]


def test_degree_cap_flags_the_smallest_offender():
    star = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(DegreeTooHigh) as info:
        check_degree_cap(star)
    assert info.value.vertex == 0
    check_degree_cap(K4)  # degree three is fine


# ---------------------------------------------------------------------------
# Edge coloring
# ---------------------------------------------------------------------------

def test_path_uses_two_alternating_classes():
    coloring = misra_gries_edge_coloring(Graph(3, [(0, 1), (1, 2)]))
    assert len(coloring.classes) == 4
    assert sum(1 for cls in coloring.classes if cls) == 2
    assert coloring.is_proper_for(Graph(3, [(0, 1), (1, 2)]))


def test_k4_gets_a_proper_coloring():
    coloring = misra_gries_edge_coloring(K4)
    assert coloring.is_proper_for(K4)
    assert proper_edge_coloring(K4, coloring.classes)


def test_empty_graph_yields_four_empty_classes():
    coloring = misra_gries_edge_coloring(Graph(5, []))
    assert coloring.classes == ((), (), (), ())


def test_coloring_refuses_high_degree():
    with pytest.raises(DegreeTooHigh):
        misra_gries_edge_coloring(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))


def test_coloring_is_deterministic():
    graph = gen_degree3_graph(8, 0.7, seed=2)
    assert (
        misra_gries_edge_coloring(graph).classes
        == misra_gries_edge_coloring(graph).classes
    )


def test_is_proper_for_rejects_wrong_colorings():
    graph = Graph(3, [(0, 1), (1, 2)])
    same_class = EdgeColoring((((0, 1), (1, 2)), (), (), ()))
    assert not same_class.is_proper_for(graph)
    missing_edge = EdgeColoring((((0, 1),), (), (), ()))
    assert not missing_edge.is_proper_for(graph)
    foreign_edge = EdgeColoring((((0, 1),), ((0, 2),), (), ()))
    assert not foreign_edge.is_proper_for(graph)


def test_random_degree_capped_graphs_color_properly():
    rng = random.Random(14)
    for _ in range(120):
        graph = gen_degree3_graph(rng.randint(0, 8), rng.random(), seed=rng.getrandbits(32))
        coloring = misra_gries_edge_coloring(graph)
        assert proper_edge_coloring(graph, coloring.classes)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 8),
    picks=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))),
)
def test_arbitrary_degree_three_graphs_color_properly(n, picks):
    degree = [0] * n
    edges = []
    for u, v in sorted(picks):
        u, v = u % n, v % n
        if u == v:
            continue
        if degree[u] >= 3 or degree[v] >= 3:
            continue
        if tuple(sorted((u, v))) in edges:
            continue
        edges.append(tuple(sorted((u, v))))
        degree[u] += 1
        degree[v] += 1
    graph = Graph(n, edges)
    coloring = misra_gries_edge_coloring(graph)
    assert proper_edge_coloring(graph, coloring.classes)
    assert len(coloring.classes) == 4
