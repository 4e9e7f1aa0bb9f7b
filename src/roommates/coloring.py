"""Simple undirected graphs and Misra–Gries edge coloring.

Graphs here have maximum degree three, so the Vizing bound guarantees a
proper edge coloring with four colors.  The coloring is deterministic:
edges are processed in (min, max) lexicographic order and every choice in
the fan/path machinery takes the smallest valid option.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from .errors import DegreeTooHigh, InternalInvariantViolation
from .model import _Record

Edge = tuple[int, int]

PALETTE_SIZE = 4
MAX_DEGREE = 3


class Graph(_Record):
    """An undirected simple graph on vertices 0..n-1.

    Edges are stored canonically: as (min, max) pairs, deduplicated and
    sorted.  Self-loops are rejected.
    """

    _fields = ("n_vertices", "edges")

    n_vertices: int
    edges: tuple[Edge, ...]

    def __init__(self, n_vertices: int, edges: Iterable[Iterable[int]] = ()):
        if n_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        canon = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n_vertices", int(n_vertices))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.n_vertices)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


def check_degree_cap(graph: Graph) -> None:
    """Raise DegreeTooHigh naming the smallest vertex over MAX_DEGREE."""
    for v in range(graph.n_vertices):
        if graph.degree(v) > MAX_DEGREE:
            raise DegreeTooHigh(v, graph.degree(v), MAX_DEGREE)


class EdgeColoring(_Record):
    """A partition of a graph's edges into color classes, each a matching."""

    _fields = ("classes",)

    classes: tuple[tuple[Edge, ...], ...]

    def is_proper_for(self, graph: Graph) -> bool:
        """Every edge colored exactly once, classes vertex-disjoint."""
        seen: list[Edge] = [e for cls in self.classes for e in cls]
        if sorted(seen) != list(graph.edges):
            return False
        for cls in self.classes:
            endpoints = [v for e in cls for v in e]
            if len(endpoints) != len(set(endpoints)):
                return False
        return True


def misra_gries_edge_coloring(graph: Graph) -> EdgeColoring:
    """Proper 4-edge-coloring of a graph with maximum degree at most three.

    Implements the fan-rotation scheme of Misra and Gries.  Rejects graphs
    with a vertex of degree above three (DegreeTooHigh); the palette is
    fixed at four colors, so a free color always exists where the
    algorithm needs one.
    """
    check_degree_cap(graph)

    color: dict[Edge, int] = {}
    # at[v][c] = neighbor joined to v by the c-colored edge, if any
    at: list[dict[int, int]] = [{} for _ in range(graph.n_vertices)]

    def key(u: int, v: int) -> Edge:
        return (u, v) if u < v else (v, u)

    def assign(u: int, v: int, c: int) -> None:
        color[key(u, v)] = c
        at[u][c] = v
        at[v][c] = u

    def unassign(u: int, v: int) -> int:
        old = color.pop(key(u, v))
        del at[u][old]
        del at[v][old]
        return old

    def free_color(v: int) -> int:
        for c in range(PALETTE_SIZE):
            if c not in at[v]:
                return c
        raise InternalInvariantViolation(f"no free color at vertex {v}")

    def is_free(v: int, c: int) -> bool:
        return c not in at[v]

    def maximal_fan(u: int, v: int) -> list[int]:
        fan = [v]
        used = {v}
        while True:
            tail = fan[-1]
            nxt = None
            for w in graph.neighbors[u]:
                if w in used:
                    continue
                cw = color.get(key(u, w))
                if cw is not None and is_free(tail, cw):
                    nxt = w
                    break
            if nxt is None:
                return fan
            fan.append(nxt)
            used.add(nxt)

    def invert_cd_path(u: int, c: int, d: int) -> None:
        # Walk the unique path from u alternating d, c, d, ... and swap
        # the two colors along it.
        path: list[Edge] = []
        prev, want = u, d
        while want in at[prev]:
            nxt = at[prev][want]
            path.append(key(prev, nxt))
            prev, want = nxt, c if want == d else d
        # Recolor in two passes so the at-table never holds a stale entry
        # while an adjacent edge changes color.
        swapped = [(e, d if color[e] == c else c) for e in path]
        for e, _ in swapped:
            unassign(*e)
        for e, new_color in swapped:
            assign(e[0], e[1], new_color)

    for u, v in graph.edges:
        fan = maximal_fan(u, v)
        c = free_color(u)
        d = free_color(fan[-1])
        invert_cd_path(u, c, d)
        # Pick the shortest fan prefix whose tip has d free; the prefix
        # must still be a fan under the post-inversion colors.
        w_idx = None
        for i, w in enumerate(fan):
            if i > 0:
                cw = color.get(key(u, fan[i]))
                if cw is None or not is_free(fan[i - 1], cw):
                    break  # the fan property broke at this prefix
            if is_free(w, d):
                w_idx = i
                break
        if w_idx is None:
            raise InternalInvariantViolation(
                f"no rotatable fan vertex while coloring edge ({u}, {v})"
            )
        # Rotate the prefix: (u, fan[j]) takes the color of (u, fan[j+1]),
        # again unassigning everything before reassigning.
        shifted = [unassign(u, fan[j]) for j in range(1, w_idx + 1)]
        for j in range(w_idx):
            assign(u, fan[j], shifted[j])
        assign(u, fan[w_idx], d)

    classes: list[list[Edge]] = [[] for _ in range(PALETTE_SIZE)]
    for e, c in color.items():
        classes[c].append(e)
    result = EdgeColoring(tuple(tuple(sorted(cls)) for cls in classes))
    if not result.is_proper_for(graph):
        raise InternalInvariantViolation("edge coloring failed its own audit")
    return result
