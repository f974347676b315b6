"""Plain undirected graphs plus the odd-component/degree primitives everything else uses.

Vertex ids are dense integers 0..n-1.  Graphs are immutable after
construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BadVertex, DuplicateEdge, EmptyGraph, InvalidEdge, ParseError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[Edge, ...]  # sorted pairs (u < v); a drawing's graph may repeat one

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def build_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a simple graph on vertices 0..n-1, rejecting loops and duplicates."""
    if n < 0:
        raise BadVertex(f"negative vertex count {n}")
    seen: set[Edge] = set()
    edges: list[Edge] = []
    for pair in edge_list:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertex(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InvalidEdge(f"loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdge(f"repeated edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, tuple(sorted(edges)))


def _check_subset(g: Graph, s: Iterable[int]) -> frozenset[int]:
    members = frozenset(s)
    for v in members:
        if not (0 <= v < g.n):
            raise BadVertex(f"vertex {v} out of range for n={g.n}")
    return members


def odd_components(g: Graph, s: Iterable[int]) -> int:
    """The number of odd-size connected components of g minus s."""
    seen = set(_check_subset(g, s))
    count = 0
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 1
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    size += 1
        count += size % 2
    return count


def is_independent(g: Graph, t: Iterable[int]) -> bool:
    members = _check_subset(g, t)
    return not any(u in members and v in members for u, v in g.edges)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise EmptyGraph("min_degree of an empty graph")
    return min(len(a) for a in g.adj)


# --- edge-list text format ------------------------------------------------
#
# First line `graph <n> <m>`, then m lines `e <u> <v>` with u < v,
# ordered by (u, v); ASCII, LF line endings.

# A graph costs memory per vertex even with no edges, so the parser
# refuses a header above this many vertices.
MAX_GRAPH_VERTICES = 10**6


def write_graph(g: Graph) -> str:
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def header_counts(head: list[str], keyword: str, k: int) -> list[int]:
    """The k counts of a split header line `<keyword> <count> ...`.

    Counts are plain ASCII decimal only: int() alone also takes "+3", "1_0"
    and "٣".  Shared by the `graph`, `1pg` and `matching` parsers.
    """
    try:
        if len(head) != k + 1 or head[0] != keyword or not all(t.isascii() and t.isdigit() for t in head[1:]):
            raise ValueError("not a header")
        return [int(t) for t in head[1:]]  # also fails on more digits than int() converts
    except ValueError as exc:
        raise ParseError(f"bad header {' '.join(head)!r}, want {keyword!r} and {k} plain decimal counts") from exc


def parse_graph(text: str) -> Graph:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ParseError("empty graph file")
    n, m = header_counts(lines[0].split(), "graph", 2)
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(f"n={n} exceeds the limit of {MAX_GRAPH_VERTICES} vertices")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: list[Edge] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad edge line: {ln!r}") from exc
        if u >= v:
            raise ParseError(f"edge line not ascending: {ln!r}")
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except (BadVertex, InvalidEdge, DuplicateEdge) as exc:
        raise ParseError(str(exc)) from exc
