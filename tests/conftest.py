"""Shared fixtures: small named graphs/drawings and the seeded corpora."""

from __future__ import annotations

import pytest
from hypothesis import settings

from oneplanar.embedding import OnePlanarDrawing, _Builder, drawing_from_faces, validate
from oneplanar.graph import Graph, build_graph, min_degree, odd_components
from oneplanar.generators import FamilyInstance, random_oneplanar
from oneplanar.matcher import Matching
from oneplanar.rng import SplitMix64

CORPUS_SIZE = 200

# With `pytest --hypothesis-profile=deep`, a property test that sets no
# example count of its own runs 2,000 examples, not hypothesis' default
# 100.  CI runs the parser fuzz (tests/test_parsers.py) this way.
settings.register_profile("deep", max_examples=2000)


def make_k(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def edit(d: OnePlanarDrawing, surgery: str, *args) -> OnePlanarDrawing:
    """d after one `_Builder` surgery, e.g. edit(d, "add_chord", x, 0, 2)."""
    b = _Builder(d)
    getattr(b, surgery)(*args)
    return b.freeze()


def hand_built(edges, pvertices, segments, rotations) -> OnePlanarDrawing:
    """A drawing built directly from its tables; each segment is an
    (a, b, eid) triple, running from pvertex a to pvertex b on edge eid."""
    return OnePlanarDrawing(
        edges=tuple(edges),
        pvertices=tuple(pvertices),
        org=tuple([p for a, b, _ in segments for p in (a, b)]),
        seg_eid=tuple([eid for _, _, eid in segments]),
        rotations=tuple(rotations),
    )


def c4_drawing() -> OnePlanarDrawing:
    return drawing_from_faces(4, [[0, 1, 2, 3], [3, 2, 1, 0]])


def k4_drawing() -> OnePlanarDrawing:
    return drawing_from_faces(4, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def cube_drawing() -> OnePlanarDrawing:
    return drawing_from_faces(
        8,
        [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]],
    )


def random_graph(seed: int, max_n: int = 10) -> Graph:
    """Seeded random simple graph with 4 <= n <= max_n."""
    rng = SplitMix64(seed)
    n = 4 + rng.below(max_n - 3)
    max_m = n * (n - 1) // 2
    m = rng.below(max_m + 1)
    edges: set[tuple[int, int]] = set()
    attempts = 0
    while len(edges) < m and attempts < 10 * max_m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
        attempts += 1
    return build_graph(n, sorted(edges))


def gnp(n: int, percent: int, seed: int) -> Graph:
    """Seeded G(n, p) with p = percent / 100."""
    rng = SplitMix64(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.below(100) < percent])


def corpus_params() -> list[tuple[int, int, int]]:
    """(n_triangulation, crossings, seed) for the drawing corpus; final n <= 12."""
    out = []
    for seed in range(CORPUS_SIZE):
        n_tri = 4 + seed % 5
        crossings = seed % 3
        out.append((n_tri, crossings, seed))
    return out


@pytest.fixture(scope="session")
def drawing_corpus() -> list[OnePlanarDrawing]:
    return [random_oneplanar(n, x, seed) for n, x, seed in corpus_params()]


def independent_sets_with_min_degree(g: Graph, min_deg: int = 3):
    """Yield every non-empty independent set whose members all have degree >= min_deg."""
    eligible = [v for v in range(g.n) if g.degree(v) >= min_deg]

    def extend(start: int, current: tuple[int, ...], blocked: frozenset[int]):
        for idx in range(start, len(eligible)):
            v = eligible[idx]
            if v in blocked:
                continue
            chosen = current + (v,)
            yield chosen
            yield from extend(idx + 1, chosen, blocked | frozenset(g.adj[v]))

    yield from extend(0, (), frozenset())


def greedy_independent_t(g: Graph, min_deg: int = 3) -> frozenset[int]:
    """Smallest-id-first maximal independent set among degree >= min_deg vertices."""
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in range(g.n):
        if v in blocked or g.degree(v) < min_deg:
            continue
        chosen.append(v)
        blocked.update(g.adj[v])
    return frozenset(chosen)


def share_an_endpoint(g: Graph, m: Matching) -> Matching:
    """M with its last edge swapped for another edge at the endpoint u of
    its first, (u, v): the size stays, but two edges now meet at u."""
    (u, v), *_, last = sorted(m.edges)
    w = min(x for x in g.adj[u] if x != v)
    return Matching((m.edges - {last}) | {(min(u, w), max(u, w))}, m.barrier)


def check_instance(inst: FamilyInstance) -> list[str]:
    """Verify the four FamilyInstance invariants; returns violations."""
    bad = []
    if min_degree(inst.graph) != inst.delta:
        bad.append(f"min degree {min_degree(inst.graph)} != delta {inst.delta}")
    report = validate(inst.drawing)
    if not report.valid:
        bad.extend(report.violations)
    if inst.drawing.has_parallel_edges:
        bad.append("family drawing has parallel edges")
    count = odd_components(inst.graph, inst.witness)
    if count - len(inst.witness) != inst.predicted_deficiency:
        bad.append(
            f"witness deficiency {count - len(inst.witness)} != predicted "
            f"{inst.predicted_deficiency}"
        )
    return bad
