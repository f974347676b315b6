"""Deterministic constructors for the extremal families with small matchings.

Every family returns a FamilyInstance bundling a valid 1-planar drawing,
the witness set S whose odd components certify the matching upper
bound, and the predicted deficiency; the graph and the predicted
matching upper bound follow from these.

Vertex id layouts (all documented so witness sets are reproducible):
  * delta3(s):    triangulation on 0..s-1; face j inserts s+3j, s+3j+1, s+3j+2.
  * delta4(s):    quadrangulation on 0..s-1; face j inserts s+2j, s+2j+1.
  * delta4-k5(k): shared edge (0, 1); block i owns 3i+2, 3i+3, 3i+4.
  * delta5/6/7:   hub 0; block i owns (B-1)i+1 .. (B-1)(i+1) for block size B.
  * random:       triangulation on 0..n-1; crossing pair j inserts the next
                  two ids (each chosen face gains two auxiliary vertices).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

from .embedding import (
    DUMMY,
    Face,
    OnePlanarDrawing,
    _Builder,
    _face_at,
    _face_orbits,
    drawing_from_faces,
    real_corners,
)
from .errors import BadParity, InvalidDrawing, ParseError, TooManyCrossings, TooSmall
from .graph import Graph
from .rng import SplitMix64


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    drawing: OnePlanarDrawing
    delta: int
    witness: frozenset[int]
    predicted_deficiency: int

    @property
    def graph(self) -> Graph:
        return self.drawing.graph

    @property
    def predicted_matching_upper(self) -> int:
        return (self.graph.n - self.predicted_deficiency) // 2


# ---------------------------------------------------------------------
# face helpers


def _corner_keyed(d: _Builder, f: Face) -> tuple[tuple[int, ...], Face]:
    """(sorted real corners, f): faces sort by their corners, then canonically."""
    return tuple(sorted(real_corners(d, f))), f


# ---------------------------------------------------------------------
# planar substrates


def _stacked(
    cycle: int, s: int, attach: Callable[[Sequence[int]], Sequence[int]], rng: SplitMix64 | None
) -> tuple[_Builder, list[Face]]:
    """Grow the two-faced `cycle`-gon to s vertices: each step pops a face
    (the smallest corner set first, unless an rng picks one) and joins a new
    vertex to `attach` of its corners.  Returns the drawing and its faces in
    corner order, kept sorted as faces split."""
    d = _Builder(drawing_from_faces(cycle, [list(range(cycle)), list(range(cycle))[::-1]]))
    keyed = sorted(_corner_keyed(d, f) for f in _face_orbits(d))
    for _ in range(cycle, s):
        _, face = keyed.pop(rng.below(len(keyed)) if rng is not None else 0)
        for x in d.insert_vertex(face[0], attach(real_corners(d, face))):
            bisect.insort(keyed, _corner_keyed(d, _face_at(d, x)))
    return d, [f for _, f in keyed]


def _stacked_triangulation(s: int, rng: SplitMix64 | None) -> tuple[_Builder, list[Face]]:
    """Planar triangulation on s vertices; an rng, if given, picks the faces to split."""
    if s < 3:
        raise TooSmall(f"triangulation needs s >= 3, got {s}")
    return _stacked(3, s, lambda c: c, rng)


def _stacked_quadrangulation(s: int) -> tuple[_Builder, list[Face]]:
    """Planar quadrangulation on s vertices (s even): each new vertex joins two opposite corners."""
    if s < 4:
        raise TooSmall(f"quadrangulation needs s >= 4, got {s}")
    if s % 2 != 0:
        raise BadParity(f"quadrangulation size must be even, got {s}")
    return _stacked(4, s, lambda c: [min(c), c[(c.index(min(c)) + 2) % 4]], None)


# ---------------------------------------------------------------------
# per-face insertion patterns, applied in place


def _fill_triangle(d: _Builder, face: Face) -> None:
    """Insert three vertices adjacent to all corners of a triangular face.

    Canonical pattern: each new vertex hangs off one side of the
    triangle with two uncrossed legs; the three remaining legs cross one
    leg of the next vertex around, giving three crossings per face.
    """
    c0, c1, c2 = real_corners(d, face)
    a, b, c = d.n_real, d.n_real + 1, d.n_real + 2
    # the piece at a's spoke to c1 runs c1, c2, c0, a
    to_c1 = d.insert_vertex(face[0], [c0, c1])[1]
    # the piece at b's spoke to c2 runs c2, c0, a, c1, b
    to_c2 = d.insert_vertex(to_c1, [c1, c2])[1]
    to_c0 = d.insert_vertex(to_c2, [c2, c0])[1]
    d.add_crossed(to_c1, b, c0)
    d.add_crossed(to_c2, c, c1)
    d.add_crossed(to_c0, a, c2)


def _fill_quad(d: _Builder, face: Face) -> None:
    """Insert two vertices adjacent to all corners of a quadrilateral face.

    The first vertex's four legs are uncrossed; the second vertex sits
    in one corner cell and sends two legs across them.
    """
    c0, c1, c2, c3 = real_corners(d, face)
    # the piece at a's spoke to c0 runs c0, c1, a
    spokes = d.insert_vertex(face[0], [c0, c1, c2, c3])
    b = d.n_real
    d.insert_vertex(spokes[0], [c0, c1])
    # b is on the side of a's spoke to c0 and of the reversal of its spoke to c1
    d.add_crossed(spokes[1] ^ 1, b, c2)
    d.add_crossed(spokes[0], b, c3)


# ---------------------------------------------------------------------
# extremal families


def _instance(
    name: str, d: _Builder, n: int, delta: int, witness: frozenset[int], deficiency: int
) -> FamilyInstance:
    """Freeze a finished family drawing, checking first that it has n vertices."""
    if d.n_real != n:
        raise InvalidDrawing(f"{name}: built {d.n_real} vertices, expected {n}")
    return FamilyInstance(name, d.freeze(), delta, witness, deficiency)


def family_delta3(s: int) -> FamilyInstance:
    """Triangulation on s vertices plus three degree-3 vertices per face."""
    if s < 4:
        raise TooSmall(f"family delta3 needs s >= 4, got {s}")
    d, fs = _stacked_triangulation(s, None)
    for face in fs:
        _fill_triangle(d, face)
    return _instance(f"delta3-s{s}", d, n=7 * s - 12, delta=3, witness=frozenset(range(s)),
                     deficiency=5 * s - 12)


def family_delta4(s: int) -> FamilyInstance:
    """Quadrangulation on s vertices plus two degree-4 vertices per face."""
    if s < 4:
        raise TooSmall(f"family delta4 needs s >= 4, got {s}")
    d, fs = _stacked_quadrangulation(s)
    for face in fs:
        _fill_quad(d, face)
    return _instance(f"delta4-s{s}", d, n=3 * s - 4, delta=4, witness=frozenset(range(s)),
                     deficiency=s - 4)


def family_delta4_k5(k: int) -> FamilyInstance:
    """k copies of K5 glued along the shared edge (0, 1)."""
    if k < 1:
        raise TooSmall(f"family delta4-k5 needs k >= 1, got {k}")
    d = _Builder(drawing_from_faces(2, [[0, 1]]))
    for i in range(k):
        p1, p3, p2 = 3 * i + 2, 3 * i + 3, 3 * i + 4
        # each block grows on the side of dart 0, which leaves 0 on the (0,1) segment
        d.insert_vertex(0, [0, 1])  # p1
        # the piece at p3's spoke to 1 runs 1, p1, 0, p3
        spokes = d.insert_vertex(0, [0, 1])  # p3
        spokes = d.insert_vertex(spokes[1], [0, 1, p1, p3])  # p2
        # p1 is on the side of the dart from 0 to p2
        d.add_crossed(spokes[0] ^ 1, p1, p3)
    return _instance(f"delta4-k5-k{k}", d, n=3 * k + 2, delta=4, witness=frozenset({0, 1}),
                     deficiency=k - 2)


def _with_crossed_quads(n: int, faces: Sequence[Sequence[int]]) -> OnePlanarDrawing:
    """The planar drawing with faces `faces`, plus both diagonals of each
    4-cycle among them, crossing inside it."""
    d = _Builder(drawing_from_faces(n, faces))
    # the face walks are the cycles given, so each corner set names one face;
    # crossing a face's diagonals changes only that face, so the faces looked
    # up here stay current for every other one
    by_corners = {frozenset(real_corners(d, f)): f for f in _face_orbits(d)}
    for cyc in faces:
        if len(cyc) == 4:
            face = by_corners[frozenset(cyc)]
            w = real_corners(d, face)
            d.add_crossed(d.add_chord(face[0], w[0], w[2])[1], w[1], w[3])
    return d.freeze()


@cache
def k6_drawing() -> OnePlanarDrawing:
    """The canonical 1-planar K6: triangular prism plus crossed quad diagonals."""
    faces = [[0, 1, 2], [5, 4, 3], [0, 3, 4, 1], [1, 4, 5, 2], [2, 5, 3, 0]]
    return _with_crossed_quads(6, faces)


@cache
def cube_block_drawing() -> OnePlanarDrawing:
    """Cube plus both diagonals of each of its six faces (6-regular, 24 edges)."""
    quads = [
        [0, 1, 3, 2],
        [4, 6, 7, 5],
        [0, 4, 5, 1],
        [2, 3, 7, 6],
        [0, 2, 6, 4],
        [1, 5, 7, 3],
    ]
    return _with_crossed_quads(8, quads)


@cache
def mindeg7_block_drawing() -> OnePlanarDrawing:
    """24-vertex 7-regular simple 1-planar block.

    Skeleton: the 4-regular planar graph whose faces are 8 triangles and
    18 squares (one triangle per cube corner, one square per cube face
    and per cube edge; 24 vertices indexed 3*corner + axis).  Adding
    both diagonals inside every square raises all degrees to 7 while
    keeping one crossing per square.  Each cycle is listed, then reversed
    if its parity is odd, so that all faces run alike.
    """

    def vid(c: int, a: int) -> int:
        return 3 * c + a

    def oriented(cyc: list[int], parity: int) -> list[int]:
        return cyc[::-1] if parity % 2 else cyc

    tri = [oriented([vid(c, 0), vid(c, 1), vid(c, 2)], c.bit_count()) for c in range(8)]
    axial = []
    for s in (0, 1):
        axial.append(oriented([vid(s, 0), vid(s + 2, 0), vid(s + 6, 0), vid(s + 4, 0)], s))
        axial.append(
            oriented([vid(2 * s, 1), vid(2 * s + 1, 1), vid(2 * s + 5, 1), vid(2 * s + 4, 1)], s + 1)
        )
        axial.append(oriented([vid(4 * s, 2), vid(4 * s + 1, 2), vid(4 * s + 3, 2), vid(4 * s + 2, 2)], s))
    edgesq = []
    for c in range(8):
        for a in range(3):
            c2 = c ^ (1 << a)
            if c < c2:
                b1, b2 = [x for x in range(3) if x != a]
                cyc = [vid(c, b1), vid(c, b2), vid(c2, b2), vid(c2, b1)]
                edgesq.append(oriented(cyc, c.bit_count() + a + 1))
    return _with_crossed_quads(24, tri + axial + edgesq)


def _hub_family(name: str, block: OnePlanarDrawing, g: int, delta: int) -> FamilyInstance:
    """g copies of `block` glued at its vertex 0, the hub, which must be its pvertex 0.

    Copy k shifts the block's other vertex, pvertex, edge and segment ids by
    k times their counts there, and the hub's rotation runs the copies' hub
    fans from copy g-1 down to copy 0, so one face at the hub runs through
    every copy."""
    if g < 1:
        raise TooSmall(f"family {name} needs g >= 1, got {g}")
    nv, npv, ne, ns = block.n_real - 1, block.n_p - 1, len(block.edges), block.m_p
    drawing = OnePlanarDrawing(
        # the hub, vertex and pvertex 0, keeps its id in every copy
        edges=tuple([(u and u + k * nv, v + k * nv) for k in range(g) for u, v in block.edges]),
        pvertices=block.pvertices[:1] + tuple([
            DUMMY if vid == DUMMY else vid + k * nv for k in range(g) for vid in block.pvertices[1:]
        ]),
        org=tuple([p and p + k * npv for k in range(g) for p in block.org]),
        seg_eid=tuple([eid + k * ne for k in range(g) for eid in block.seg_eid]),
        rotations=(tuple([x + 2 * k * ns for k in range(g - 1, -1, -1) for x in block.rotations[0]]),)
        + tuple([tuple([x + 2 * k * ns for x in rot]) for k in range(g) for rot in block.rotations[1:]]),
    )
    return FamilyInstance(f"{name}-g{g}", drawing, delta, frozenset({0}), g - 1)


def family_delta5(g: int) -> FamilyInstance:
    """g complete graphs K6 sharing the hub vertex 0."""
    return _hub_family("delta5", k6_drawing(), g, 5)


def family_delta6(g: int) -> FamilyInstance:
    """g cube-plus-diagonals blocks sharing the hub vertex 0."""
    return _hub_family("delta6", cube_block_drawing(), g, 6)


def family_delta7(g: int) -> FamilyInstance:
    """g 24-vertex 7-regular blocks sharing the hub vertex 0."""
    return _hub_family("delta7", mindeg7_block_drawing(), g, 7)


FAMILIES = {
    "delta3": (family_delta3, "s"),
    "delta4": (family_delta4, "s"),
    "delta4-k5": (family_delta4_k5, "k"),
    "delta5": (family_delta5, "g"),
    "delta6": (family_delta6, "g"),
    "delta7": (family_delta7, "g"),
}


# ---------------------------------------------------------------------
# random corpus generator


def random_oneplanar(n: int, crossings: int, seed: int) -> OnePlanarDrawing:
    """Seeded random stacked triangulation plus disjoint crossing pairs.

    Each of the `crossings` chosen faces receives two auxiliary vertices
    and one crossing pair of new chords, so the result has n + 2*crossings
    real vertices.  Deterministic in (n, crossings, seed).
    """
    if n < 4:
        raise TooSmall(f"random drawing needs n >= 4, got {n}")
    if crossings < 0:
        raise TooSmall(f"random drawing needs crossings >= 0, got {crossings}")
    rng = SplitMix64(seed)
    d, fs = _stacked_triangulation(n, rng)
    if crossings > len(fs):
        raise TooManyCrossings(f"{crossings} crossings but only {len(fs)} faces")
    chosen = rng.sample_indices(len(fs), crossings)
    for fi in chosen:
        face = fs[fi]
        u, v, w = real_corners(d, face)
        z = d.n_real
        # the piece at z's spoke to v runs v, w, u, z
        spokes = d.insert_vertex(face[0], [u, v])
        y = d.n_real
        # the piece at y's spoke to w runs w, u, z, y
        spokes = d.insert_vertex(spokes[1], [w, z])
        chord = d.add_chord(spokes[0], z, w)
        d.add_crossed(chord[0], u, y)
    return d.freeze()


# ---------------------------------------------------------------------
# witness sidecar format


def write_witness(s: Iterable[int], deficiency: int, matching_upper: int) -> str:
    ids = " ".join(str(v) for v in sorted(s))
    return f"S: {ids}\ndeficiency: {deficiency}\nmatching_upper: {matching_upper}\n"


def parse_witness(text: str) -> tuple[frozenset[int], int, int]:
    fields: dict[str, str] = {}
    for ln in text.split("\n"):
        ln = ln.strip()
        if not ln:
            continue
        key, colon, value = ln.partition(":")
        if not colon or key not in ("S", "deficiency", "matching_upper"):
            raise ParseError(f"unknown witness line: {ln!r}")
        if key in fields:
            raise ParseError(f"repeated witness line: {ln!r}")
        fields[key] = value
    if len(fields) != 3:
        raise ParseError("witness file incomplete")
    try:
        s = frozenset(int(x) for x in fields["S"].split())
        return s, int(fields["deficiency"]), int(fields["matching_upper"])
    except ValueError as exc:
        raise ParseError(f"bad witness line: {exc}") from exc
