"""Combinatorial 1-planar drawings, stored as planarizations.

A drawing is a rotation system over *planarization vertices*: the real
vertices plus one degree-4 dummy per crossing.  Each original edge is one
segment (uncrossed) or two segments meeting at its dummy (crossed).  There
are no coordinates anywhere; planarity is checked through Euler's formula
on the face orbits of the rotation system.  Drawings are good: two edges
that share an endpoint never cross, so `validate` refuses such a dummy
and `_Builder.add_crossed` such an edge.

Conventions:
  * pvertices[p] is the real vertex id of pvertex p, or DUMMY for a
    crossing; a drawing's n_real counts its real pvertices;
  * a dart is the int 2*sid + end: it leaves segment `sid = x >> 1` from
    its endpoint `end = x & 1`, so its reversal is x ^ 1 and darts sort
    like (sid, end); the `1pg` text writes it as `sid.end`;
  * org[x] is the pvertex dart x leaves, and seg_eid[sid] the edge of
    segment sid; a crossed edge's two segments are its halves, part 1 at
    the edge's larger endpoint and part 0 at its smaller, and an uncrossed
    edge's one segment is part 0: nothing stores it, `_parts` derives
    every segment's in one pass over the dummies;
  * a crossing's two edges are the edges of the first two darts of its
    rotation, which a valid dummy alternates a, b, a, b;
  * rotations[p] lists, in cyclic order, the darts leaving p;
  * the face walk successor of a dart is the rotation successor of its
    reversal at the head vertex.

Surgeries (chord, vertex and crossed-edge insertion, and deletion) are
methods of the one mutable drawing, `_Builder`: each checks all its
preconditions before its first edit, edits the drawing in place and walks
only the faces it touches, each once, as in edge-addition planarity testing.
A face surgery takes a dart of its face, and `add_crossed` a dart of the
segment it crosses; chords and vertices return darts on the pieces.
`_Builder(d)` thaws a drawing into its tables plus `real_pid`, and
`freeze()` returns the edited one; generators and the charging engine
keep one builder for a whole construction.  Every chord goes at the first
pair of its ends' corners, in walk order, that is not a face side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadAttachment,
    BadVertex,
    InvalidDrawing,
    NotOnFace,
    ParseError,
    WouldCreateBigon,
)
from .graph import Graph, header_counts

DUMMY = -1  # the pvertex entry of a crossing


class _Planarization:
    """Lookups shared by the frozen drawing and its mutable builder."""

    @property
    def n_p(self) -> int:
        return len(self.pvertices)

    @property
    def m_p(self) -> int:
        return len(self.seg_eid)

    def crossing_edges(self, pid: int) -> tuple[int, int]:
        """The two edges crossing at dummy pid, smaller id first."""
        rot = self.rotations[pid]
        a, b = self.seg_eid[rot[0] >> 1], self.seg_eid[rot[1] >> 1]
        return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class OnePlanarDrawing(_Planarization):
    edges: tuple[tuple[int, int], ...]  # original edges, (u, v) with u < v
    pvertices: tuple[int, ...]  # real vertex id, or DUMMY
    org: tuple[int, ...]  # dart -> the pvertex it leaves
    seg_eid: tuple[int, ...]  # segment -> its edge
    rotations: tuple[tuple[int, ...], ...]

    # -- lookups, computed once per drawing ---------------------------

    @cached_property
    def n_real(self) -> int:
        return len(self.pvertices) - self.pvertices.count(DUMMY)

    @cached_property
    def real_pid(self) -> dict[int, int]:
        return {vid: pid for pid, vid in enumerate(self.pvertices) if vid != DUMMY}

    @cached_property
    def edge_derivation(self) -> _EdgeDerivation:
        """Each edge as its segments make it (see `_derive_edges`)."""
        return _derive_edges(self.pvertices, self.org, self.seg_eid, len(self.edges))

    @cached_property
    def crossed_eids(self) -> frozenset[int]:
        return frozenset(eid for eid, sids in enumerate(self.edge_derivation.sids) if len(sids) == 2)

    @cached_property
    def graph(self) -> Graph:
        return Graph(self.n_real, tuple(sorted(self.edges)))

    @cached_property
    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) != len(self.edges)

    @cached_property
    def _incidence(self) -> list[list[int]]:
        table: list[list[int]] = [[] for _ in range(self.n_real)]
        for eid, (a, b) in enumerate(self.edges):
            table[a].append(eid)
            if b != a:
                table[b].append(eid)
        return table

    @cached_property
    def _validation(self) -> ValidationReport:
        return _validate_uncached(self)

    def incident_eids(self, v: int) -> list[int]:
        if not (0 <= v < self.n_real):
            raise BadVertex(f"vertex {v} not a real vertex (n={self.n_real})")
        return self._incidence[v]


# a face is its boundary walk of darts, canonically rotated, so faces
# compare, hash and sort as plain tuples
Face = tuple[int, ...]


def corner_positions(d: _Planarization, face: Face) -> list[tuple[int, int]]:
    """(walk position, vid) for every real corner occurrence of `face`."""
    out = []
    for i, x in enumerate(face):
        vid = d.pvertices[d.org[x]]
        if vid != DUMMY:
            out.append((i, vid))
    return out


def real_corners(d: _Planarization, face: Face) -> tuple[int, ...]:
    return tuple([vid for _, vid in corner_positions(d, face)])


def _canonical_walk(walk: Sequence[int]) -> tuple[int, ...]:
    """The walk rotated to start at its first smallest dart; empty stays empty."""
    k = walk.index(min(walk)) if walk else 0
    return tuple(walk[k:]) + tuple(walk[:k])


def _darts_text(darts: Iterable[int]) -> str:
    """The `1pg` text of darts: `sid.end`, space separated."""
    return " ".join(f"{x >> 1}.{x & 1}" for x in darts)


# ---------------------------------------------------------------------
# validation and face traversal


@dataclass(frozen=True)
class ValidationReport:
    """Violations of a drawing; a valid drawing's report also keeps its
    canonically ordered faces."""

    violations: tuple[str, ...]
    faces: tuple[Face, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations


class _EdgeDerivation(NamedTuple):
    sids: list[list[int]]  # edge id -> its segment ids
    edges: list[tuple[int, int] | None]  # the endpoints they join, None if they join none
    violations: list[str]


def _derive_edges(pvertices: Sequence[int], org: Sequence[int], seg_eid: Sequence[int], n_edges: int) -> _EdgeDerivation:
    """Each edge's segments and the real endpoints they join.

    An uncrossed edge is one segment between two real pvertices.  A crossed
    edge is two segments, one from each of its real endpoints to one dummy.
    The two real endpoints differ, so no derived edge is a loop.
    `parse_drawing` takes its edges from here and `validate` checks a
    drawing's edges against them.
    """
    n_p = len(pvertices)
    groups: list[list[int]] = [[] for _ in range(n_edges)]
    if len(org) != 2 * len(seg_eid):
        return _EdgeDerivation(groups, [], ["origin table size differs from two per segment"])
    bad: list[str] = []
    for sid, eid in enumerate(seg_eid):
        a, b = org[2 * sid], org[2 * sid + 1]
        for p in (a, b):
            if not (0 <= p < n_p):
                bad.append(f"segment {sid} endpoint {p} out of range")
        if a == b:
            bad.append(f"segment {sid} is a loop at pvertex {a}")
        if 0 <= eid < n_edges:
            groups[eid].append(sid)
        else:
            bad.append(f"segment {sid} edge id {eid} out of range")
    if bad:
        return _EdgeDerivation(groups, [], bad)

    edges: list[tuple[int, int] | None] = [None] * n_edges
    for eid, sids in enumerate(groups):
        if len(sids) == 1:
            u, v = pvertices[org[2 * sids[0]]], pvertices[org[2 * sids[0] + 1]]
            if DUMMY in (u, v):
                bad.append(f"edge {eid} segment does not join two real vertices")
            elif u == v:
                bad.append(f"edge {eid} is a loop")
            else:
                edges[eid] = (u, v) if u < v else (v, u)
        elif len(sids) == 2:
            # the dart of each segment that leaves its real end
            x0, x1 = (2 * sid + (pvertices[org[2 * sid]] == DUMMY) for sid in sids)
            (a0, d0), (a1, d1) = (org[x0], org[x0 ^ 1]), (org[x1], org[x1 ^ 1])
            u, v = pvertices[a0], pvertices[a1]
            if d0 != d1 or pvertices[d0] != DUMMY or DUMMY in (u, v):
                bad.append(f"edge {eid} segments do not share one dummy")
            elif u == v:
                bad.append(f"edge {eid} is a loop")
            else:
                edges[eid] = (u, v) if u < v else (v, u)
        else:
            bad.append(f"edge {eid} has {len(sids)} segments, not 1 or 2")
    return _EdgeDerivation(groups, edges, bad)


def _rotation_faults(d: OnePlanarDrawing) -> list[str]:
    """Faults that stop a face walk: each dart must sit exactly once in the
    rotation at its origin."""
    if len(d.rotations) != d.n_p:
        return ["rotation table size differs from pvertex count"]
    org = d.org
    placed = [False] * len(org)
    bad: set[int] = set()
    for p, rot in enumerate(d.rotations):
        for x in rot:
            if 0 <= x < len(org) and org[x] == p and not placed[x]:
                placed[x] = True
            else:
                bad.add(p)
    if not all(placed):
        bad.update(org[x] for x, ok in enumerate(placed) if not ok)
    return [
        f"rotation at pvertex {p} inconsistent with incident segments"
        for p in sorted(bad)
        if 0 <= p < d.n_p  # an out-of-range origin is a segment fault
    ]


def _face_orbits(d: _Planarization) -> list[Face]:
    """All face walks of the rotation system, canonically ordered."""
    # the successor of a dart is the rotation successor of its reversal
    successor = [0] * (2 * d.m_p)
    for rot in d.rotations:
        for x, y in zip(rot, rot[1:] + rot[:1]):
            successor[x ^ 1] = y

    # darts are taken in ascending order, so each walk starts at its
    # smallest dart and the faces come out canonically rotated and sorted
    seen = [False] * len(successor)
    out: list[Face] = []
    for start in range(len(successor)):
        walk, x = [], start
        while not seen[x]:
            seen[x] = True
            walk.append(x)
            x = successor[x]
        if walk:
            out.append(tuple(walk))
    return out


def _face_at(d: _Planarization, start: int) -> Face:
    """The canonical orbit through `start`, found by walking that face alone."""
    walk = [start]
    while True:
        r = walk[-1] ^ 1
        rot = d.rotations[d.org[r]]
        x = rot[(rot.index(r) + 1) % len(rot)]
        if x == start:
            return _canonical_walk(walk)
        walk.append(x)


def _component_count(d: OnePlanarDrawing) -> int:
    """The number of connected components of the planarization."""
    org, seen = d.org, [False] * d.n_p
    k = 0
    for start in range(d.n_p):
        if seen[start]:
            continue
        k += 1
        seen[start] = True
        stack = [start]
        while stack:
            for x in d.rotations[stack.pop()]:
                q = org[x ^ 1]
                if not seen[q]:
                    seen[q] = True
                    stack.append(q)
    return k


def validate(d: OnePlanarDrawing) -> ValidationReport:
    """Check every structural invariant; an empty report means the drawing is valid.

    Drawings are immutable, so the report is computed once per instance.
    """
    return d._validation


def _validate_uncached(d: OnePlanarDrawing) -> ValidationReport:
    # n_real real ids, distinct and in range, name every vertex once
    bad: list[str] = []
    real_seen: set[int] = set()
    for pid, vid in enumerate(d.pvertices):
        if vid == DUMMY:
            continue
        if not (0 <= vid < d.n_real):
            bad.append(f"pvertex {pid} real id {vid} out of range")
        elif vid in real_seen:
            bad.append(f"real vertex {vid} has two pvertices")
        else:
            real_seen.add(vid)

    # each edge must be the one its segments join, which also puts its
    # endpoints in range and in order; a parsed drawing keeps the derivation
    # its parser made
    derived = d.edge_derivation
    bad.extend(derived.violations)
    bad.extend(
        f"edge {eid} segments do not join its endpoints"
        for eid, e in enumerate(derived.edges)
        if e is not None and e != d.edges[eid]
    )
    bad.extend(_rotation_faults(d))
    if bad:
        return ValidationReport(tuple(bad))

    # dummies: degree four, alternating between two crossing edges that
    # share no endpoint (the drawing is good)
    for pid, vid in enumerate(d.pvertices):
        if vid != DUMMY:
            continue
        rot = d.rotations[pid]
        if len(rot) != 4:
            bad.append(f"dummy {pid} degree != 4")
            continue
        eids = [d.seg_eid[x >> 1] for x in rot]
        if eids[0] != eids[2] or eids[1] != eids[3] or eids[0] == eids[1]:
            bad.append(f"dummy {pid} rotation does not alternate (a,b,a,b)")
            continue
        (u, v), ends = d.edges[eids[0]], d.edges[eids[1]]
        if u in ends or v in ends:
            a, b = sorted(eids[:2])
            bad.append(f"dummy {pid} crosses edges {a} and {b}, which share vertex {u if u in ends else v}")
    if bad:
        return ValidationReport(tuple(bad))

    # planarity: a component has n - m + f = 2 - 2g for its genus g, and an
    # isolated pvertex (no faces) has 1, so all are planar iff the sums
    # reach 2 per component less 1 per isolated pvertex
    orbits = _face_orbits(d)
    k = _component_count(d)
    planar = 2 * k - sum(1 for rot in d.rotations if not rot)
    if d.n_p - d.m_p + len(orbits) != planar:
        bad.append(f"fails Euler: n={d.n_p} m={d.m_p} f={len(orbits)} in {k} components, want n - m + f = {planar}")

    # bigons are forbidden: a face of two darts on two segments (one segment
    # walked both ways is a bridge) joins two real vertices by parallel
    # edges, since a dummy's neighbouring segments share no real end
    if not bad:
        bad.extend(f"bigon face {_darts_text(f)}" for f in orbits if len(f) == 2 and f[0] >> 1 != f[1] >> 1)
    if bad:
        return ValidationReport(tuple(bad))
    return ValidationReport((), tuple(orbits))


def _require_valid(d: OnePlanarDrawing) -> ValidationReport:
    report = validate(d)
    if not report.valid:
        raise InvalidDrawing("; ".join(report.violations))
    return report


def crossing_weighted_degree(d: OnePlanarDrawing, v: int) -> int:
    """Degree plus the number of incident uncrossed edges (uncrossed count double)."""
    eids = d.incident_eids(v)
    crossed = d.crossed_eids
    return len(eids) + sum(1 for eid in eids if eid not in crossed)


# ---------------------------------------------------------------------
# the mutable drawing every surgery edits


class _Builder(_Planarization):
    """One drawing under construction; each surgery edits it in place.

    It is the drawing's own tables, as lists, plus `real_pid`, the pvertex
    of each real vertex.  New edges, pvertices and segments are appended,
    so ids keep their creation order, and a new edge may parallel an
    existing one.  A face surgery walks the face of its dart once, and
    `add_chord` and `insert_vertex` return darts on the pieces, unwalked:
    callers walk only the pieces they read.
    """

    def __init__(self, d: OnePlanarDrawing):
        self._load(list(d.edges), list(d.pvertices), list(d.org), list(d.seg_eid), [list(r) for r in d.rotations])

    def _load(self, edges, pvertices, org, seg_eid, rotations) -> None:
        self.edges: list[tuple[int, int]] = edges
        self.pvertices: list[int] = pvertices
        self.org: list[int] = org
        self.seg_eid: list[int] = seg_eid
        self.rotations: list[list[int]] = rotations
        self.real_pid = {vid: pid for pid, vid in enumerate(pvertices) if vid != DUMMY}

    @property
    def n_real(self) -> int:
        return len(self.real_pid)

    def freeze(self) -> OnePlanarDrawing:
        return OnePlanarDrawing(
            edges=tuple(self.edges),
            pvertices=tuple(self.pvertices),
            org=tuple(self.org),
            seg_eid=tuple(self.seg_eid),
            rotations=tuple(tuple(r) for r in self.rotations),
        )

    # -- appending --------------------------------------------------

    def new_edge(self, u: int, v: int) -> int:
        self.edges.append((u, v) if u < v else (v, u))
        return len(self.edges) - 1

    def new_pvertex(self, vid: int) -> int:
        """A new pvertex with an empty rotation: real vertex vid, or DUMMY."""
        pid = len(self.pvertices)
        self.pvertices.append(vid)
        self.rotations.append([])
        if vid != DUMMY:
            self.real_pid[vid] = pid
        return pid

    def new_segment(self, a: int, b: int, eid: int) -> int:
        self.org += (a, b)
        self.seg_eid.append(eid)
        return len(self.seg_eid) - 1

    def insert_before(self, anchor: int, new: int) -> None:
        """Insert `new` into the rotation at anchor's origin, directly before `anchor`."""
        rot = self.rotations[self.org[anchor]]
        rot.insert(rot.index(anchor), new)

    # -- surgeries --------------------------------------------------

    def _dart(self, x: int) -> int:
        """x, which must be a dart of this drawing: every such dart lies on one face."""
        if not (0 <= x < 2 * self.m_p):
            raise NotOnFace(f"dart {x} is not a dart of this drawing")
        return x

    def add_chord(self, x: int, u: int, v: int) -> tuple[int, int]:
        """Split the face of dart x by chord (u, v) at the first pair of u's and v's
        corners that is not a face side (`_bigon_free`); returns the chord's darts."""
        face = _face_at(self, self._dart(x))
        if u == v:
            raise NotOnFace("chord endpoints must differ")
        org, pu, pv = self.org, self.real_pid.get(u), self.real_pid.get(v)
        at_u, at_v = [], []
        for pos, y in enumerate(face):
            if org[y] == pu:
                at_u.append(pos)
            elif org[y] == pv:
                at_v.append(pos)
        if not at_u or not at_v:
            raise NotOnFace(f"vertex {v if at_u else u} is not a corner of the face")
        if (occ := _bigon_free(at_u, at_v, len(face))) is None:
            raise WouldCreateBigon(f"chord ({u},{v}) duplicates a face side")
        i, j = occ
        eid = self.new_edge(u, v)
        sid = self.new_segment(pu, pv, eid)
        self.insert_before(face[i], 2 * sid)
        self.insert_before(face[j], 2 * sid + 1)
        return 2 * sid, 2 * sid + 1

    def insert_vertex(self, x: int, attach: Sequence[int]) -> list[int]:
        """Join new real vertex n_real to k >= 2 corners of the face of dart x;
        returns the spokes leaving it, in `attach` order.  The piece through
        attach[i]'s spoke runs from that corner along the old face to the
        next attachment."""
        face = _face_at(self, self._dart(x))
        first = _first_positions(self, face)
        for vid in attach:
            if vid not in first:
                raise BadAttachment(f"vertex {vid} is not a corner of the face")
        if len(set(attach)) != len(attach) or len(attach) < 2:
            raise BadAttachment("attachments must be distinct corners")
        z = self.n_real
        pz = self.new_pvertex(z)
        spokes = [0] * len(attach)
        for pos, i in sorted((first[vid], i) for i, vid in enumerate(attach)):
            sid = self.new_segment(self.org[face[pos]], pz, self.new_edge(attach[i], z))
            self.insert_before(face[pos], 2 * sid)
            spokes[i] = 2 * sid + 1
        # made in walk order, the spokes run against it around z
        self.rotations[pz] = sorted(spokes, reverse=True)
        return spokes

    def add_crossed(self, x: int, u: int, v: int) -> None:
        """Add edge (u, v) across the uncrossed segment of dart x, u a corner of
        the face of x and v of the face of x ^ 1; neither may be an end of the
        segment's edge, so the drawing stays good."""
        sid_c, org, rotations = self._dart(x) >> 1, self.org, self.rotations
        cross = self.edges[self.seg_eid[sid_c]]
        if u == v:
            raise NotOnFace("crossing edge endpoints must differ")
        if u in cross or v in cross:
            raise NotOnFace(f"({u},{v}) shares an endpoint with edge {cross}")
        # a crossed half ends at a dummy
        if DUMMY in (self.pvertices[org[x]], self.pvertices[org[x ^ 1]]):
            raise NotOnFace(f"edge {cross} is already crossed")
        side_u, side_v = _face_at(self, x), _face_at(self, x ^ 1)
        if side_u == side_v:
            raise NotOnFace(f"edge {cross} has one face on both sides")
        # u and v are attached at their first corners on these walks, which
        # the split leaves in place: it renames only the dart leaving pb, an
        # end of `cross`
        first_u, first_v = _first_positions(self, side_u), _first_positions(self, side_v)
        if u not in first_u or v not in first_v:
            raise NotOnFace(f"({u},{v}) do not sit on opposite sides of edge {cross}")
        new_eid = self.new_edge(u, v)
        at_u, at_v = side_u[first_u[u]], side_v[first_v[v]]

        # split the crossed segment pa -> pb at a fresh dummy pD: it now ends
        # at pD, and a new segment runs on from pD to pb
        pb = org[2 * sid_c + 1]
        pD = self.new_pvertex(DUMMY)
        org[2 * sid_c + 1] = pD
        sid_c2 = self.new_segment(pD, pb, self.seg_eid[sid_c])
        # splice: at pb the old dart is renamed to the new segment
        rot_b = rotations[pb]
        rot_b[rot_b.index(2 * sid_c + 1)] = 2 * sid_c2 + 1
        rotations[pD] = [2 * sid_c + 1, 2 * sid_c2]

        # each half of (u, v) is attached at its first corner on its own side:
        # the face of dart 2*sid_c runs pa -> pD -> pb and leaves pD by
        # 2*sid_c2, the face of 2*sid_c + 1 runs pb -> pD -> pa and leaves pD
        # by 2*sid_c + 1; the half on the first is made first
        at_a, at_b = (at_v, at_u) if x & 1 else (at_u, at_v)
        for at, corner in ((at_a, 2 * sid_c2), (at_b, 2 * sid_c + 1)):
            sid = self.new_segment(org[at], pD, new_eid)
            self.insert_before(at, 2 * sid)
            self.insert_before(corner, 2 * sid + 1)

    def delete_edges(self, eids: Iterable[int]) -> None:
        """Remove edges, uncrossing their partners; what is kept keeps its order."""
        removed = set(eids)
        for eid in removed:
            if not (0 <= eid < len(self.edges)):
                raise BadVertex(f"edge id {eid} out of range")

        # a dummy dies with either of its edges, and its kept partner becomes
        # one segment again
        dead: set[int] = set()
        merged: set[int] = set()
        for pid, vid in enumerate(self.pvertices):
            if vid == DUMMY and not removed.isdisjoint(pair := self.crossing_edges(pid)):
                dead.add(pid)
                merged.update(eid for eid in pair if eid not in removed)
        kept = [eid for eid in range(len(self.edges)) if eid not in removed]
        new_eid = {eid: i for i, eid in enumerate(kept)}
        new_pid = {pid: i for i, pid in enumerate(p for p in range(len(self.pvertices)) if p not in dead)}

        # segments edge by edge, part 0 first; a dart maps to its new id
        part = _parts(self)
        org: list[int] = []
        seg_eid: list[int] = []
        new_dart = [-1] * len(self.org)
        edge_sids: list[list[int]] = [[] for _ in self.edges]
        for sid, eid in enumerate(self.seg_eid):
            edge_sids[eid].append(sid)
        for eid in kept:
            sids = edge_sids[eid]
            if eid in merged:
                pu, pv = (self.real_pid[vid] for vid in self.edges[eid])
                for sid in sids:
                    for x in (2 * sid, 2 * sid + 1):
                        if self.org[x] not in dead:
                            new_dart[x] = len(org) + (self.org[x] == pv)
                org += (new_pid[pu], new_pid[pv])
                seg_eid.append(new_eid[eid])
                continue
            if len(sids) == 2 and part[sids[0]]:
                sids = sids[::-1]
            for sid in sids:
                new_dart[2 * sid], new_dart[2 * sid + 1] = len(org), len(org) + 1
                org += (new_pid[self.org[2 * sid]], new_pid[self.org[2 * sid + 1]])
                seg_eid.append(new_eid[eid])

        self._load(
            [self.edges[eid] for eid in kept],
            [vid for pid, vid in enumerate(self.pvertices) if pid not in dead],
            org,
            seg_eid,
            [
                [y for x in rot if (y := new_dart[x]) >= 0]
                for pid, rot in enumerate(self.rotations)
                if pid not in dead
            ],
        )


def _bigon_free(u_pos: list[int], v_pos: list[int], k: int) -> tuple[int, int] | None:
    """The first pair of walk positions, one from each list, not adjacent on a k-walk."""
    for pi in u_pos:
        for pj in v_pos:
            if (pj - pi) % k != 1 and (pi - pj) % k != 1:
                return pi, pj
    return None


def _first_positions(d: _Planarization, face: Face) -> dict[int, int]:
    """Each real corner of the walk -> its first walk position (read in reverse, so the first wins)."""
    return {vid: i for i, vid in reversed(corner_positions(d, face))}


# ---------------------------------------------------------------------
# constructors


def drawing_from_faces(n: int, cycles: Sequence[Sequence[int]]) -> OnePlanarDrawing:
    """The drawing on vertices 0..n-1 whose faces are `cycles`.

    Each cycle lists a face's vertices, all cycles oriented alike, so every
    side is run once in each direction.  A face running u, v, w puts the
    dart to w directly after the dart to u in the rotation at v; each
    rotation starts at the smallest neighbour.
    """
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    sides: set[tuple[int, int]] = set()
    for cyc in cycles:
        for i, v in enumerate(cyc):
            u, w = cyc[i - 1], cyc[(i + 1) % len(cyc)]
            if not (0 <= v < n):
                raise InvalidDrawing(f"vertex {v} out of range (n={n})")
            if v == w or (v, w) in sides:
                raise InvalidDrawing(f"side ({v},{w}) is a loop or run twice in one direction")
            sides.add((v, w))
            succ[v][u] = w
    for v, w in sorted(sides):
        if (w, v) not in sides:
            raise InvalidDrawing(f"side ({v},{w}) is run in one direction only")

    # the sides both ways make each succ[v] a permutation of v's neighbours;
    # an isolated vertex gets the one-entry order [v] and fails the count
    edges = sorted(side for side in sides if side[0] < side[1])
    eid_of = {e: eid for eid, e in enumerate(edges)}
    rotations = []
    for v, nbrs in enumerate(succ):
        order = [min(nbrs, default=v)]
        while nbrs and (w := nbrs[order[-1]]) != order[0]:
            order.append(w)
        if len(order) != len(nbrs):
            raise InvalidDrawing(f"vertex {v} is not on exactly one cycle of corners")
        rotations.append(tuple(2 * eid_of[min(v, w), max(v, w)] + (v > w) for w in order))
    return OnePlanarDrawing(
        edges=tuple(edges),
        pvertices=tuple(range(n)),
        org=tuple([p for e in edges for p in e]),
        seg_eid=tuple(range(len(edges))),
        rotations=tuple(rotations),
    )


# ---------------------------------------------------------------------
# `1pg` text format


def _parts(d: _Planarization) -> list[int]:
    """Every segment's part, from one pass over the dummies' darts: a half
    of a crossed edge that ends at the edge's larger endpoint is 1, all else 0."""
    pvertices, org, seg_eid, edges, rotations = d.pvertices, d.org, d.seg_eid, d.edges, d.rotations
    part = [0] * len(seg_eid)
    for pid, vid in enumerate(pvertices):
        if vid == DUMMY:
            for x in rotations[pid]:
                if pvertices[org[x ^ 1]] == edges[seg_eid[x >> 1]][1]:
                    part[x >> 1] = 1
    return part


def write_drawing(d: OnePlanarDrawing) -> str:
    """The `1pg` text of d, written from its tables: each id is stringified
    once, and every part comes from `_parts`."""
    pvertices, org, seg_eid, rotations = d.pvertices, d.org, d.seg_eid, d.rotations
    n_p, m_p, n_real = len(pvertices), len(seg_eid), d.n_real
    ids = list(map(str, range(max(n_p, m_p))))
    lines = [f"1pg {n_real} {n_p - n_real} {m_p}"]
    for pid, vid in enumerate(pvertices):
        if vid != DUMMY:
            lines.append(f"pv {ids[pid]} real {ids[vid]}")
            continue
        a, b = d.crossing_edges(pid)
        lines.append(f"pv {ids[pid]} dummy {ids[a]} {ids[b]}")
    segs = zip(ids, org[0::2], org[1::2], seg_eid, _parts(d))
    lines += [f"seg {s} {ids[a]} {ids[b]} {ids[e]} {ids[p]}" for s, a, b, e, p in segs]
    # each dart's `sid.end`, once; a rotation starts at its smallest dart
    dart = [s + end for s in ids[:m_p] for end in (".0", ".1")].__getitem__
    for pid, rot in enumerate(rotations):
        if not rot:
            lines.append(f"rot {ids[pid]}:")
            continue
        k = rot.index(min(rot))
        lines.append(f"rot {ids[pid]}: " + " ".join(map(dart, rot[k:] + rot[:k])))
    return "\n".join(lines) + "\n"


def parse_drawing(text: str) -> OnePlanarDrawing:
    """Read a `1pg` text: records in any order, each id exactly once."""
    lines = [ln for ln in text.split("\n") if ln and not ln.isspace()]
    n_real, n_dummy, n_seg = header_counts(lines[0].split() if lines else [], "1pg", 3)
    n_p = n_real + n_dummy
    # the slots below are allocated only once the text has a line for each
    if len(lines) - 1 < n_p + n_seg:
        raise ParseError(f"header counts {n_p} pvertices and {n_seg} segments, text has fewer records")
    pvs: list[int | None] = [None] * n_p
    seg_eid: list[int | None] = [None] * n_seg
    org = [0] * (2 * n_seg)
    rots: list[tuple[int, ...] | None] = [None] * n_p
    # each dummy's edge pair and each segment's part, checked against the drawing
    named: dict[int, tuple[int, int]] = {}
    stated = [0] * n_seg
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0]
        try:
            if kind == "seg":
                _, sid, a, b, eid, part = parts
                slots, i, record = seg_eid, int(sid), int(eid)
                a, b, part = int(a), int(b), int(part)
            elif kind == "rot":
                _, tag, *tokens = parts
                if tag[-1:] != ":":
                    raise ValueError("rot id without colon")
                darts = []
                for tok in tokens:
                    s, e = tok.split(".")
                    s, e = int(s), int(e)
                    # a dart is 2*sid + end, so `6.2` would alias `7.0`
                    if s < 0 or e not in (0, 1):
                        raise ValueError(f"bad dart {tok!r}")
                    darts.append(2 * s + e)
                slots, i, record = rots, int(tag[:-1]), tuple(darts)
            # a real id is not negative, or it could read as DUMMY
            elif kind == "pv" and len(parts) == 4 and parts[2] == "real" and parts[3][:1] != "-":
                slots, i, record = pvs, int(parts[1]), int(parts[3])
            elif kind == "pv" and len(parts) == 5 and parts[2] == "dummy":
                slots, i, record = pvs, int(parts[1]), DUMMY
                named[i] = (int(parts[3]), int(parts[4]))
            else:
                raise ValueError("unknown record")
        except ValueError as exc:
            raise ParseError(f"bad line: {ln!r}") from exc
        if not (0 <= i < len(slots)):
            raise ParseError(f"{kind} id {i} out of range: {ln!r}")
        if slots[i] is not None:
            raise ParseError(f"repeated {kind} record: {ln!r}")
        slots[i] = record
        if kind == "seg":
            org[2 * i], org[2 * i + 1], stated[i] = a, b, part
    if None in pvs or None in seg_eid:
        raise ParseError("record ids disagree with header counts")
    if len(named) != n_dummy:
        raise ParseError(f"header counts {n_real} real vertices, text has {n_p - len(named)}")

    # edge ids are dense, so there are at most as many edges as segments
    n_edges = 1 + max(seg_eid, default=-1)
    if n_edges > n_seg:
        raise ParseError("edge ids are not dense")
    derived = _derive_edges(pvs, org, seg_eid, n_edges)
    if derived.violations:
        raise ParseError("invalid drawing: " + "; ".join(derived.violations))
    d = OnePlanarDrawing(
        edges=tuple(derived.edges),
        pvertices=tuple(pvs),
        org=tuple(org),
        seg_eid=tuple(seg_eid),
        rotations=tuple([r or () for r in rots]),
    )
    d.__dict__["edge_derivation"] = derived
    report = validate(d)
    if not report.valid:
        raise ParseError("invalid drawing: " + "; ".join(report.violations))
    # a dummy record names the edges its rotation crosses, smaller first
    for pid, (a, b) in named.items():
        if (a, b) != (want := d.crossing_edges(pid)):
            raise ParseError(f"pv {pid} dummy {a} {b}: its rotation makes it dummy {want[0]} {want[1]}")
    # a seg record states its segment's part; the smallest wrong one is reported
    for sid, want in enumerate(_parts(d)):
        if stated[sid] != want:
            record = f"seg {sid} {org[2 * sid]} {org[2 * sid + 1]} {seg_eid[sid]} {stated[sid]}"
            raise ParseError(f"{record}: its edge makes it part {want}")
    return d
