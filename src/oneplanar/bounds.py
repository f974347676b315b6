"""Inequality checkers and the charging engine for independent-set bounds.

The checks come in three layers:
  * the bipartite edge budget and the degree-class bounds for an
    independent set T in a 1-planar drawing (plain and
    crossing-weighted), verified instance by instance;
  * the charging scheme that proves them: bipartitize, saturate with
    uncrossed chords, insert auxiliary vertices into T-heavy faces,
    assign 6/3/2 charges and audit every per-vertex lower bound;
  * deficiency bounds odd(G-S) - |S| for minimum degree 3/4/5 and the
    end-to-end matching lower-bound certifier, both read from one
    per-delta table (BOUNDS).

All comparisons are exact (integers and fractions.Fraction).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .embedding import (
    Face,
    OnePlanarDrawing,
    _Builder,
    _Planarization,
    _bigon_free,
    _darts_text,
    _face_at,
    _require_valid,
    corner_positions,
    crossing_weighted_degree,
    real_corners,
    validate,
)
from .errors import (
    BadVertex,
    DegreeTooLow,
    EmptyT,
    InvalidDrawing,
    NoProvenance,
    NotBipartite,
    NotIndependent,
    STooSmall,
    TooSmall,
)
from .graph import Graph, is_independent, min_degree, odd_components
from .matcher import check_matching, matching_upper_from_witness, maximum_matching
from .rng import SplitMix64


@dataclass(frozen=True)
class BoundCheck:
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def tight(self) -> bool:
        return self.lhs == self.rhs


def _check_t_preconditions(d: OnePlanarDrawing, t: frozenset[int]) -> Graph:
    if not t:
        raise EmptyT("independent set T must be non-empty")
    _require_valid(d)
    if d.has_parallel_edges:
        raise InvalidDrawing("degree bounds require a drawing without parallel edges")
    g = d.graph
    for v in t:
        if not (0 <= v < g.n):
            raise BadVertex(f"vertex {v} out of range")
        if g.degree(v) < 3:
            raise DegreeTooLow(f"vertex {v} has degree {g.degree(v)} < 3")
    if not is_independent(g, t):
        raise NotIndependent("T contains an edge")
    return g


def check_degree_bound(d: OnePlanarDrawing, t: Iterable[int]) -> BoundCheck:
    """Degree-class inequality 2|T_3| + sum_{d>=4} (3d-6)|T_d| <= 12|V-T| - 24."""
    return _degree_class_bound(d, t, lambda v: d.graph.degree(v), lambda deg: 2 if deg == 3 else 3 * deg - 6)


def check_cw_degree_bound(d: OnePlanarDrawing, t: Iterable[int]) -> BoundCheck:
    """Crossing-weighted variant 2|W_3| + 2|W_4| + sum_{d>=5} (3d-12)|W_d| <= 12|V-T| - 24."""
    return _degree_class_bound(
        d, t, lambda v: crossing_weighted_degree(d, v), lambda deg: 2 if deg in (3, 4) else 3 * deg - 12
    )


def _degree_class_bound(d: OnePlanarDrawing, t: Iterable[int], key, weight) -> BoundCheck:
    """sum of weight(key(v)) over v in T <= 12|V-T| - 24, key the degree or
    the crossing-weighted degree: per class of T, weight(deg) * |class|."""
    members = frozenset(t)
    g = _check_t_preconditions(d, members)
    lhs = sum(weight(key(v)) for v in members)
    rhs = 12 * (g.n - len(members)) - 24
    return BoundCheck(Fraction(lhs), Fraction(rhs))


def check_bipartite_edge_budget(
    d: OnePlanarDrawing, bipartition: tuple[Iterable[int], Iterable[int]]
) -> BoundCheck:
    """The bipartite edge budget m_x/2 + m_- <= 2n - 4 on a bigon-free
    drawing, m_x and m_- its crossed and uncrossed edges, each parallel
    copy counted."""
    _require_valid(d)
    if d.n_real < 3:
        raise TooSmall("edge budget needs n >= 3")
    side0, side1 = (frozenset(side) for side in bipartition)
    if side0 & side1 or side0 | side1 != frozenset(range(d.n_real)):
        raise NotBipartite("sides do not partition the vertex set")
    for u, v in d.edges:
        if (u in side0) == (v in side0):
            raise NotBipartite(f"edge ({u},{v}) inside one side")
    m_x = len(d.crossed_eids)
    m_uncrossed = len(d.edges) - m_x
    return BoundCheck(Fraction(m_x, 2) + m_uncrossed, Fraction(2 * d.n_real - 4))


# ---------------------------------------------------------------------
# the charging engine


@dataclass(frozen=True)
class ChargeLedger:
    base: OnePlanarDrawing  # after step 0 (S-S edges removed)
    gamma_prime: OnePlanarDrawing  # after step 1 (chord saturation)
    final: OnePlanarDrawing  # after step 2 (auxiliary vertices)
    s: frozenset[int]
    t: frozenset[int]
    added_chords: tuple[tuple[int, int], ...]
    delta_attach: tuple[tuple[int, tuple[int, int, int]], ...]  # (aux vertex, its T-corners)
    delta_edges: tuple[tuple[int, int], ...]
    charge_class: tuple[tuple[int, int], ...]  # (eid in final, 6|3|2)
    vertex_charge: tuple[tuple[int, int], ...]  # (t vid, c(t))
    totals: tuple[int, int]  # (sum of charges, 12|S| + 12|T| - 24)

    @property
    def delta_vertices(self) -> tuple[int, ...]:
        return tuple(z for z, _ in self.delta_attach)


class _FaceRecord(NamedTuple):
    """What the charging engine reads of one face, once, when the face appears."""

    s_occ: dict[int, list[int]]  # S-corner -> its walk positions
    t_occ: dict[int, list[int]]  # T-corner -> its walk positions
    pairs: list[tuple[int, int]]  # every (S-corner, T-corner), sorted
    chord: tuple[int, int] | None  # the first pair with a bigon-free chord


def _face_record(d: _Planarization, face: Face, s: frozenset[int], t: frozenset[int]) -> _FaceRecord:
    s_occ: dict[int, list[int]] = {}
    t_occ: dict[int, list[int]] = {}
    for pos, vid in corner_positions(d, face):
        if vid in s:
            s_occ.setdefault(vid, []).append(pos)
        elif vid in t:
            t_occ.setdefault(vid, []).append(pos)
    pairs = [(sv, tv) for sv in sorted(s_occ) for tv in sorted(t_occ)]
    chord = next((pair for pair in pairs if _bigon_free(s_occ[pair[0]], t_occ[pair[1]], len(face))), None)
    return _FaceRecord(s_occ, t_occ, pairs, chord)


def _next_chord(
    queue: list[Face], records: dict[Face, _FaceRecord], rng: SplitMix64 | None
) -> tuple[Face, tuple[int, int]] | None:
    """The next chord of step 1 and its face.  In canonical order `queue`
    holds the faces with a chord and the first one wins; under a seed it
    holds every face, and the faces and each visited face's pairs are
    shuffled."""
    if rng is None:
        return (queue[0], records[queue[0]].chord) if queue else None
    faces = list(queue)
    rng.shuffle(faces)
    for face in faces:
        rec = records[face]
        pairs = list(rec.pairs)
        rng.shuffle(pairs)
        if rec.chord is None:  # no pair has a bigon-free occurrence
            continue
        for sv, tv in pairs:
            if _bigon_free(rec.s_occ[sv], rec.t_occ[tv], len(face)):
                return face, (sv, tv)
    return None


def charging_run(
    d: OnePlanarDrawing,
    s: Iterable[int],
    order_seed: int | None = None,
) -> ChargeLedger:
    """Run the charge-assignment procedure and return its full ledger.

    T is V - S.  Step 0 deletes S-S edges, step 1 greedily adds uncrossed
    S-T chords face by face until no bigon-free candidate remains
    (multi-edges allowed), step 2 inserts an auxiliary vertex into every
    face with three or more distinct T-corners, step 3 assigns 6/3/2
    charges to uncrossed/crossed/auxiliary edges.

    With order_seed=None faces and chord candidates are processed in
    canonical order; a seed shuffles both (the structural claims must
    hold for any maximal order).

    Steps 1 and 2 read each face's corners once, when the face appears,
    into a `_FaceRecord`: the walk positions of its S- and T-corners,
    its sorted S-T pairs and the first pair with a chord, if any; a move
    is a face and a pair, and `add_chord` finds where the chord goes.
    Only the split face's pieces are new after an edit, so only they are
    read.  In canonical order step 1 takes the first face with a chord
    and step 2 the first with three or more T-corners; under a seed,
    step 1 still shuffles the whole face list and each visited face's
    pairs, so the draws are those of a full rescan.
    """
    s_set, everyone = frozenset(s), frozenset(range(d.n_real))
    if s_set - everyone:
        raise BadVertex(f"S vertex {min(s_set - everyone)} out of range (n={d.n_real})")
    t_set = everyone - s_set
    if len(s_set) < 3:
        raise STooSmall(f"|S| = {len(s_set)} < 3")
    _check_t_preconditions(d, t_set)

    # step 0: make the graph bipartite; one builder carries steps 0-2
    ss_edges = [
        eid for eid, (u, v) in enumerate(d.edges) if u in s_set and v in s_set
    ]
    work = _Builder(d)
    work.delete_edges(ss_edges)
    base = work.freeze()

    # step 1: chord saturation.  `records` holds every current face's
    # record; `queue` the faces step 1 may pick, in canonical order: every
    # face under a seed, else the faces with a chord (a face without one
    # never gains one, since its chords depend only on its own walk).
    records = {f: _face_record(work, f, s_set, t_set) for f in _require_valid(base).faces}
    rng = SplitMix64(order_seed) if order_seed is not None else None
    queue = [f for f, rec in records.items() if rng is not None or rec.chord]
    chords: list[tuple[int, int]] = []
    cap = 3 * (work.n_p + 1) ** 2
    while (found := _next_chord(queue, records, rng)) is not None:
        face, (sv, tv) = found
        queue.remove(face)
        del records[face]
        for x in work.add_chord(face[0], sv, tv):
            piece = _face_at(work, x)
            records[piece] = rec = _face_record(work, piece, s_set, t_set)
            if rng is not None or rec.chord:
                bisect.insort(queue, piece)
        chords.append((sv, tv))
        if len(chords) >= cap:
            raise InvalidDrawing(f"chord saturation did not terminate after {len(chords)} chords")
    gamma_prime = work.freeze()

    # step 2: auxiliary vertices into T-heavy faces, first in canonical
    # order; the loop ends only when no face has three or more T-corners.
    # An insertion's pieces are its only new faces (its vertex is not in T).
    heavy = sorted(f for f, rec in records.items() if len(rec.t_occ) >= 3)
    delta_attach: list[tuple[int, tuple[int, int, int]]] = []
    while heavy:
        face = heavy.pop(0)
        attach = tuple(sorted(records.pop(face).t_occ)[:3])
        z = work.n_real
        for x in work.insert_vertex(face[0], attach):
            piece = _face_at(work, x)
            records[piece] = rec = _face_record(work, piece, s_set, t_set)
            if len(rec.t_occ) >= 3:
                bisect.insort(heavy, piece)
        delta_attach.append((z, attach))
    final = work.freeze()

    # step 3: assign charges
    delta_set = frozenset(z for z, _ in delta_attach)
    crossed = final.crossed_eids
    charge_class: list[tuple[int, int]] = []
    delta_edges: list[tuple[int, int]] = []
    total = 0
    for eid, (u, v) in enumerate(final.edges):
        if u in delta_set or v in delta_set:
            c = 2
            delta_edges.append((u, v))
        elif eid in crossed:
            c = 3
        else:
            c = 6
        charge_class.append((eid, c))
        total += c
    vertex_charge = [
        (tv, sum(charge_class[eid][1] for eid in final.incident_eids(tv)))
        for tv in sorted(t_set)
    ]
    rhs = 12 * len(s_set) + 12 * len(t_set) - 24

    ledger = ChargeLedger(
        base=base,
        gamma_prime=gamma_prime,
        final=final,
        s=s_set,
        t=t_set,
        added_chords=tuple(chords),
        delta_attach=tuple(delta_attach),
        delta_edges=tuple(delta_edges),
        charge_class=tuple(charge_class),
        vertex_charge=tuple(vertex_charge),
        totals=(total, rhs),
    )
    return ledger


def _three_consecutive_crossed(ledger: ChargeLedger) -> list[int]:
    """T-vertices with three cyclically consecutive crossed edges after step 1."""
    gp = ledger.gamma_prime
    crossed = gp.crossed_eids
    bad = []
    for tv in sorted(v for v in ledger.t if v in gp.real_pid):  # charge_verify names the rest
        rot = gp.rotations[gp.real_pid[tv]]
        k = len(rot)
        if k < 3:
            continue
        flags = [gp.seg_eid[x >> 1] in crossed for x in rot]
        for i in range(k):
            if flags[i] and flags[(i + 1) % k] and flags[(i + 2) % k]:
                bad.append(tv)
                break
    return bad


@dataclass(frozen=True)
class ChargeReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def charge_verify(ledger: ChargeLedger) -> ChargeReport:
    """Audit a ledger against every bound the charging argument promises.

    A violation here falsifies the implementation, not the input.
    """
    bad: list[str] = []
    final = ledger.final
    gp = ledger.gamma_prime
    base = ledger.base

    for name, drawing in (("base", base), ("augmented", gp), ("final", final)):
        report = validate(drawing)
        if not report.valid:
            bad.append(f"{name} drawing invalid: {report.violations[0]}")

    if len(ledger.delta_edges) != 3 * len(ledger.delta_vertices):
        bad.append(
            f"|E_delta| = {len(ledger.delta_edges)} != 3*{len(ledger.delta_vertices)}"
        )

    crossed_final = final.crossed_eids
    delta_set = frozenset(ledger.delta_vertices)
    for eid, (u, v) in enumerate(final.edges):
        if (u in delta_set or v in delta_set) and eid in crossed_final:
            bad.append(f"auxiliary edge ({u},{v}) is crossed")
    crossed_gp = gp.crossed_eids
    n_base_edges = len(base.edges)
    for eid in range(n_base_edges, len(gp.edges)):
        if eid in crossed_gp:
            bad.append(f"added chord {gp.edges[eid]} is crossed")

    # bookkeeping identities
    charge_of = dict(ledger.charge_class)
    for eid, c in ledger.charge_class:
        if not (0 <= eid < len(final.edges)):
            bad.append(f"edge {eid} charged {c} is not an edge of the final drawing")
            continue
        u, v = final.edges[eid]
        want = 2 if (u in delta_set or v in delta_set) else (3 if eid in crossed_final else 6)
        if c != want:
            bad.append(f"edge {eid} charged {c}, expected {want}")
    for eid in range(len(final.edges)):
        if eid not in charge_of:
            bad.append(f"edge {eid} {final.edges[eid]} has no charge")
    total = sum(c for _, c in ledger.charge_class)
    if total != ledger.totals[0]:
        bad.append(f"stored total {ledger.totals[0]} != recomputed {total}")
    rhs = 12 * len(ledger.s) + 12 * len(ledger.t) - 24
    if rhs != ledger.totals[1]:
        bad.append(f"stored rhs {ledger.totals[1]} != recomputed {rhs}")
    if total > rhs:
        bad.append(f"total charges {total} exceed bound {rhs}")

    # every remaining edge has exactly one T endpoint, so the vertex
    # charges must add up to the grand total exactly
    for eid, (u, v) in enumerate(final.edges):
        if (u in ledger.t) == (v in ledger.t):
            bad.append(f"edge ({u},{v}) does not have exactly one T endpoint")
    vc = dict(ledger.vertex_charge)
    if sum(vc.values()) != total:
        bad.append(f"sum of c(t) = {sum(vc.values())} != total {total}")

    # per-vertex lower bounds
    g_base = base.graph
    for tv in sorted(ledger.t):
        if not (0 <= tv < base.n_real):
            bad.append(f"T-vertex {tv} is not a vertex of the drawing")
            continue
        uncrossed_gp = sum(1 for eid in gp.incident_eids(tv) if eid not in crossed_gp)
        c = vc.get(tv)
        if c is None:
            bad.append(f"c({tv}) missing from the ledger")
            continue
        recomputed = sum(charge_of.get(eid, 0) for eid in final.incident_eids(tv))
        if c != recomputed:
            bad.append(f"c({tv}) stored {c} != recomputed {recomputed}")
        if c < 14:
            bad.append(f"c({tv}) = {c} < 14")
        if uncrossed_gp >= 2 and c < 3 * g_base.degree(tv) + 6:
            bad.append(
                f"c({tv}) = {c} < 3*deg+6 = {3 * g_base.degree(tv) + 6} despite "
                f"{uncrossed_gp} uncrossed edges"
            )
        cw = crossing_weighted_degree(base, tv)
        if c < 3 * cw:
            bad.append(f"c({tv}) = {c} < 3*cw-degree = {3 * cw}")

    for tv in _three_consecutive_crossed(ledger):
        bad.append(f"T-vertex {tv} keeps three consecutive crossed edges")
    for face in validate(final).faces:
        if len({vid for vid in real_corners(final, face) if vid in ledger.t}) >= 3:
            bad.append(f"face with >=3 T-corners survived: {_darts_text(face)}")

    return ChargeReport(tuple(bad))


# --- ledger dump format -----------------------------------------------


def write_ledger(ledger: ChargeLedger) -> str:
    lines = ["ledger"]
    for u, v in sorted(ledger.added_chords):
        lines.append(f"chord {u} {v}")
    for z, attach in sorted(ledger.delta_attach):
        t1, t2, t3 = sorted(attach)
        lines.append(f"deltav {z} {t1} {t2} {t3}")
    for eid, c in ledger.charge_class:
        lines.append(f"charge {eid} {c}")
    for tv, c in ledger.vertex_charge:
        lines.append(f"ct {tv} {c}")
    lines.append(f"total {ledger.totals[0]} {ledger.totals[1]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# deficiency bounds and the matching certifier

# delta -> (a, b, c, least |S|, threshold n).  For minimum degree delta,
# odd(G-S) - |S| <= (a*n - b)/c for every S of at least the least size,
# so a maximum matching has at least (n - (a*n - b)/c)/2 edges once
# n >= threshold.
BOUNDS = {3: (5, 24, 7, 2, 7), 4: (1, 8, 3, 2, 20), 5: (1, 6, 5, 1, 21)}


def _check_provenance(g: Graph, drawing: OnePlanarDrawing | None) -> None:
    if drawing is None:
        raise NoProvenance("1-planarity attestation required (a drawing)")
    _require_valid(drawing)
    if drawing.n_real != g.n or tuple(sorted(drawing.edges)) != tuple(sorted(g.edges)):
        raise NoProvenance("attested drawing does not match the graph")


def _bound_row(delta: int) -> tuple[int, int, int, int, int]:
    if delta not in BOUNDS:
        raise ValueError(f"delta must be one of {sorted(BOUNDS)}")
    return BOUNDS[delta]


def check_deficiency(
    g: Graph,
    s: Iterable[int],
    delta: int,
    provenance: OnePlanarDrawing | None = None,
) -> BoundCheck:
    """odd(G-S) - |S| <= (a*n - b)/c for minimum degree delta, |S| at least
    the least size, both from BOUNDS: (5n-24)/7, (n-8)/3, (n-6)/5."""
    a, b, c, least_s, _ = _bound_row(delta)
    members = frozenset(s)
    if len(members) < least_s:
        raise STooSmall(f"|S| = {len(members)} < {least_s}")
    if min_degree(g) < delta:
        raise DegreeTooLow(f"min degree {min_degree(g)} < {delta}")
    if provenance is not None:
        _check_provenance(g, provenance)
    count = odd_components(g, members)
    lhs = Fraction(count - len(members))
    rhs = Fraction(a * g.n - b, c)
    return BoundCheck(lhs, rhs)


@dataclass(frozen=True)
class CertReport:
    delta: int
    n: int
    matching_size: int
    bound: Fraction
    threshold: int
    barrier: frozenset[int]
    barrier_bound: int  # the matching-size upper bound the barrier gives
    violations: tuple[str, ...]  # check_matching's findings on M

    @property
    def applicable(self) -> bool:
        return self.n >= self.threshold

    @property
    def holds(self) -> bool | None:
        return self.matching_size >= self.bound if self.applicable else None

    @property
    def tight(self) -> bool | None:
        return self.matching_size == self.bound if self.applicable else None

    @property
    def certified(self) -> bool:
        """M is a matching and the barrier bounds every matching by |M|."""
        return not self.violations and self.barrier_bound == self.matching_size


def certify_matching_bound(
    g: Graph, delta: int, provenance: OnePlanarDrawing | None
) -> CertReport:
    """Certify the guaranteed matching size for an attested 1-planar graph.

    The bound (n - (a*n - b)/c)/2 from BOUNDS is (n+12)/7, (n+4)/3 and
    (2n+3)/5 for minimum degree 3, 4, 5, applicable from n >= 7, 20, 21
    respectively.  Below the threshold the report comes back
    not-applicable instead of failing.  The matching is proved maximum,
    in O(n + m), by its Gallai-Edmonds barrier (see `certified`).
    """
    a, b, c, _, threshold = _bound_row(delta)
    if min_degree(g) < delta:
        raise DegreeTooLow(f"min degree {min_degree(g)} < {delta}")
    _check_provenance(g, provenance)
    n = g.n
    bound = (n - Fraction(a * n - b, c)) / 2
    m = maximum_matching(g)
    return CertReport(
        delta, n, len(m), bound, threshold,
        m.barrier, matching_upper_from_witness(g, m.barrier), tuple(check_matching(g, m)),
    )
