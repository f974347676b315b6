import dataclasses
import hashlib
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oneplanar.embedding import (
    DUMMY,
    OnePlanarDrawing,
    corner_positions,
    crossing_weighted_degree,
    drawing_from_faces,
    parse_drawing,
    real_corners,
    validate,
    write_drawing,
    _Builder,
    _face_at,
    _face_orbits,
    _require_valid,
)
from oneplanar.bounds import check_bipartite_edge_budget
from oneplanar.cli import main
from oneplanar.errors import (
    BadAttachment,
    BadVertex,
    InvalidDrawing,
    NotBipartite,
    NotOnFace,
    OnePlanarError,
    ParseError,
    WouldCreateBigon,
)
from oneplanar.generators import (
    FAMILIES,
    family_delta3,
    family_delta4,
    family_delta4_k5,
    k6_drawing,
    random_oneplanar,
    _hub_family,
    _stacked_triangulation,
)
from oneplanar.rng import SplitMix64

from conftest import c4_drawing, corpus_params, edit, hand_built, k4_drawing


HEXAGON = [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]


def k33_one_crossing():
    """K3,3 with sides {0,1,2} and {3,4,5}: planar K3,3 - (2,5), then (2,5)
    reinserted across edge (0,3)."""
    d = drawing_from_faces(
        6, [[0, 5, 1, 3], [0, 3, 2, 4], [4, 2, 3, 1], [1, 5, 0, 4]]
    )
    return edit(d, "add_crossed", 0, 2, 5)


def doubled_edge_drawing():
    """Triangle-ish multigraph: vertices 0,1,2; edge (0,1) doubled, plus
    (0,2) and (1,2).  The two parallel arcs bound one lens face."""
    segs = [
        (0, 1, 0),  # s0: first copy
        (0, 1, 1),  # s1: second copy
        (0, 2, 2),  # s2
        (1, 2, 3),  # s3
    ]
    rotations = [(2, 0, 4), (1, 3, 6), (7, 5)]  # dart 2*sid + end
    return hand_built([(0, 1), (0, 1), (0, 2), (1, 2)], [0, 1, 2], segs, rotations)


def test_c4_is_valid_with_two_faces():
    d = c4_drawing()
    assert validate(d).valid
    assert len(_require_valid(d).faces) == 2


def test_k4_has_four_triangular_faces():
    fs = _require_valid(k4_drawing()).faces
    assert len(fs) == 4
    assert all(len(f) == 3 for f in fs)


def test_dummy_degree_violation_is_reported():
    # a dummy with only 3 incident segment-ends
    d = hand_built(
        [(0, 1), (0, 2)], [0, 1, 2, DUMMY], [(0, 3, 0), (3, 1, 0), (0, 2, 1)], [(0, 4), (3,), (5,), (1, 2)]
    )
    report = validate(d)
    assert not report.valid
    assert any("degree != 4" in v for v in report.violations)


def test_dummy_rotation_must_alternate():
    # edges (0,2) and (1,3) cross at dummy 4, a star: Euler holds and no
    # face is a bigon whatever the order at the dummy, so only that order
    # can make the drawing invalid
    def star(dummy_rotation):
        return hand_built(
            [(0, 2), (1, 3)],
            [0, 1, 2, 3, DUMMY],
            [(0, 4, 0), (4, 2, 0), (1, 4, 1), (4, 3, 1)],
            [(0,), (4,), (3,), (7,), dummy_rotation],
        )

    assert validate(star((1, 5, 2, 6))).valid
    assert validate(star((1, 2, 5, 6))).violations == ("dummy 4 rotation does not alternate (a,b,a,b)",)


def test_k6_canonical_drawing():
    d = k6_drawing()
    assert validate(d).valid
    assert d.n_p == 9 and d.m_p == 21
    assert len(_require_valid(d).faces) == 14
    assert len(d.crossed_eids) == 6 and len(d.edges) == 15


def test_bigons_empty_on_simple_drawings():
    assert validate(c4_drawing()).violations == ()
    assert validate(k6_drawing()).violations == ()


def test_doubled_edge_has_one_bigon():
    # the validator names the one lens by its darts, as `1pg` writes them
    assert validate(doubled_edge_drawing()).violations == ("bigon face 0.0 1.1",)


def test_crossed_parallel_copy_is_not_a_bigon():
    # the 4-cycle 0, 2, 1, 3 with chord (0, 1) drawn once in each face: each
    # copy separates 2 from 3, so the two copies bound no face together
    b = _Builder(drawing_from_faces(4, [[0, 2, 1, 3], [3, 1, 2, 0]]))
    for face in _face_orbits(b):
        b.add_chord(face[0], 0, 1)
    assert validate(b.freeze()).violations == ()
    # the first copy crossed by (2, 3) stays parallel to the uncrossed one
    b.add_crossed(9, 2, 3)
    d = b.freeze()
    assert validate(d).violations == ()
    assert d.edges == ((0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (0, 1), (2, 3))
    assert d.crossed_eids == {4, 6}


def test_drawing_from_no_faces_is_invalid():
    with pytest.raises(InvalidDrawing):
        drawing_from_faces(3, [])


def test_crossed_eids_count_dummies():
    d = random_oneplanar(8, 2, 11)
    n_dummies = d.pvertices.count(DUMMY)
    assert len(d.crossed_eids) == 2 * n_dummies


def test_single_crossing_pair_drawing():
    # two edges on four vertices crossing once: everything is crossed
    d = hand_built(
        [(0, 2), (1, 3)],
        [0, 1, 2, 3, DUMMY],
        [(0, 4, 0), (4, 2, 0), (1, 4, 1), (4, 3, 1)],
        [(0,), (4,), (3,), (7,), (1, 5, 2, 6)],
    )
    assert validate(d).valid
    assert d.crossed_eids == {0, 1}
    assert len(_require_valid(d).faces) == 1


def test_crossed_edge_part_0_starts_at_its_smaller_endpoint():
    # edge (0, 3) of k33_one_crossing runs 0 -> dummy 6 (seg 0) -> 3 (seg 8)
    text = write_drawing(k33_one_crossing())
    swapped = text.replace("seg 0 0 6 0 0\n", "seg 0 0 6 0 1\n").replace("seg 8 6 3 0 1\n", "seg 8 6 3 0 0\n")
    assert swapped != text
    with pytest.raises(ParseError, match="^seg 0 0 6 0 1: its edge makes it part 0$"):
        parse_drawing(swapped)


# edge 0 crosses edge 1 at dummy 3, leaving and re-entering real vertex 0:
# the dummy alternates, Euler holds and there is no bigon, but edge 0 is a loop
LOOP_1PG = (
    "1pg 3 1 4\npv 0 real 0\npv 1 real 1\npv 2 real 2\npv 3 dummy 0 1\n"
    "seg 0 0 3 0 0\nseg 1 3 0 0 1\nseg 2 1 3 1 0\nseg 3 3 2 1 1\n"
    "rot 0: 0.0 1.1\nrot 1: 2.0\nrot 2: 3.1\nrot 3: 0.1 2.1 1.0 3.0\n"
)


def test_crossed_edge_back_to_its_start_is_a_loop():
    with pytest.raises(ParseError, match="edge 0 is a loop"):
        parse_drawing(LOOP_1PG)
    # the same, hand-built
    d = hand_built(
        [(0, 0), (1, 2)],
        [0, 1, 2, DUMMY],
        [(0, 3, 0), (3, 0, 0), (1, 3, 1), (3, 2, 1)],
        [(0, 3), (4,), (7,), (1, 5, 2, 6)],
    )
    assert "edge 0 is a loop" in validate(d).violations


# c4 with (0, 2) crossing (0, 1) at dummy 4, as the builder drew it before
# such crossings were refused: the two edges share vertex 0
C4_ADJACENT_1PG = (
    "1pg 4 1 7\n"
    "pv 0 real 0\npv 1 real 1\npv 2 real 2\npv 3 real 3\npv 4 dummy 0 4\n"
    "seg 0 0 4 0 0\nseg 1 0 3 1 0\nseg 2 1 2 2 0\nseg 3 2 3 3 0\nseg 4 4 1 0 1\nseg 5 2 4 4 1\nseg 6 0 4 4 0\n"
    "rot 0: 0.0 6.0 1.0\nrot 1: 2.0 4.1\nrot 2: 2.1 5.0 3.0\nrot 3: 1.1 3.1\nrot 4: 0.1 5.1 4.0 6.1\n"
)


def test_crossing_of_two_edges_that_share_an_endpoint_is_invalid():
    message = "dummy 4 crosses edges 0 and 4, which share vertex 0"
    with pytest.raises(ParseError, match=f"^invalid drawing: {message}$"):
        parse_drawing(C4_ADJACENT_1PG)
    # the same, hand-built
    d = hand_built(
        [(0, 1), (0, 3), (1, 2), (2, 3), (0, 2)],
        [0, 1, 2, 3, DUMMY],
        [(0, 4, 0), (0, 3, 1), (1, 2, 2), (2, 3, 3), (4, 1, 0), (2, 4, 4), (0, 4, 4)],
        [(0, 12, 2), (4, 9), (5, 10, 6), (3, 7), (1, 11, 8, 13)],
    )
    assert validate(d).violations == (message,)


def test_edge_budget_c4_tight():
    chk = check_bipartite_edge_budget(c4_drawing(), ({0, 2}, {1, 3}))
    assert (chk.lhs, chk.rhs, chk.holds, chk.tight) == (Fraction(4), 4, True, True)


def test_edge_budget_k33_tight():
    d = k33_one_crossing()
    assert validate(d).valid
    chk = check_bipartite_edge_budget(d, ({0, 1, 2}, {3, 4, 5}))
    assert (chk.lhs, chk.rhs, chk.holds, chk.tight) == (Fraction(8), 8, True, True)


def test_edge_budget_rejects_a_bigon_as_invalid():
    with pytest.raises(InvalidDrawing, match="bigon"):
        check_bipartite_edge_budget(doubled_edge_drawing(), ({0}, {1, 2}))


def test_edge_budget_rejects_non_bipartite():
    tri = drawing_from_faces(3, [[0, 1, 2], [2, 1, 0]])
    with pytest.raises(NotBipartite):
        check_bipartite_edge_budget(tri, ({0, 1}, {2}))


def test_crossing_weighted_degree():
    d = k33_one_crossing()
    # vertex 1: edges (1,3),(1,4),(1,5) all uncrossed
    assert crossing_weighted_degree(d, 1) == 6
    # vertex 2: (2,3),(2,4) uncrossed, (2,5) crossed
    assert crossing_weighted_degree(d, 2) == 5
    # vertex 5: (5,0),(5,1) uncrossed, (5,2) crossed
    assert crossing_weighted_degree(d, 5) == 5
    with pytest.raises(BadVertex):
        crossing_weighted_degree(d, 17)


def test_cw_degree_all_crossed():
    inst = family_delta3(4)
    d = inst.drawing
    # each inserted vertex has one uncrossed and two crossed legs
    for v in range(4, 16):
        assert crossing_weighted_degree(d, v) == 4


def test_add_chord_splits_face():
    d = c4_drawing()
    f = _require_valid(d).faces[0]
    d2 = edit(d, "add_chord", f[0], 0, 2)
    assert validate(d2).valid
    assert len(_require_valid(d2).faces) == 3


def test_add_chord_rejects_bigon():
    d = c4_drawing()
    f = _require_valid(d).faces[0]
    with pytest.raises(WouldCreateBigon):
        edit(d, "add_chord", f[0], 0, 1)


def test_add_chord_takes_the_first_occurrences_that_are_not_a_face_side():
    # the bowtie's outer walk has corners (1, 0, 4, 3, 0, 2): 0's first
    # occurrence is beside 4, so chord (0, 4), a parallel copy of side
    # (0, 4), leaves from its second
    d = drawing_from_faces(5, [[0, 1, 2], [0, 3, 4], [0, 2, 1, 0, 4, 3]])
    outer = next(f for f in _face_orbits(d) if len(f) == 6)
    assert real_corners(d, outer) == (1, 0, 4, 3, 0, 2)
    b = _Builder(d)
    darts = b.add_chord(outer[0], 0, 4)
    assert [real_corners(b, _face_at(b, x)) for x in darts] == [(3, 0, 4), (1, 0, 4, 0, 2)]
    assert validate(b.freeze()).valid


def test_add_chord_keeps_a_parallel_copy():
    # the chord (0, 2) again, in c4's other face: the builder keeps both
    # copies, uncrossed, and the drawing validates and writes back
    b = _Builder(_c4_with_chord())
    b.add_chord(_require_valid(c4_drawing()).faces[1][0], 0, 2)
    d = b.freeze()
    assert validate(d).violations == ()
    assert d.has_parallel_edges and d.edges.count((0, 2)) == 2
    assert not d.crossed_eids
    text = write_drawing(d)
    assert write_drawing(parse_drawing(text)) == text


def test_add_chord_rejects_corner_not_on_face():
    d = k4_drawing()
    f = _require_valid(d).faces[0]
    missing = (set(range(4)) - set(real_corners(d, f))).pop()
    present = real_corners(d, f)[0]
    with pytest.raises(NotOnFace):
        edit(d, "add_chord", f[0], present, missing)


def test_add_chord_between_dummy_separated_corners():
    # in the filled triangle the three inserted vertices share a face on
    # which consecutive real corners are separated by dummy corners
    inst = family_delta3(4)
    d = inst.drawing
    target = None
    for f in _require_valid(d).faces:
        reals = real_corners(d, f)
        if len(f) > len(reals) >= 2:
            inserted = [v for v in reals if v >= 4]
            if len(set(inserted)) >= 2:
                target = (f, sorted(set(inserted))[:2])
                break
    assert target is not None
    f, (u, v) = target
    d2 = edit(d, "add_chord", f[0], u, v)
    assert validate(d2).valid
    assert len(_require_valid(d2).faces) == len(_require_valid(d).faces) + 1


def test_insert_vertex_in_face():
    d = c4_drawing()
    f = _require_valid(d).faces[0]
    d2 = edit(d, "insert_vertex", f[0], [0, 1, 2])
    assert validate(d2).valid
    assert len(_require_valid(d2).faces) == len(_require_valid(d).faces) + 2
    assert d2.n_real == 5
    assert (0, 4) in d2.edges and (1, 4) in d2.edges and (2, 4) in d2.edges


def test_insert_vertex_hexagonal_face_alternating():
    hexagon = drawing_from_faces(6, HEXAGON)
    f = _require_valid(hexagon).faces[0]
    d2 = edit(hexagon, "insert_vertex", f[0], [0, 2, 4])
    assert validate(d2).valid
    assert len(_require_valid(d2).faces) == 4  # three new faces replace one


def test_insert_vertex_rejects_repeats():
    d = c4_drawing()
    f = _require_valid(d).faces[0]
    with pytest.raises(BadAttachment):
        edit(d, "insert_vertex", f[0], [0, 1, 1])


# every in-range dart names a face, so a surgery refuses only a dart out of
# range, one below 0 or past K4's last
BAD_DARTS = {"sid-negative": -1, "sid-too-large": 2 * k4_drawing().m_p}


@pytest.mark.parametrize("case", sorted(BAD_DARTS))
def test_surgeries_reject_walks_that_are_not_faces(case):
    x = BAD_DARTS[case]
    b = _Builder(k4_drawing())
    for surgery, args in (("add_chord", (0, 2)), ("insert_vertex", ([0, 1, 2],))):
        with pytest.raises(NotOnFace, match=rf"^dart {x} is not a dart of this drawing$"):
            getattr(b, surgery)(x, *args)
        assert b.freeze() == k4_drawing()


def _first_face_edit(d, surgery, *args):
    """d after `surgery` on the face of dart 0, its first face."""
    return edit(d, surgery, 0, *args)


def _vertex_off_the_face(b):
    f = _face_orbits(b)[0]
    missing = (set(range(4)) - set(real_corners(b, f))).pop()
    b.insert_vertex(f[0], [real_corners(b, f)[0], missing])


def _c4_with_chord():
    """c4 with chord (0, 2) in its first face."""
    return _first_face_edit(c4_drawing(), "add_chord", 0, 2)


def _crossed_square():
    """c4 with chord (0, 2), segment 4, crossed by (1, 3)."""
    return edit(_c4_with_chord(), "add_crossed", 9, 1, 3)


# name -> (the drawing a `_Builder` is thawed from, a call on that builder
# that must raise, the error, its message pattern); a face-list row has no
# drawing, and its call takes no builder
REJECTIONS = {
    "chord-loop": (c4_drawing, lambda b: b.add_chord(0, 2, 2), NotOnFace, "must differ"),
    "vertex-off-face": (k4_drawing, _vertex_off_the_face, BadAttachment, "not a corner"),
    "crossed-dart-out-of-range": (
        c4_drawing, lambda b: b.add_crossed(8, 1, 3), NotOnFace, "^dart 8 is not a dart of this drawing$"
    ),
    # dart 8 leaves 0 on the half of (0, 2) that ends at the dummy
    "crossed-twice": (
        _crossed_square, lambda b: b.add_crossed(8, 1, 3), NotOnFace, r"^edge \(0, 2\) is already crossed$"
    ),
    # the chord (0, 3) is segment 6
    "crossed-one-side": (
        lambda: _first_face_edit(drawing_from_faces(6, HEXAGON), "add_chord", 0, 3),
        lambda b: b.add_crossed(12, 1, 2),
        NotOnFace,
        "opposite sides",
    ),
    # 2 is a corner on both sides of (0, 1)
    "crossed-loop": (
        c4_drawing, lambda b: b.add_crossed(0, 2, 2), NotOnFace, "^crossing edge endpoints must differ$"
    ),
    # 1 is an end of (0, 1), and twice a corner of the face on its far side
    "crossed-adjacent": (
        lambda: drawing_from_faces(6, [[0, 1, 2, 3], [1, 4, 5], [0, 3, 2, 1, 5, 4, 1]]),
        lambda b: b.add_crossed(0, 3, 1),
        NotOnFace,
        r"^\(3,1\) shares an endpoint with edge \(0, 1\)$",
    ),
    # each edge of a star is a bridge: the star's one face runs along both its sides
    "crossed-bridge": (
        lambda: drawing_from_faces(5, [[0, 1, 0, 2, 0, 3, 0, 4]]),
        lambda b: b.add_crossed(0, 2, 3),
        NotOnFace,
        r"^edge \(0, 1\) has one face on both sides$",
    ),
    "delete-missing-edge": (c4_drawing, lambda b: b.delete_edges([99]), BadVertex, "out of range"),
    "faces-vertex-out-of-range": (
        None, lambda: drawing_from_faces(3, [[0, 1, 5], [5, 1, 0]]), InvalidDrawing, r"^vertex 5 out of range \(n=3\)$"
    ),
    "faces-loop-side": (
        None, lambda: drawing_from_faces(3, [[0, 1, 1, 2], [2, 1, 0]]), InvalidDrawing, r"side \(1,1\) is a loop"
    ),
    "faces-side-twice": (
        None, lambda: drawing_from_faces(3, [[0, 1, 2], [0, 1, 2]]), InvalidDrawing, "run twice in one direction"
    ),
    "faces-one-direction": (
        None, lambda: drawing_from_faces(3, [[0, 1, 2]]), InvalidDrawing, r"side \(0,1\) is run in one direction only"
    ),
    "faces-isolated-vertex": (
        None, lambda: drawing_from_faces(4, [[0, 1, 2], [2, 1, 0]]), InvalidDrawing, "vertex 3 is not on exactly one"
    ),
    "faces-pinched-vertex": (
        None,
        lambda: drawing_from_faces(5, [[0, 1, 2], [2, 1, 0], [0, 3, 4], [4, 3, 0]]),
        InvalidDrawing,
        "vertex 0 is not on exactly one cycle of corners",
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_surgeries_and_face_lists_reject_bad_requests(case):
    make, call, error, pattern = REJECTIONS[case]
    if make is None:
        with pytest.raises(error, match=pattern):
            call()
        return
    b = _Builder(make())
    before = b.freeze()
    with pytest.raises(error, match=pattern):
        call(b)
    # a surgery checks everything before its first edit, so a refused one
    # leaves the builder holding the drawing it held
    assert b.freeze() == before


# sha256 over the outcome of add_crossed(x, u, v) for every dart x and every
# ordered pair u != v of c4, K4, the hexagon and the triangular prism, 1,140
# calls: the written `1pg` text, or the error's type and text, each followed
# by a NUL.  The 740 calls with u or v an end of x's edge are refused as
# adjacent crossings, and 180 more as not on opposite sides of it; the other
# 220 succeed, and in 112 of them (u, v) is already an edge, so the drawing
# keeps a crossed parallel copy of it.
CROSSED_OUTCOMES = "c4e1625cea2cfcb6df7bd3ffe90850b785ead477f3074289244e07f7a0a62615"
PRISM = [[0, 1, 2], [5, 4, 3], [0, 3, 4, 1], [1, 4, 5, 2], [2, 5, 3, 0]]


def _chord_in_each_face(d, u, v):
    """d with chord (u, v) added in each of its faces."""
    b = _Builder(d)
    for f in _face_orbits(b):
        b.add_chord(f[0], u, v)
    return b.freeze()


def _double_01():
    """The 4-cycle 0, 2, 1, 3 with chord (0, 1) in both faces: edges and segments 4 and 5."""
    return _chord_in_each_face(drawing_from_faces(4, [[0, 2, 1, 3], [3, 1, 2, 0]]), 0, 1)


def _crossed_outcomes(drawings) -> tuple[int, str]:
    """(calls, sha256) over add_crossed(x, u, v) on each drawing, for every
    dart x and every ordered pair u != v."""
    h = hashlib.sha256()
    calls = 0
    for d in drawings:
        for x in range(2 * d.m_p):
            for u in range(d.n_real):
                for v in (v for v in range(d.n_real) if v != u):
                    b = _Builder(d)
                    try:
                        b.add_crossed(x, u, v)
                        out = write_drawing(b.freeze())
                    except OnePlanarError as exc:
                        out = f"{type(exc).__name__}: {exc}"
                    h.update(out.encode() + b"\0")
                    calls += 1
    return calls, h.hexdigest()


def test_add_crossed_outcomes_on_small_drawings():
    drawings = (c4_drawing(), k4_drawing(), drawing_from_faces(6, HEXAGON), drawing_from_faces(6, PRISM))
    assert _crossed_outcomes(drawings) == (1140, CROSSED_OUTCOMES)


# as CROSSED_OUTCOMES, over drawings with parallel copies: c4 with chord
# (0, 2) in both faces, the hexagon with chord (0, 3) in both faces,
# `_double_01`, and `_double_01` with edge 4 crossed by (2, 3), where (0, 1)
# has one crossed and one uncrossed copy; 984 calls.  708 are refused as
# adjacent crossings, 210 as not on opposite sides and 16, the darts of the
# crossed halves of the last drawing, as already crossed.  The 50 others
# succeed, which pins the copy each one crosses: the dart's own, in 26 of
# them parallel to (u, v).
PARALLEL_CROSSED_OUTCOMES = "5472345d14e85c959d2961c25b68052abfcad3292f66369848495dc38549bf30"


def test_add_crossed_outcomes_on_drawings_with_parallel_copies():
    double_01 = _double_01()
    drawings = (
        _chord_in_each_face(c4_drawing(), 0, 2),
        _chord_in_each_face(drawing_from_faces(6, HEXAGON), 0, 3),
        double_01,
        edit(double_01, "add_crossed", 9, 2, 3),
    )
    assert _crossed_outcomes(drawings) == (984, PARALLEL_CROSSED_OUTCOMES)


def test_add_crossed_crosses_an_uncrossed_parallel_copy():
    # the dart names the copy: the second of the two copies of (0, 1) is
    # crossed first, and then the first
    b = _Builder(_double_01())
    b.add_crossed(10, 2, 3)
    assert b.edges[4:] == [(0, 1), (0, 1), (2, 3)]
    assert b.freeze().crossed_eids == {5, 6}
    b.add_crossed(9, 2, 3)
    d = b.freeze()
    assert _require_valid(d)
    assert d.crossed_eids == {4, 5, 6, 7}
    assert [d.crossing_edges(pid) for pid in (4, 5)] == [(5, 6), (4, 7)]
    text = write_drawing(d)
    assert write_drawing(parse_drawing(text)) == text
    # each dart of a crossed half names an edge that is already crossed
    halves = [x for x in range(2 * d.m_p) if d.seg_eid[x >> 1] in (4, 5)]
    assert len(halves) == 8
    for x in halves:
        with pytest.raises(NotOnFace, match=r"^edge \(0, 1\) is already crossed$"):
            b.add_crossed(x, 2, 3)


def test_local_face_walk_matches_full_enumeration():
    for d in (k6_drawing(), family_delta3(5).drawing, random_oneplanar(10, 3, 4)):
        for f in _face_orbits(d):
            assert all(_face_at(d, x) == f for x in f)


def _chord_site(b, fs):
    """The first face with two different real corners that are not walk-adjacent."""
    for f in fs:
        occ = corner_positions(b, f)
        for i, u in occ:
            for j, v in occ:
                if u != v and (i - j) % len(f) not in (1, len(f) - 1):
                    return f, u, v
    return None


@pytest.mark.parametrize(
    "make", [lambda: _stacked_triangulation(8, None)[0].freeze(), lambda: random_oneplanar(10, 3, 4)],
    ids=["stacked", "random"],
)
def test_builder_surgeries_return_the_faces_they_create(make):
    # after each edit the faces through the returned darts are exactly the
    # faces the drawing gained, and the face of the dart passed in is the
    # only face it lost; a vertex's i-th spoke leaves it toward attach[i]
    b = _Builder(make())
    done = {"chord": 0, "vertex": 0}
    for step in range(16):
        before = _face_orbits(b)
        site = _chord_site(b, before) if step % 2 else None
        if site is not None:
            face, u, v = site
            new = b.add_chord(face[step % len(face)], u, v)
            done["chord"] += 1
        else:
            # two spokes leave a face with room for a chord, three do not;
            # the corners go in descending order, against the walk
            face = before[step % len(before)]
            attach = sorted(set(real_corners(b, face)))[:2 if step % 4 == 0 else 3][::-1]
            z = b.n_real
            new = b.insert_vertex(face[step % len(face)], attach)
            assert [(b.pvertices[b.org[x]], b.pvertices[b.org[x ^ 1]]) for x in new] == [(z, a) for a in attach]
            done["vertex"] += 1
        kept = [f for f in before if f != face]
        assert len(kept) == len(before) - 1
        assert sorted(_face_orbits(b)) == sorted(kept + [_face_at(b, x) for x in new])
    assert min(done.values()) >= 4
    assert validate(b.freeze()).valid


class BuilderSurgeries(RuleBasedStateMachine):
    """One builder, from c4, under chords, vertices and crossed edges at
    drawn darts and corners.  After every step the drawing is valid, and so
    good, and its `1pg` text writes back byte for byte; a chord or a vertex
    took away exactly the face of the dart it was given and added exactly
    the faces through the darts it returned, a crossed edge took away the
    faces of its dart and the reversal and added exactly the four faces
    around its dummy, and a refused surgery changes nothing."""

    def __init__(self):
        super().__init__()
        self.b = _Builder(c4_drawing())
        self.faces = set(validate(self.b.freeze()).faces)
        # (faces lost, faces gained) by the last step, sorted
        self.change: tuple[list, list] = ([], [])

    def _apply(self, surgery, *args):
        before = self.b.freeze()
        try:
            new = getattr(self.b, surgery)(*args)
        except OnePlanarError:
            assert self.b.freeze() == before
            self.change = ([], [])
            return
        x = args[0]
        lost = {_face_at(before, x)}
        if new is None:  # a crossed edge; its dummy is the newest pvertex
            lost.add(_face_at(before, x ^ 1))
            new = self.b.rotations[-1]
        self.change = (sorted(lost), sorted(_face_at(self.b, y) for y in new))

    def _draw_dart(self, data):
        """Any dart of the drawing, and the real corners of its face."""
        x = data.draw(st.integers(0, 2 * self.b.m_p - 1))
        return x, real_corners(self.b, _face_at(self.b, x))

    @rule(data=st.data())
    def add_chord(self, data):
        x, corners = self._draw_dart(data)
        u, v = data.draw(st.permutations(corners))[:2]
        self._apply("add_chord", x, u, v)

    @rule(data=st.data(), k=st.integers(2, 4))
    def insert_vertex(self, data, k):
        x, corners = self._draw_dart(data)
        self._apply("insert_vertex", x, data.draw(st.permutations(corners))[:k])

    @rule(data=st.data(), legal=st.booleans())
    def add_crossed(self, data, legal):
        # u and v are corners of the two faces along the segment of dart x;
        # if `legal`, corners other than each other and the ends of its edge,
        # where there are any
        face = data.draw(st.sampled_from(_face_orbits(self.b)))
        x = data.draw(st.sampled_from(face))
        cross = self.b.edges[self.b.seg_eid[x >> 1]]
        near, far = real_corners(self.b, face), real_corners(self.b, _face_at(self.b, x ^ 1))
        u = data.draw(st.sampled_from([c for c in near if not legal or c not in cross] or near))
        v = data.draw(st.sampled_from([c for c in far if not legal or c not in (*cross, u)] or far))
        self._apply("add_crossed", x, u, v)

    @invariant()
    def drawing_is_valid_and_round_trips(self):
        d = self.b.freeze()
        report = validate(d)
        assert report.violations == ()
        faces = set(report.faces)
        assert (sorted(self.faces - faces), sorted(faces - self.faces)) == self.change
        self.faces = faces
        text = write_drawing(d)
        assert write_drawing(parse_drawing(text)) == text


# the example count comes from the profile: hypothesis' 100 in tier-1, 2,000
# with --hypothesis-profile=deep
TestBuilderSurgeries = BuilderSurgeries.TestCase
TestBuilderSurgeries.settings = settings(stateful_step_count=30, deadline=None, database=None)


def test_faces_partition_every_dart():
    d = random_oneplanar(8, 2, 3)
    segs = [(d.org[2 * sid], d.org[2 * sid + 1], eid) for sid, eid in enumerate(d.seg_eid)]
    assert hand_built(d.edges, d.pvertices, segs, d.rotations) == d
    fs = _require_valid(d).faces
    seen = [x for f in fs for x in f]
    assert len(seen) == 2 * d.m_p
    assert len(set(seen)) == len(seen)


def test_two_component_drawing_is_valid_with_four_faces():
    tri = drawing_from_faces(3, [[0, 1, 2], [2, 1, 0]])
    # two copies of the triangle, each segment on the edge with its id
    two = hand_built(
        [(u + k, v + k) for k in (0, 3) for u, v in tri.edges],
        [vid + k for k in (0, 3) for vid in tri.pvertices],
        [(u + k, v + k, eid + k) for k in (0, 3) for eid, (u, v) in enumerate(tri.edges)],
        [tuple(x + 2 * k for x in rot) for k in (0, 3) for rot in tri.rotations],
    )
    # Euler holds per component: each triangle has two faces
    assert len(_require_valid(two).faces) == 4


def test_delete_edges_restores_partner():
    d = _crossed_square()
    eid = d.edges.index((1, 3))
    d2 = edit(d, "delete_edges", [eid])
    assert validate(d2).valid
    assert d2.crossed_eids == set()
    assert d2.edges == tuple(e for e in d.edges if e != (1, 3))


def test_delete_edges_undoes_add_crossed():
    chord = _first_face_edit(c4_drawing(), "add_chord", 0, 2)
    crossed = edit(chord, "add_crossed", 9, 1, 3)
    eid = {e: i for i, e in enumerate(crossed.edges)}
    assert write_drawing(edit(crossed, "delete_edges", [eid[1, 3]])) == write_drawing(chord)
    assert write_drawing(edit(crossed, "delete_edges", [eid[0, 2], eid[1, 3]])) == write_drawing(c4_drawing())


def test_every_single_crossed_edge_deletion_validates():
    deleted = 0
    for seed in range(30):
        d = random_oneplanar(12, 3, seed)
        for eid in sorted(d.crossed_eids):
            d2 = edit(d, "delete_edges", [eid])
            assert validate(d2).valid, (seed, eid)
            assert len(d2.crossed_eids) == len(d.crossed_eids) - 2
            deleted += 1
    assert deleted == 180


def test_wedge_merges_one_face():
    # two triangles glued at vertex 0: one face of each becomes a single face
    tri = drawing_from_faces(3, [[0, 1, 2], [2, 1, 0]])
    w = _hub_family("triangle", tri, 2, 2).drawing
    assert validate(w).valid
    assert w.n_real == 5
    assert len(_require_valid(w).faces) == 3


def test_surgery_chain_keeps_euler():
    d = c4_drawing()
    f = _require_valid(d).faces[0]
    d = edit(d, "insert_vertex", f[0], [0, 1, 2])
    for f in _require_valid(d).faces:
        if len(set(real_corners(d, f))) >= 2:
            u, v = sorted(set(real_corners(d, f)))[:2]
            try:
                d = edit(d, "add_chord", f[0], u, v)
            except Exception:
                continue
            break
    assert validate(d).valid


@pytest.mark.parametrize("n,x,seed", corpus_params()[:40])
def test_corpus_drawings_are_valid(n, x, seed):
    d = random_oneplanar(n, x, seed)
    assert validate(d).valid
    assert len(d.crossed_eids) == 2 * x


def _one_field_mutant(d: OnePlanarDrawing, rng: SplitMix64) -> OnePlanarDrawing:
    """d with exactly one field corrupted: a pvertex id (which turns a real
    vertex into DUMMY and back), a dart's origin or a segment's edge id, a
    swap or replacement within one rotation, or an edge endpoint.  New
    values come from [-1, bound] minus the old."""

    def other(x: int, bound: int) -> int:
        choices = [y for y in range(-1, bound + 1) if y != x]
        return choices[rng.below(len(choices))]

    def put(seq, i, item):
        return tuple(seq[:i]) + (item,) + tuple(seq[i + 1:])

    kind = rng.below(4)
    if kind == 0:
        pid = rng.below(d.n_p)
        return dataclasses.replace(d, pvertices=put(d.pvertices, pid, other(d.pvertices[pid], d.n_real)))
    if kind == 1:
        sid, field = rng.below(d.m_p), rng.below(3)
        if field < 2:
            x = 2 * sid + field
            return dataclasses.replace(d, org=put(d.org, x, other(d.org[x], d.n_p)))
        return dataclasses.replace(d, seg_eid=put(d.seg_eid, sid, other(d.seg_eid[sid], len(d.edges))))
    if kind == 2:
        pid = rng.below(d.n_p)
        rot = list(d.rotations[pid])
        i = rng.below(len(rot))
        if rng.below(2):
            j = (i + 1 + rng.below(len(rot) - 1)) % len(rot)
            rot[i], rot[j] = rot[j], rot[i]
        else:
            new = 2 * rng.below(d.m_p + 1) + rng.below(2)
            rot[i] = new if new != rot[i] else 2 * d.m_p
        return dataclasses.replace(d, rotations=put(d.rotations, pid, tuple(rot)))
    eid = rng.below(len(d.edges))
    u, v = d.edges[eid]
    e = (other(u, d.n_real), v) if rng.below(2) else (u, other(v, d.n_real))
    return dataclasses.replace(d, edges=put(d.edges, eid, e))


MUTATION_DRAWINGS = {
    "delta4": lambda: family_delta4(6).drawing,
    "random": lambda: random_oneplanar(10, 3, 4),
    "delta4-k5": lambda: family_delta4_k5(3).drawing,
}


@pytest.mark.parametrize("name", MUTATION_DRAWINGS)
def test_validate_flags_every_one_field_mutation(name):
    d = MUTATION_DRAWINGS[name]()
    assert validate(d).valid
    assert min(len(rot) for rot in d.rotations) >= 3  # a swap changes every rotation
    for seed in range(1000):
        mutant = _one_field_mutant(d, SplitMix64(seed))
        assert mutant != d
        assert not validate(mutant).valid, seed


def test_random_surgery_chains_stay_valid():
    # alternate chord additions and vertex insertions wherever legal;
    # validity and the face-count deltas must hold at every step
    for seed in (1, 5, 17):
        d = random_oneplanar(6, 1, seed)
        for step in range(6):
            fs = _require_valid(d).faces
            f = fs[(seed + step) % len(fs)]
            reals = sorted(set(real_corners(d, f)))
            before = len(fs)
            if step % 2 == 0 and len(reals) >= 3:
                d2 = edit(d, "insert_vertex", f[0], reals[:3])
                assert len(_require_valid(d2).faces) == before + 2
            elif len(reals) >= 2:
                try:
                    d2 = edit(d, "add_chord", f[0], reals[0], reals[1])
                except OnePlanarError:
                    continue
                assert len(_require_valid(d2).faces) == before + 1
            else:
                continue
            assert validate(d2).valid
            d = d2


def test_1pg_round_trip_byte_exact():
    # the last drawing has isolated vertices, whose rotations are empty
    isolated = edit(c4_drawing(), "delete_edges", [0, 1])
    for d in (c4_drawing(), k6_drawing(), random_oneplanar(9, 2, 5), isolated):
        text = write_drawing(d)
        d2 = parse_drawing(text)
        assert write_drawing(d2) == text
        assert d2.edges == d.edges and d2.n_real == d.n_real



# every lookup a drawing caches, each read from the drawing as a whole
CACHED_LOOKUPS = {
    "n_real": lambda d: d.n_real,
    "real_pid": lambda d: d.real_pid,
    "edge_derivation": lambda d: d.edge_derivation,
    "crossed_eids": lambda d: d.crossed_eids,
    "graph": lambda d: d.graph,
    "graph edge set": lambda d: d.graph._edge_set,
    "has_parallel_edges": lambda d: d.has_parallel_edges,
    "incident_eids": lambda d: [d.incident_eids(v) for v in range(d.n_real)],
    "validate": validate,
}
# two sizes of each family and three random seeds, each as a drawing maker
CACHE_DRAWINGS = {
    **{f"{name}-{size}": (lambda fn=fn, size=size: fn(size).drawing)
       for name, (fn, pname) in FAMILIES.items()
       for size in ((4, 6) if pname == "s" else (1, 2))},
    **{f"random-seed{seed}": (lambda seed=seed: random_oneplanar(12, 3, seed)) for seed in (0, 1, 2)},
}


@pytest.mark.parametrize("how", ["freeze", "parse"])
@pytest.mark.parametrize("name", sorted(CACHE_DRAWINGS))
def test_cached_lookups_equal_a_fresh_computation(name, how):
    d = CACHE_DRAWINGS[name]()
    if how == "parse":
        d = parse_drawing(write_drawing(d))
    for lookup in CACHED_LOOKUPS.values():
        lookup(d)
    fresh = dataclasses.replace(d)
    assert set(vars(fresh)) == {f.name for f in dataclasses.fields(d)}
    # the caches enter neither == nor hash
    assert fresh == d and hash(fresh) == hash(d)
    for what, lookup in CACHED_LOOKUPS.items():
        assert lookup(d) == lookup(fresh), what


TRIANGLE_1PG = (
    "1pg 3 0 3\npv 0 real 0\npv 1 real 1\npv 2 real 2\nseg 0 0 1 0 0\nseg 1 0 2 1 0\n"
    "seg 2 1 2 2 0\nrot 0: 0.0 1.0\nrot 1: 0.1 2.0\nrot 2: 1.1 2.1\n"
)
# (old, new) edits of TRIANGLE_1PG that each make it a parse error
TRIANGLE_EDITS = [
    # each id exactly once: a repeated record is an error, even a copy
    ("rot 0: 0.0 1.0\n", "rot 0: 0.0\nrot 0: 0.0 1.0\n"),
    ("rot 0: 0.0 1.0\n", "rot 0: 0.0 1.0\nrot 0: 0.0 1.0\n"),
    ("pv 1 real 1\n", "pv 1 real 1\npv 1 real 1\n"),
    ("seg 1 0 2 1 0\n", "seg 1 0 2 1 0\nseg 1 0 2 1 0\n"),
    # header counts are plain ASCII decimal, and there are three of them
    *(("1pg 3 0 3", head) for head in ("1pg +3 0 3", "1pg 0_3 0 3", "1pg \u0663 0 3", "1pg 3 0 3 junk")),
    # every record kind has an exact token count, and `rot <pid>:` its colon
    ("pv 0 real 0", "pv 0 real 0 99"),
    ("pv 0 real 0", "pv 0 real"),
    ("seg 0 0 1 0 0", "seg 0 0 1 0 0 7"),
    ("rot 0: 0.0 1.0", "rot 0 0.0 1.0"),
    ("rot 0: 0.0 1.0", "rot 0:: 0.0 1.0"),
]


def test_1pg_parse_rejects_garbage():
    assert parse_drawing(TRIANGLE_1PG)
    pvs = "1pg 2 0 1\npv 0 real 0\npv 1 real 1\n"
    for text in (
        "",
        "1pg a b c\n",
        "1pg 2 0 1\npv 0 real 0\n",
        pvs + "seg 5 0 1 0 0\nrot 0: 5.0\nrot 1: 5.1\n",  # segment id beyond the header count
        pvs + "seg 0 0 1 0 0\nrot 0: 0.0\nrot 1: 0.1\nrot 7:\n",  # rotation of no pvertex
        # a dart's end is 0 or 1 and its sid non-negative; as 2*sid + end,
        # 6.2 would alias 7.0 and -1.2 the valid 0.0
        *(pvs + f"seg 0 0 1 0 0\nrot 0: {tok}\nrot 1: 0.1\n" for tok in ("6.2", "8.-2", "-1.1", "-1.2")),
        *(TRIANGLE_1PG.replace(old, new, 1) for old, new in TRIANGLE_EDITS),
        LOOP_1PG,
    ):
        assert text != TRIANGLE_1PG
        with pytest.raises(ParseError):
            parse_drawing(text)


# (edit of k33_one_crossing's text, the parse error it makes): a dummy record
# names the two edges its rotation crosses, smaller first, a seg record's part
# is 1 exactly for a crossed edge's half at its larger endpoint, and the
# header's n_real counts the real records
K33_RECORD_EDITS = {
    "dummy-names-an-edge-it-does-not-cross": (
        ("pv 6 dummy 0 8\n", "pv 6 dummy 0 7\n"), "pv 6 dummy 0 7: its rotation makes it dummy 0 8"
    ),
    "dummy-pair-unsorted": (("pv 6 dummy 0 8\n", "pv 6 dummy 8 0\n"), "pv 6 dummy 8 0: its rotation makes it dummy 0 8"),
    "header-n-real": (("1pg 6 1 11\n", "1pg 7 0 11\n"), "header counts 7 real vertices, text has 6"),
    # edge 8 = (2, 5) runs 2 -> dummy 6 (seg 9) -> 5 (seg 10)
    "crossed-half-part-flipped": (("seg 10 5 6 8 1\n", "seg 10 5 6 8 0\n"), "seg 10 5 6 8 0: its edge makes it part 1"),
    "uncrossed-segment-part-1": (("seg 4 1 4 4 0\n", "seg 4 1 4 4 1\n"), "seg 4 1 4 4 1: its edge makes it part 0"),
}


@pytest.mark.parametrize("case", K33_RECORD_EDITS)
def test_1pg_records_must_agree_with_the_drawing(case, tmp_path, capsys):
    (old, new), message = K33_RECORD_EDITS[case]
    text = write_drawing(k33_one_crossing())
    bad = text.replace(old, new)
    assert bad != text
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_drawing(bad)
    path = tmp_path / "bad.1pg"
    path.write_text(bad)
    assert main(["check", "obs1", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_rotation_table_must_cover_every_pvertex():
    d = dataclasses.replace(c4_drawing(), rotations=c4_drawing().rotations[:-1])
    assert validate(d).violations == ("rotation table size differs from pvertex count",)


def test_origin_table_must_have_two_entries_per_segment():
    d = dataclasses.replace(c4_drawing(), org=c4_drawing().org[:-1])
    # the last dart lost its origin, so its pvertex's rotation no longer fits
    assert validate(d).violations == (
        "origin table size differs from two per segment",
        "rotation at pvertex 3 inconsistent with incident segments",
    )


def _one_number_edit(text: str, seed: int) -> str:
    """A seeded copy of text with one integer token changed; the `:` and `.`
    around it stay."""
    spans = [m.span() for m in re.finditer(r"\b\d+\b", text)]
    hi = max(int(text[a:b]) for a, b in spans) + 1
    rng = SplitMix64(seed)
    a, b = spans[rng.below(len(spans))]
    old = int(text[a:b])
    new = old + 2 * rng.below(2) - 1 if rng.below(2) else rng.below(hi + 2) - 1
    return text[:a] + str(new if new != old else hi + 1) + text[b:]


def _shuffled(items: list, rng: SplitMix64) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _relabelled(text: str, rng: SplitMix64) -> str:
    """The same drawing as the `1pg` text under new ids: pvertex, segment,
    edge and real vertex ids permuted, each segment written from either end,
    and the records shuffled.  A crossed edge's part 0 stays the segment at
    its smaller endpoint, and a dummy's edge pair stays in ascending order."""
    head, *records = text.splitlines()
    rows = [ln.split() for ln in records]
    n_real, n_dummy, n_seg = (int(x) for x in head.split()[1:])
    segs = {int(r[1]): [int(x) for x in r[2:]] for r in rows if r[0] == "seg"}
    pids = _shuffled(range(n_real + n_dummy), rng)
    sids = _shuffled(range(n_seg), rng)
    eids = _shuffled(range(1 + max(eid for _, _, eid, _ in segs.values())), rng)
    vids = _shuffled(range(n_real), rng)
    flip = [rng.below(2) for _ in range(n_seg)]
    vid = {int(r[1]): vids[int(r[3])] for r in rows if r[:3:2] == ["pv", "real"]}
    # the new id of each segment's real end; a crossed edge's segments have one each
    real_end = {sid: min(vid.get(a, n_real), vid.get(b, n_real)) for sid, (a, b, _, _) in segs.items()}
    crossed = {}
    for sid, (_, _, eid, _) in segs.items():
        crossed.setdefault(eid, []).append(real_end[sid])
    out = []
    for r in rows:
        if r[:3:2] == ["pv", "real"]:
            out.append(f"pv {pids[int(r[1])]} real {vid[int(r[1])]}")
        elif r[0] == "pv":
            a, b = sorted([eids[int(r[3])], eids[int(r[4])]])
            out.append(f"pv {pids[int(r[1])]} dummy {a} {b}")
        elif r[0] == "seg":
            sid, (a, b, eid, part) = int(r[1]), segs[int(r[1])]
            a, b = (b, a) if flip[sid] else (a, b)
            if len(crossed[eid]) == 2:
                part = int(real_end[sid] > min(crossed[eid]))
            out.append(f"seg {sids[sid]} {pids[a]} {pids[b]} {eids[eid]} {part}")
        else:
            darts = [tok.split(".") for tok in r[2:]]
            new = [f"{sids[int(s)]}.{int(e) ^ flip[int(s)]}" for s, e in darts]
            out.append(" ".join(["rot", f"{pids[int(r[1][:-1])]}:", *new]))
    return "\n".join([head, *_shuffled(out, rng)]) + "\n"


def _outcome(text: str) -> str:
    try:
        return write_drawing(parse_drawing(text))
    except ParseError:
        return "reject"


@pytest.mark.parametrize("name", MUTATION_DRAWINGS)
def test_1pg_one_number_edits_keep_their_outcomes(name):
    # The digest over the 1,000 outcomes (`reject`, or the parsed drawing
    # written back) was taken with the earlier two-pass parser.  Every one of
    # these edits breaks the drawing, so it is the digest of 1,000 rejections:
    # the gate holds that no one-number edit gets through.
    text = write_drawing(MUTATION_DRAWINGS[name]())
    h = hashlib.sha256()
    for seed in range(1000):
        h.update(_outcome(_one_number_edit(text, seed)).encode() + b"\0")
    assert h.hexdigest() == "f8a8725a01af973307c338ffa6b29016ddcdc5b09ed19d26a3b0091fa14d9fcd"


RELABEL_DIGESTS = {
    "delta4": "e0b8206579afd0a6f08123e47a418a3ca758836ef55d03a1817d842c087e51b5",
    "random": "896d5cee9976dd786445950a440703542baab806d9086596d9b7ff63125656ed",
    "delta4-k5": "0ccb157db1bc51b32386fd531fc93da6e4afa0600ea587fefb4d68947ea7d1c1",
}


@pytest.mark.parametrize("name", MUTATION_DRAWINGS)
def test_1pg_relabelled_texts_keep_their_outcomes(name):
    # Each seed relabels the drawing (a valid text, which must parse to the
    # relabelled drawing) and then makes one one-number edit of it.  The
    # digest over the outcomes was taken with the earlier parser that stored
    # each dummy's recorded edge pair, so the relabelled drawings pin that
    # both parsers read valid texts alike.
    text = write_drawing(MUTATION_DRAWINGS[name]())
    h = hashlib.sha256()
    for seed in range(200):
        relabelled = _relabelled(text, SplitMix64(seed))
        drawn = _outcome(relabelled)
        assert drawn != "reject", seed
        h.update(drawn.encode() + b"\0" + _outcome(_one_number_edit(relabelled, seed)).encode() + b"\0")
    assert h.hexdigest() == RELABEL_DIGESTS[name]


@pytest.mark.parametrize("name", MUTATION_DRAWINGS)
def test_1pg_records_parse_in_any_order(name):
    # shuffled records, each rotation written from a seeded dart, and blank
    # lines all give back the same drawing
    text = write_drawing(MUTATION_DRAWINGS[name]())
    head, *records = text.splitlines()
    for seed in range(100):
        rng = SplitMix64(seed)
        lines = _shuffled(records, rng)
        for i, ln in enumerate(lines):
            if ln.startswith("rot "):
                tag, *darts = ln.split(" ")[1:]
                k = rng.below(len(darts))
                lines[i] = " ".join(["rot", tag] + darts[k:] + darts[:k])
        lines.insert(rng.below(len(lines)), " ")
        assert write_drawing(parse_drawing("\n".join([head] + lines))) == text


def test_1pg_parse_header_counts_allocate_nothing():
    tracemalloc.start()
    try:
        # a negative dummy count must not let n_real pass the record count
        for text in ("1pg 1000000 0 0\npv 0 real 0\n", "1pg 1000000 -999999 0\npv 0 real 0\n"):
            with pytest.raises(ParseError):
                parse_drawing(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
