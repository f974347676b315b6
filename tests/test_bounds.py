import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oneplanar import bounds
from oneplanar.bounds import (
    certify_matching_bound,
    charge_verify,
    charging_run,
    check_cw_degree_bound,
    check_degree_bound,
    check_deficiency,
    write_ledger,
)
from oneplanar.cli import main
from oneplanar.embedding import (
    _Builder,
    _face_orbits,
    corner_positions,
    crossing_weighted_degree,
    drawing_from_faces,
    validate,
    write_drawing,
)
from oneplanar.errors import (
    DegreeTooLow,
    EmptyT,
    InvalidDrawing,
    NoProvenance,
    NotIndependent,
    STooSmall,
)
from oneplanar.generators import (
    family_delta3,
    family_delta4,
    family_delta5,
    random_oneplanar,
)
from oneplanar.graph import build_graph
from oneplanar.matcher import Matching
from oneplanar.rng import SplitMix64

from conftest import cube_drawing, edit, greedy_independent_t, make_k, share_an_endpoint


def hexagon_center_all_crossed():
    """Hexagon with a center vertex whose three spokes are all crossed."""
    b = _Builder(drawing_from_faces(6, [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]))
    spokes = b.insert_vertex(0, [0, 2, 4])
    b.add_crossed(spokes[0], 1, 5)
    b.add_crossed(spokes[1], 3, 1)
    b.add_crossed(spokes[2], 5, 3)
    return b.freeze()


DELTA3_T = frozenset(range(4, 16))


# --- degree-class bounds ------------------------------------------------


def test_independent_set_enumerator_is_exhaustive():
    # cross-check the sweep enumerator against a plain subset filter
    from itertools import combinations

    from conftest import independent_sets_with_min_degree, random_graph
    from oneplanar.graph import is_independent

    for seed in range(30):
        g = random_graph(seed, max_n=8)
        eligible = [v for v in range(g.n) if g.degree(v) >= 3]
        brute = set()
        for r in range(1, len(eligible) + 1):
            for combo in combinations(eligible, r):
                if is_independent(g, combo):
                    brute.add(frozenset(combo))
        fast = {frozenset(t) for t in independent_sets_with_min_degree(g)}
        assert fast == brute


def test_degree_bound_tight_on_delta3():
    chk = check_degree_bound(family_delta3(4).drawing, DELTA3_T)
    assert (chk.lhs, chk.rhs, chk.holds) == (24, 24, True)
    assert chk.tight


def test_degree_bound_k33():
    from test_embedding import k33_one_crossing

    chk = check_degree_bound(k33_one_crossing(), {0, 1, 2})
    assert (chk.lhs, chk.rhs, chk.holds) == (6, 12, True)


def test_degree_bound_preconditions():
    cube = cube_drawing()
    with pytest.raises(EmptyT):
        check_degree_bound(cube, set())
    with pytest.raises(NotIndependent):
        check_degree_bound(cube, {0, 1})
    c4 = drawing_from_faces(4, [[0, 1, 2, 3], [3, 2, 1, 0]])
    with pytest.raises(DegreeTooLow):
        check_degree_bound(c4, {0})


def test_cw_bound_tight_on_cube():
    chk = check_cw_degree_bound(cube_drawing(), {0, 3, 5, 6})
    assert (chk.lhs, chk.rhs, chk.holds) == (24, 24, True)
    assert chk.tight


def test_cw_bound_all_crossed_vertex_contributes_two():
    d = hexagon_center_all_crossed()
    assert crossing_weighted_degree(d, 6) == 3
    chk = check_cw_degree_bound(d, {6})
    assert chk.lhs == 2
    assert chk.holds


def test_cw_bound_on_delta3():
    d = family_delta3(4).drawing
    chk = check_cw_degree_bound(d, DELTA3_T)
    assert chk.holds
    # every inserted vertex has cw-degree 4 in the canonical pattern
    assert [crossing_weighted_degree(d, v) for v in sorted(DELTA3_T)] == [4] * 12


# --- charging engine ------------------------------------------------------


@pytest.mark.parametrize("seed", [None, 11, 12, 13, 14, 15])
def test_charging_delta3_all_orders(seed):
    inst = family_delta3(4)
    ledger = charging_run(inst.drawing, inst.witness, order_seed=seed)
    assert ledger.t == DELTA3_T
    assert ledger.totals[0] <= ledger.totals[1] == 168
    report = charge_verify(ledger)
    assert report.ok, report.violations


def test_charging_preconditions():
    k4 = drawing_from_faces(4, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(STooSmall):
        charging_run(k4, {0, 1})
    c4 = drawing_from_faces(4, [[0, 1, 2, 3], [3, 2, 1, 0]])
    with pytest.raises(DegreeTooLow):
        charging_run(c4, {0, 1, 2})


def test_charging_postcondition_is_a_typed_error(tmp_path, capsys, monkeypatch):
    # a saturation that left three consecutive crossed edges at a T-vertex
    # is a violation of the run, not of its input: the auditor reports it,
    # and `check charge` prints it and exits 4
    monkeypatch.setattr(bounds, "_three_consecutive_crossed", lambda ledger: [5])
    assert main(["generate", "delta3", "--s", "4", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["check", "charge", str(tmp_path / "delta3-s4.1pg"), "--S", str(tmp_path / "delta3-s4.witness")])
    assert code == 4
    assert capsys.readouterr().out == "violations: 1\n  T-vertex 5 keeps three consecutive crossed edges\n"


def test_three_consecutive_crossed_finds_the_all_crossed_center():
    # only the center's rotation has three crossed edges in a row; the
    # check reads a ledger's augmented drawing and its T alone
    d = hexagon_center_all_crossed()
    ledger = SimpleNamespace(gamma_prime=d, t=frozenset(range(d.n_real)))
    assert bounds._three_consecutive_crossed(ledger) == [6]


def test_degree_bounds_reject_parallel_edges():
    # a charging run's final drawing may double an edge; the degree
    # bounds count each vertex pair once, so they refuse such a drawing
    d = random_oneplanar(7, 0, 3)
    t = greedy_independent_t(d.graph)
    final = charging_run(d, frozenset(range(d.n_real)) - t).final
    assert final.has_parallel_edges and not d.has_parallel_edges
    for check in (check_degree_bound, check_cw_degree_bound):
        with pytest.raises(InvalidDrawing, match="^degree bounds require a drawing without parallel edges$"):
            check(final, t)


def test_charging_case_two_vertices_get_exactly_fourteen():
    # degree-3 T-vertices with one uncrossed leg end up with charge
    # 6 + 3 + 3 + 2, the last through an auxiliary edge
    inst = family_delta3(4)
    ledger = charging_run(inst.drawing, inst.witness)
    crossed = ledger.gamma_prime.crossed_eids
    vc = dict(ledger.vertex_charge)
    aux_neighbors = {t for _, attach in ledger.delta_attach for t in attach}
    found = 0
    for tv in sorted(ledger.t):
        incident = [
            eid for eid, (u, v) in enumerate(ledger.gamma_prime.edges) if tv in (u, v)
        ]
        uncrossed = [e for e in incident if e not in crossed]
        if len(incident) == 3 and len(uncrossed) == 1:
            found += 1
            assert vc[tv] == 14
            assert tv in aux_neighbors
    assert found == 12


def test_charging_planar_bipartite_case_one():
    # all legs uncrossed: every c(t) >= 3 deg(t) + 6
    cube = cube_drawing()
    t = frozenset({0, 3, 5, 6})
    ledger = charging_run(cube, frozenset(range(8)) - t)
    g = ledger.base.graph
    for tv, c in ledger.vertex_charge:
        assert c >= 3 * g.degree(tv) + 6
    assert charge_verify(ledger).ok


def test_charging_aux_edges_are_triples():
    inst = family_delta3(4)
    ledger = charging_run(inst.drawing, inst.witness)
    assert len(ledger.delta_edges) == 3 * len(ledger.delta_vertices)
    assert len(ledger.delta_vertices) == 4


def test_charging_survives_step0_disconnection():
    # hexagon-with-center: deleting S-S edges uncrosses the spokes and
    # leaves degree-0 S vertices; the run must still audit cleanly
    d = hexagon_center_all_crossed()
    ledger = charging_run(d, frozenset(range(6)))
    assert charge_verify(ledger).ok
    assert not ledger.base.crossed_eids


@pytest.mark.parametrize("which", ["delta3-s24", "random-n137"])
def test_charging_reads_each_face_once(monkeypatch, which):
    # every face is read once, when it appears: the base faces, the two
    # pieces of each chord and the three of each auxiliary vertex
    if which == "delta3-s24":
        inst = family_delta3(24)
        d, s = inst.drawing, inst.witness
    else:
        d = random_oneplanar(137, 3 * 137 // 16, 1)
        s = frozenset(range(d.n_real)) - greedy_independent_t(d.graph)
    reads = 0
    corner_positions = bounds.corner_positions

    def counted(drawing, face):
        nonlocal reads
        reads += 1
        return corner_positions(drawing, face)

    monkeypatch.setattr(bounds, "corner_positions", counted)
    ledger = charging_run(d, s)
    assert ledger.added_chords or ledger.delta_vertices
    created = 2 * len(ledger.added_chords) + 3 * len(ledger.delta_vertices)
    assert reads <= len(validate(ledger.base).faces) + created


def _reference_charging(d, s, order_seed=None):
    """Steps 0-2 by full rescans: (chords, aux attachments, final drawing).
    Each iteration walks every face, takes the first with an S-T pair that
    has a chord position off the face's sides (step 1), or with three or
    more T-corners (step 2), and keeps nothing for the next.  Under a seed,
    one SplitMix64 shuffles the whole face list before each chord and the
    sorted S-T pairs of each face visited, and the first pair with a chord
    position wins."""
    t = frozenset(range(d.n_real)) - s
    rng = SplitMix64(order_seed) if order_seed is not None else None
    b = _Builder(d)
    b.delete_edges([eid for eid, (u, v) in enumerate(d.edges) if u in s and v in s])

    def occurrences(face, side):
        occ = {}
        for i, vid in corner_positions(b, face):
            if vid in side:
                occ.setdefault(vid, []).append(i)
        return occ

    def shuffled(items):
        if rng is not None:
            rng.shuffle(items)
        return items

    def chord(face):
        at_s, at_t, k = occurrences(face, s), occurrences(face, t), len(face)
        for sv, tv in shuffled([(sv, tv) for sv in sorted(at_s) for tv in sorted(at_t)]):
            if any((i - j) % k not in (1, k - 1) for i in at_s[sv] for j in at_t[tv]):
                return sv, tv
        return None

    chords, attached = [], []
    while found := next(((f[0], c) for f in shuffled(_face_orbits(b)) if (c := chord(f))), None):
        b.add_chord(found[0], *found[1])
        chords.append(found[1])
    while face := next((f for f in _face_orbits(b) if len(occurrences(f, t)) >= 3), None):
        attach = tuple(sorted(occurrences(face, t))[:3])
        attached.append((b.n_real, attach))
        b.insert_vertex(face[0], attach)
    return chords, attached, write_drawing(b.freeze())


def _reference_inputs():
    """(drawing, S): delta3 with its witness, and random drawings with S the
    complement of the greedy T."""
    for size in (4, 6, 10):
        inst = family_delta3(size)
        yield inst.drawing, inst.witness
    for seed in range(57):
        d = random_oneplanar(8 + seed % 17, seed % 4, seed)
        yield d, frozenset(range(d.n_real)) - greedy_independent_t(d.graph)


def test_charging_run_equals_a_full_rescan_reference():
    # the engine keeps per-face records across edits and walks only new
    # pieces; a rescan of every face after every edit must agree with it
    inputs, chords, aux = 0, 0, 0
    for d, s in _reference_inputs():
        ledger = charging_run(d, s)
        want = (list(ledger.added_chords), list(ledger.delta_attach), write_drawing(ledger.final))
        assert _reference_charging(d, s) == want
        inputs, chords, aux = inputs + 1, chords + len(ledger.added_chords), aux + len(ledger.delta_attach)
    # delta3 brings all 28 auxiliary vertices
    assert (inputs, chords, aux) == (60, 456, 28)


# CI's deep-profile step runs this at 2,000 examples
@given(
    n=st.integers(8, 24), crossings=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
    order_seed=st.integers(0, 2**64 - 1),
)
@settings(deadline=None, database=None)
def test_seeded_charging_run_equals_a_full_rescan_reference(n, crossings, seed, order_seed):
    # under a seed the engine still draws as a full rescan would: the whole
    # face list before each chord, then the pairs of each face it visits
    d = random_oneplanar(n, crossings, seed)
    s = frozenset(range(d.n_real)) - greedy_independent_t(d.graph)
    ledger = charging_run(d, s, order_seed)
    want = (list(ledger.added_chords), list(ledger.delta_attach), write_drawing(ledger.final))
    assert _reference_charging(d, s, order_seed) == want


def test_ledger_dump_shape():
    inst = family_delta3(4)
    ledger = charging_run(inst.drawing, inst.witness)
    text = write_ledger(ledger)
    lines = text.strip().split("\n")
    assert lines[0] == "ledger"
    assert lines[-1] == f"total {ledger.totals[0]} {ledger.totals[1]}"
    assert sum(1 for ln in lines if ln.startswith("deltav ")) == 4
    assert sum(1 for ln in lines if ln.startswith("ct ")) == 12


def test_charging_on_corpus_sample():
    for seed in (0, 7, 23, 41, 77, 123):
        d = random_oneplanar(4 + seed % 5, seed % 3, seed)
        g = d.graph
        t = greedy_independent_t(g)
        s = frozenset(range(g.n)) - t
        if not t or len(s) < 3:
            continue
        for order in (None, 5):
            report = charge_verify(charging_run(d, s, order_seed=order))
            assert report.ok, report.violations


def test_charging_holds_for_every_admissible_t():
    # T only needs independence and degree >= 3; non-maximal sets included
    from conftest import independent_sets_with_min_degree

    for seed in (2, 9, 31):
        d = random_oneplanar(4 + seed % 4, seed % 3, seed)
        g = d.graph
        for t in independent_sets_with_min_degree(g):
            t = frozenset(t)
            s = frozenset(range(g.n)) - t
            if len(s) < 3:
                continue
            report = charge_verify(charging_run(d, s))
            assert report.ok, (seed, sorted(t), report.violations)


# ledger corruptions the auditor must report (not crash on): each maps a
# valid ledger to the replaced fields and to the full violation tuple.  The
# ledger's T-vertex 5 has deg 3, crossing-weighted degree 6 and three
# uncrossed edges in the augmented drawing, and is charged 18; the last four
# cases store its c(t) at the edge of each per-vertex bound
def _c5(lg, c):
    return {"vertex_charge": ((5, c),) + lg.vertex_charge[1:]}


def _swap_first_two(rot):
    return (rot[1], rot[0]) + rot[2:]


LEDGER_MUTATIONS = {
    "charge-outside-2-3-6": lambda lg: (
        {"charge_class": ((0, 5),) + lg.charge_class[1:]},
        ("edge 0 charged 5, expected 6", "stored total 228 != recomputed 227",
         "sum of c(t) = 228 != total 227", "c(5) stored 18 != recomputed 17")),
    "charge-edge-id-unknown": lambda lg: (
        {"charge_class": lg.charge_class + ((len(lg.final.edges), 6),)},
        ("edge 63 charged 6 is not an edge of the final drawing", "stored total 228 != recomputed 234",
         "sum of c(t) = 228 != total 234")),
    "charge-entry-dropped": lambda lg: (
        {"charge_class": lg.charge_class[1:]},
        ("edge 0 (0, 5) has no charge", "stored total 228 != recomputed 222",
         "sum of c(t) = 228 != total 222", "c(5) stored 18 != recomputed 12")),
    "t-vertex-uncharged": lambda lg: (
        {"vertex_charge": lg.vertex_charge[1:]},
        ("sum of c(t) = 210 != total 228", "c(5) missing from the ledger")),
    "t-vertex-unknown": lambda lg: (
        {"t": lg.t | {999}},
        ("stored rhs 252 != recomputed 264", "T-vertex 999 is not a vertex of the drawing")),
    "c-13": lambda lg: (
        _c5(lg, 13),
        ("sum of c(t) = 223 != total 228", "c(5) stored 13 != recomputed 18", "c(5) = 13 < 14",
         "c(5) = 13 < 3*deg+6 = 15 despite 3 uncrossed edges", "c(5) = 13 < 3*cw-degree = 18")),
    "c-3deg+5": lambda lg: (
        _c5(lg, 14),
        ("sum of c(t) = 224 != total 228", "c(5) stored 14 != recomputed 18",
         "c(5) = 14 < 3*deg+6 = 15 despite 3 uncrossed edges", "c(5) = 14 < 3*cw-degree = 18")),
    "c-3deg+6": lambda lg: (
        _c5(lg, 15),
        ("sum of c(t) = 225 != total 228", "c(5) stored 15 != recomputed 18",
         "c(5) = 15 < 3*cw-degree = 18")),
    "c-3cw-1": lambda lg: (
        _c5(lg, 17),
        ("sum of c(t) = 227 != total 228", "c(5) stored 17 != recomputed 18",
         "c(5) = 17 < 3*cw-degree = 18")),
    # the final drawing's auxiliary edge gives each T-vertex 8..22, whose
    # charge is 14, a second uncrossed edge: the 3*deg+6 bound then applies
    "gamma-prime-two-uncrossed": lambda lg: (
        {"gamma_prime": lg.final},
        tuple(f"c({t}) = 14 < 3*deg+6 = 15 despite 2 uncrossed edges" for t in range(8, 23))),
    # two fewer S-vertices make the bound 228, one less than the total
    "total-one-over-the-bound": lambda lg: (
        {"s": lg.s - {6, 7}, "charge_class": ((0, 7),) + lg.charge_class[1:]},
        ("edge 0 charged 7, expected 6", "stored total 228 != recomputed 229", "stored rhs 252 != recomputed 228",
         "total charges 229 exceed bound 228", "sum of c(t) = 228 != total 229", "c(5) stored 18 != recomputed 19")),
    # the first two darts at pvertex 0 swapped: the final drawing's faces no longer fit Euler's formula
    "final-rotation-swapped": lambda lg: (
        {"final": dataclasses.replace(lg.final, rotations=(_swap_first_two(lg.final.rotations[0]),)
                                      + lg.final.rotations[1:])},
        ("final drawing invalid: fails Euler: n=43 m=93 f=52 in 3 components, want n - m + f = 4",)),
    # T-vertex 5 moved to S: |S| + |T| and the charges stay, and its three edges join S to S
    "t-vertex-moved-to-s": lambda lg: (
        {"s": lg.s | {5}, "t": lg.t - {5}},
        tuple(f"edge ({u},5) does not have exactly one T endpoint" for u in (0, 1, 3))),
    "delta-edge-dropped": lambda lg: ({"delta_edges": lg.delta_edges[1:]}, ("|E_delta| = 14 != 3*5",)),
    # T-vertex 8, two of whose three edges are crossed, listed as a sixth auxiliary vertex
    "delta-vertex-on-crossed-edges": lambda lg: (
        {"delta_attach": lg.delta_attach + ((8, (9, 10, 11)),)},
        ("|E_delta| = 15 != 3*6", "auxiliary edge (0,8) is crossed", "auxiliary edge (4,8) is crossed",
         "edge 3 charged 6, expected 2", "edge 4 charged 3, expected 2", "edge 11 charged 3, expected 2")),
    # step 1 added no chord; a new edge drawn across (0, 5), segment 0, in gamma_prime reads as a crossed chord
    "chord-crossed": lambda lg: (
        {"gamma_prime": edit(lg.gamma_prime, "add_crossed", 1, 1, 3)}, ("added chord (1, 3) is crossed",)),
    # gamma_prime's five T-heavy faces, each with exactly three T-corners, kept as the final drawing
    "t-heavy-faces-kept": lambda lg: (
        {"final": lg.gamma_prime},
        (*(f"edge {eid} charged 2 is not an edge of the final drawing" for eid in range(48, 63)),
         *(f"c({t}) stored 14 != recomputed 12" for t in range(8, 23)),
         *(f"face with >=3 T-corners survived: {walk}" for walk in (
             "5.1 13.1 7.1 15.1 11.1 17.1", "20.1 28.1 23.1 30.1 26.1 32.1", "35.1 43.1 37.1 45.1 41.1 47.1",
             "50.1 58.1 52.1 60.1 56.1 62.1", "65.1 73.1 68.1 75.1 71.1 77.1")))),
}


@pytest.mark.parametrize("kind", sorted(LEDGER_MUTATIONS))
def test_charge_verify_reports_corrupted_ledgers(kind):
    inst = family_delta3(5)
    # vertices 6 and 7 join the witness, which leaves vertex 5 three uncrossed edges
    t = frozenset(range(8, 23)) | {5}
    ledger = charging_run(inst.drawing, frozenset(range(23)) - t)
    assert charge_verify(ledger).ok
    assert ledger.charge_class[0] == (0, 6) and ledger.vertex_charge[0] == (5, 18)
    assert (crossing_weighted_degree(ledger.base, 5), ledger.base.graph.degree(5)) == (6, 3)
    changes, violations = LEDGER_MUTATIONS[kind](ledger)
    assert charge_verify(dataclasses.replace(ledger, **changes)).violations == violations


# --- deficiency bounds ----------------------------------------------------


def test_deficiency_bound_delta3_tight():
    inst = family_delta3(4)
    chk = check_deficiency(inst.graph, inst.witness, 3)
    assert (chk.lhs, chk.rhs) == (8, Fraction(56, 7))
    assert chk.holds and chk.tight


def test_deficiency_bound_delta4_tight():
    inst = family_delta4(8)
    chk = check_deficiency(inst.graph, inst.witness, 4)
    assert (chk.lhs, chk.rhs) == (4, 4)
    assert chk.holds and chk.tight


def test_deficiency_bound_requires_two_vertices():
    with pytest.raises(STooSmall):
        check_deficiency(family_delta3(4).graph, {0}, 3)


def test_deficiency_bound_needs_a_tabled_delta():
    inst = family_delta3(4)
    with pytest.raises(ValueError, match=r"^delta must be one of \[3, 4, 5\]$"):
        check_deficiency(inst.graph, inst.witness, 6)


def test_deficiency_bound_degree_gate():
    with pytest.raises(DegreeTooLow):
        check_deficiency(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 1}, 3)


def test_deficiency_mindeg5_tight():
    chk = check_deficiency(family_delta5(4).graph, {0}, 5)
    assert (chk.lhs, chk.rhs) == (3, 3)
    assert chk.tight
    chk6 = check_deficiency(family_delta5(6).graph, {0}, 5)
    assert (chk6.lhs, chk6.rhs) == (5, 5)


def test_deficiency_mindeg5_single_vertex_of_k6():
    # removing one vertex of K6 leaves one odd K5 component: lhs = 0 = rhs
    chk = check_deficiency(make_k(6), {0}, 5)
    assert (chk.lhs, chk.rhs, chk.holds) == (0, 0, True)
    with pytest.raises(STooSmall):
        check_deficiency(make_k(6), set(), 5)


# --- matching certifier ---------------------------------------------------


def test_certify_delta3_tight():
    inst = family_delta3(4)
    rep = certify_matching_bound(inst.graph, 3, inst.drawing)
    assert rep.applicable and rep.holds and rep.tight
    assert rep.matching_size == 4 and rep.bound == 4


def test_certify_delta5_tight():
    inst = family_delta5(4)
    rep = certify_matching_bound(inst.graph, 5, inst.drawing)
    assert rep.holds and rep.tight
    assert rep.matching_size == 9 and rep.bound == Fraction(45, 5)


def test_certify_not_applicable_below_threshold():
    inst = family_delta4(4)
    rep = certify_matching_bound(inst.graph, 4, inst.drawing)
    assert not rep.applicable
    assert rep.threshold == 20
    assert rep.holds is None


def test_certify_requires_provenance():
    inst = family_delta3(4)
    with pytest.raises(NoProvenance):
        certify_matching_bound(inst.graph, 3, None)
    with pytest.raises(NoProvenance):
        certify_matching_bound(inst.graph, 3, family_delta4(4).drawing)
    # the same n, and the edge (1, 2) of the substrate moved to a non-edge at 0
    w = min(v for v in range(1, inst.graph.n) if not inst.graph.has_edge(0, v))
    moved = build_graph(inst.graph.n, [e for e in inst.graph.edges if e != (1, 2)] + [(0, w)])
    with pytest.raises(NoProvenance, match="^attested drawing does not match the graph$"):
        certify_matching_bound(moved, 3, inst.drawing)


def test_certify_degree_gate():
    with pytest.raises(DegreeTooLow):
        certify_matching_bound(family_delta3(4).graph, 4, family_delta3(4).drawing)


def test_certify_nontight_instance():
    # a near-perfect-matching graph comfortably beats the weaker bound
    inst = family_delta5(2)  # n = 11, matching 5
    rep = certify_matching_bound(inst.graph, 3, inst.drawing)
    assert rep.applicable and rep.holds and not rep.tight
    assert rep.matching_size == 5
    assert rep.bound == Fraction(23, 7)


def test_certify_carries_the_barrier_proof():
    inst = family_delta3(4)  # n = 16, |M| = 4: the failed trees' inner vertices are S = 0..3
    rep = certify_matching_bound(inst.graph, 3, inst.drawing)
    assert rep.certified
    assert (rep.barrier, rep.barrier_bound, rep.violations) == (frozenset(range(4)), 4, ())


def test_certify_rejects_a_matching_its_barrier_does_not_prove(monkeypatch):
    blossom = bounds.maximum_matching
    inst = family_delta3(4)

    def certify(change):
        monkeypatch.setattr(bounds, "maximum_matching", lambda g: change(blossom(g)))
        return certify_matching_bound(inst.graph, 3, inst.drawing)

    # one edge dropped, the barrier kept: |M| = 3 < 4
    rep = certify(lambda m: Matching(m.edges - {min(m.edges)}, m.barrier))
    assert not rep.certified
    assert (rep.matching_size, rep.barrier_bound) == (3, 4)
    assert rep.violations[0] == "not maximal: (0,4) joins two exposed vertices"
    # a maximum matching with the wrong barrier proves nothing either
    rep = certify(lambda m: Matching(m.edges))
    assert not rep.certified
    assert (rep.matching_size, rep.barrier_bound, rep.violations) == (4, 8, ())
    # |M| = 4 meets the barrier's bound, but M is no matching
    rep = certify(lambda m: share_an_endpoint(inst.graph, m))
    assert not rep.certified
    assert (rep.matching_size, rep.barrier_bound) == (4, 4)
    assert rep.violations[0] == "(0,4) shares an endpoint"
