import pytest
from conftest import check_instance

from oneplanar.embedding import _face_orbits, validate, write_drawing
from oneplanar.errors import BadParity, ParseError, TooManyCrossings, TooSmall
from oneplanar.generators import (
    _stacked_quadrangulation,
    _stacked_triangulation,
    cube_block_drawing,
    family_delta3,
    family_delta4,
    family_delta4_k5,
    family_delta5,
    family_delta6,
    family_delta7,
    k6_drawing,
    mindeg7_block_drawing,
    parse_witness,
    random_oneplanar,
    write_witness,
)
from oneplanar.graph import is_independent, min_degree, odd_components
from oneplanar.matcher import maximum_matching, tutte_berge_bruteforce
from oneplanar.rng import SplitMix64


@pytest.mark.parametrize("s,want_faces", [(3, 2), (4, 4), (10, 16)])
def test_stacked_triangulation_face_count(s, want_faces):
    d = _stacked_triangulation(s, None)[0].freeze()
    assert validate(d).valid
    assert len(_face_orbits(d)) == want_faces
    assert all(len(f) == 3 for f in _face_orbits(d))


def test_stacked_triangulation_too_small():
    with pytest.raises(TooSmall):
        _stacked_triangulation(2, None)


@pytest.mark.parametrize("s,want_faces", [(4, 2), (8, 6), (12, 10)])
def test_stacked_quadrangulation_face_count(s, want_faces):
    d = _stacked_quadrangulation(s)[0].freeze()
    assert validate(d).valid
    assert len(_face_orbits(d)) == want_faces
    assert all(len(f) == 4 for f in _face_orbits(d))


def test_stacked_quadrangulation_parity():
    with pytest.raises(BadParity):
        _stacked_quadrangulation(7)
    with pytest.raises(TooSmall):
        _stacked_quadrangulation(2)


ALL_INSTANCES = [
    family_delta3(4),
    family_delta3(6),
    family_delta4(4),
    family_delta4(8),
    family_delta4_k5(1),
    family_delta4_k5(6),
    family_delta5(1),
    family_delta5(4),
    family_delta6(1),
    family_delta6(3),
    family_delta7(1),
    family_delta7(2),
]


@pytest.mark.parametrize("inst", ALL_INSTANCES, ids=lambda i: i.name)
def test_family_invariants(inst):
    assert check_instance(inst) == []


@pytest.mark.parametrize("inst", ALL_INSTANCES, ids=lambda i: i.name)
def test_family_matching_within_predicted_upper(inst):
    assert len(maximum_matching(inst.graph)) <= inst.predicted_matching_upper


def test_delta3_sizes():
    inst = family_delta3(4)
    assert inst.graph.n == 16
    assert inst.predicted_deficiency == 8
    assert inst.predicted_matching_upper == 4
    inst6 = family_delta3(6)
    assert inst6.graph.n == 30
    assert inst6.predicted_matching_upper == 6 == (30 + 12) // 7


def test_delta3_witness_leaves_singletons():
    inst = family_delta3(4)
    count = odd_components(inst.graph, inst.witness)
    assert count == 12
    assert count == inst.graph.n - len(inst.witness)  # so every component is a singleton
    assert is_independent(inst.graph, set(range(4, 16)))


def test_delta4_sizes():
    inst = family_delta4(8)
    assert inst.graph.n == 20
    assert inst.predicted_deficiency == 4
    assert inst.predicted_matching_upper == 8
    assert family_delta4(4).predicted_deficiency == 0


def test_delta4_k5_chain():
    inst = family_delta4_k5(6)
    assert inst.graph.n == 20
    w = tutte_berge_bruteforce(inst.graph)
    assert w.deficiency == 4 == inst.predicted_deficiency
    assert len(maximum_matching(inst.graph)) == 8 == (inst.graph.n + 4) // 3
    k1 = family_delta4_k5(1)
    assert k1.graph.n == 5 and len(maximum_matching(k1.graph)) == 2


def test_delta5_sizes():
    inst = family_delta5(4)
    assert inst.graph.n == 21
    assert inst.predicted_deficiency == 3
    assert inst.predicted_matching_upper == 9
    assert len(maximum_matching(family_delta5(1).graph)) == 3  # K6 is perfect


def test_delta6_block():
    d = cube_block_drawing()
    assert validate(d).valid
    g = d.graph
    assert g.n == 8 and g.m == 24
    assert min_degree(g) == 6
    assert len(maximum_matching(g)) == 4
    inst = family_delta6(3)
    assert inst.graph.n == 22 and inst.predicted_matching_upper == 10


def test_delta6_matching_exact():
    for g_blocks in (1, 2, 3):
        inst = family_delta6(g_blocks)
        assert len(maximum_matching(inst.graph)) == 3 * g_blocks + 1


def test_mindeg7_block():
    d = mindeg7_block_drawing()
    assert validate(d).valid
    g = d.graph
    assert g.n == 24 and g.m == 84
    assert min_degree(g) == 7
    assert all(g.degree(v) == 7 for v in range(24))


def test_delta7_family():
    inst = family_delta7(2)
    assert inst.graph.n == 47
    assert inst.predicted_deficiency == 1
    assert inst.predicted_matching_upper == 23 == (11 * 47 + 12) // 23
    assert family_delta7(1).predicted_deficiency == 0


@pytest.mark.parametrize(
    "family,block,delta",
    [
        (family_delta5, k6_drawing, 5),
        (family_delta6, cube_block_drawing, 6),
        (family_delta7, mindeg7_block_drawing, 7),
    ],
    ids=["delta5", "delta6", "delta7"],
)
def test_hub_family_is_g_copies_of_its_block(family, block, delta):
    b = block()
    b_faces = len(validate(b).faces)
    for g in range(1, 6):
        d = family(g).drawing
        report = validate(d)
        assert report.valid, g
        assert d.n_real == (b.n_real - 1) * g + 1
        assert len(d.edges) == g * len(b.edges)
        assert d.n_p - d.n_real == g * (b.n_p - b.n_real)  # one dummy per crossing
        # each of the g - 1 gluings at the hub merges two faces into one
        assert len(report.faces) == g * (b_faces - 1) + 1
        assert d.graph.degree(0) == g * b.graph.degree(0)
        assert min_degree(d.graph) == delta


def test_k6_drawing_is_spec_shape():
    d = k6_drawing()
    assert d.n_p == 9 and d.m_p == 21
    assert len(d.edges) == 15


def test_random_determinism():
    a = write_drawing(random_oneplanar(12, 3, 7))
    b = write_drawing(random_oneplanar(12, 3, 7))
    assert a == b
    c = write_drawing(random_oneplanar(12, 3, 8))
    assert c != a


def test_random_crossing_count():
    d = random_oneplanar(12, 3, 7)
    assert validate(d).valid
    assert len(d.crossed_eids) == 6


def test_random_planar_when_no_crossings():
    d = random_oneplanar(10, 0, 1)
    assert validate(d).valid
    assert not d.crossed_eids


def test_random_drawings_have_no_parallel_edges(drawing_corpus):
    # the builder keeps parallel copies, so a simple drawing is the
    # generator's own doing; `check_instance` checks the families
    larger = [random_oneplanar(n, 3 * n // 16, seed) for n in range(12, 41) for seed in (1, 2)]
    assert [d for d in drawing_corpus + larger if d.has_parallel_edges] == []


def test_prng_below_needs_a_positive_bound():
    with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
        SplitMix64(1).below(0)


def test_random_rejects_bad_params():
    with pytest.raises(TooSmall):
        random_oneplanar(3, 0, 1)
    with pytest.raises(TooSmall):
        random_oneplanar(10, -1, 1)
    with pytest.raises(TooManyCrossings):
        random_oneplanar(4, 5, 1)


def test_families_are_deterministic():
    assert write_drawing(family_delta3(4).drawing) == write_drawing(family_delta3(4).drawing)
    assert write_drawing(family_delta5(2).drawing) == write_drawing(family_delta5(2).drawing)


def test_witness_round_trip():
    inst = family_delta5(4)
    text = write_witness(inst.witness, inst.predicted_deficiency, inst.predicted_matching_upper)
    s, deficiency, upper = parse_witness(text)
    assert s == inst.witness
    assert deficiency == inst.predicted_deficiency
    assert upper == inst.predicted_matching_upper


def test_witness_takes_each_line_once():
    text = "S: 1 2\ndeficiency: 1\nmatching_upper: 4\n"
    assert parse_witness(text) == (frozenset({1, 2}), 1, 4)
    for extra in ("S: 3\n", "deficiency: 7\n", "matching_upper: 4\n"):
        with pytest.raises(ParseError):
            parse_witness(text + extra)
    for text in ("S: 1\ndeficiency: 1\n", "S: 1\ndeficiency: x\nmatching_upper: 4\n", "T: 1\n"):
        with pytest.raises(ParseError):
            parse_witness(text)
