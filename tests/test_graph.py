import pytest
from hypothesis import given, strategies as st

from oneplanar.errors import (
    BadVertex,
    DuplicateEdge,
    EmptyGraph,
    InvalidEdge,
    ParseError,
)
from oneplanar.graph import (
    MAX_GRAPH_VERTICES,
    build_graph,
    is_independent,
    min_degree,
    odd_components,
    parse_graph,
    write_graph,
)
from oneplanar.generators import family_delta3, family_delta4

from conftest import make_cycle, make_k, make_path, random_graph


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_build_rejects_loop():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate_in_simple_mode():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(BadVertex):
        build_graph(2, [(0, 2)])


def test_build_rejects_negative_vertex_count():
    with pytest.raises(BadVertex, match="^negative vertex count -1$"):
        build_graph(-1, [])


def test_has_edge_reads_either_order():
    g = make_path(3)
    assert [g.has_edge(1, 0), g.has_edge(2, 0)] == [g.has_edge(0, 1), g.has_edge(0, 2)] == [True, False]


def test_odd_components_p5_middle():
    assert odd_components(make_path(5), {2}) == 0  # two pairs
    assert odd_components(make_path(5), {1}) == 2  # a singleton and a triple


def test_odd_components_k3():
    assert odd_components(make_k(3), set()) == 1


def test_odd_components_delta4_witness_all_singletons():
    inst = family_delta4(8)
    count = odd_components(inst.graph, inst.witness)
    assert count == 12  # 2(s-2) at s=8
    assert count == inst.graph.n - len(inst.witness)  # so every component is a singleton


def test_odd_components_rejects_bad_vertex():
    with pytest.raises(BadVertex):
        odd_components(make_k(3), {5})


def test_is_independent():
    c4 = make_cycle(4)
    assert is_independent(c4, {0, 2})
    assert not is_independent(make_k(3), {0, 1})


def test_delta3_inserted_vertices_are_independent():
    inst = family_delta3(4)
    assert is_independent(inst.graph, set(range(4, 16)))


def test_min_degree():
    assert min_degree(make_k(6)) == 5
    assert min_degree(make_path(3)) == 1
    assert min_degree(family_delta3(4).graph) == 3
    with pytest.raises(EmptyGraph):
        min_degree(build_graph(0, []))


# --- properties --------------------------------------------------------


@given(st.integers(0, 300))
def test_odd_count_parity_matches_n(seed):
    g = random_graph(seed)
    assert odd_components(g, set()) % 2 == g.n % 2


@given(st.integers(0, 300))
def test_single_vertex_always_independent(seed):
    g = random_graph(seed)
    for v in range(g.n):
        assert is_independent(g, {v})


@given(st.integers(0, 300))
def test_edge_list_round_trip(seed):
    g = random_graph(seed)
    text = write_graph(g)
    g2 = parse_graph(text)
    assert g2.n == g.n and g2.edges == g.edges
    assert write_graph(g2) == text


def test_parse_rejects_garbage():
    for text in ("", "graph x y\n", "graph 2 1\nz 0 1\n", "graph 2 2\ne 0 1\n",
                 "graph 2 1\ne 1 0\n", "graph 2 1\ne 0 3\n"):
        with pytest.raises(ParseError):
            parse_graph(text)


def test_parse_header_takes_plain_ascii_decimal_only():
    # int() alone reads these as 10, 3 and 3
    for head in ("1_0 0", "+3 0", "\u0663 0", "3 +0", "3 0_0", "-1 0"):
        with pytest.raises(ParseError, match="bad header"):
            parse_graph(f"graph {head}\n")
    with pytest.raises(ParseError):  # beyond int()'s digit limit on Python >= 3.11
        parse_graph("graph " + "9" * 5000 + " 0\n")
    assert parse_graph("graph 03 1\ne 0 2\n").n == 3


def test_parse_bounds_the_vertex_count():
    with pytest.raises(ParseError, match="exceeds the limit of 1000000 vertices"):
        parse_graph(f"graph {MAX_GRAPH_VERTICES + 1} 0\n")
