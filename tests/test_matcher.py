import hashlib
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from oneplanar import matcher
from oneplanar.errors import BadVertex, ParseError, TooLarge
from oneplanar.generators import (
    FAMILIES,
    family_delta3,
    family_delta4,
    family_delta5,
    family_delta6,
    random_oneplanar,
)
from oneplanar.graph import Graph, build_graph, odd_components
from oneplanar.matcher import (
    Matching,
    check_matching,
    matching_upper_from_witness,
    maximum_matching,
    parse_matching,
    tutte_berge_bruteforce,
    write_matching,
)

from conftest import gnp, make_cycle, make_k, make_path, petersen, random_graph


def verify_duality(g: Graph) -> bool:
    """Blossom size equals (n - deficiency) / 2, the deficiency by the full search."""
    return 2 * len(maximum_matching(g)) == g.n - tutte_berge_bruteforce(g).deficiency


def test_k4_perfect_matching():
    assert len(maximum_matching(make_k(4))) == 2


def test_p3_matching():
    assert len(maximum_matching(make_path(3))) == 1


def test_delta5_matching():
    assert len(maximum_matching(family_delta5(4).graph)) == 9


def test_petersen_has_perfect_matching():
    g = petersen()
    assert len(maximum_matching(g)) == 5
    assert verify_duality(g)


def test_odd_cycles_force_blossoms():
    for n in (3, 5, 7, 9):
        assert len(maximum_matching(make_cycle(n))) == (n - 1) // 2
        assert verify_duality(make_cycle(n))


def test_tutte_berge_k4():
    w = tutte_berge_bruteforce(make_k(4))
    assert w.deficiency == 0 and w.s == frozenset()


def test_tutte_berge_star():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    w = tutte_berge_bruteforce(star)
    assert w.deficiency == 2
    assert w.s == frozenset({0})
    assert odd_components(star, w.s) == 3


def test_tutte_berge_delta3():
    w = tutte_berge_bruteforce(family_delta3(4).graph)
    assert w.deficiency == 8
    assert w.s == frozenset(range(4))


def test_tutte_berge_respects_limit():
    with pytest.raises(TooLarge):
        tutte_berge_bruteforce(make_k(8), n_limit=6)


def test_tutte_berge_tie_break_prefers_small_lex():
    # P3: both the empty set and {1} give deficiency 1; the empty set wins
    w = tutte_berge_bruteforce(make_path(3))
    assert w.deficiency == 1
    assert w.s == frozenset()


@given(st.integers(0, 300), st.sets(st.integers(0, 9)))
def test_bitmask_odd_count_matches_reference(seed, raw_s):
    # the subset-search inner loop must agree with the plain implementation
    from oneplanar.matcher import _neighbor_masks, _odd_count_mask

    g = random_graph(seed)
    s = {v for v in raw_s if v < g.n}
    remaining = ((1 << g.n) - 1) & ~sum(1 << v for v in s)
    want = odd_components(g, s)
    assert _odd_count_mask(_neighbor_masks(g), remaining) == want


def test_matching_upper_from_witness():
    inst = family_delta4(8)
    assert matching_upper_from_witness(inst.graph, inst.witness) == 8
    assert matching_upper_from_witness(make_k(4), set()) == 2
    inst6 = family_delta6(3)
    assert matching_upper_from_witness(inst6.graph, {0}) == 10
    with pytest.raises(BadVertex):
        matching_upper_from_witness(make_k(4), {9})


def test_matching_invariants_and_maximality():
    for seed in range(60):
        g = random_graph(seed)
        m = maximum_matching(g)
        assert check_matching(g, m) == []


def test_check_matching_names_each_violation():
    p3 = make_path(3)  # edges (0,1), (1,2)
    assert check_matching(p3, Matching(frozenset({(0, 2)}))) == ["(0,2) not an edge of the graph"]
    # (1,0) is (0,1) again, so whichever comes second shares both endpoints
    assert check_matching(p3, Matching(frozenset({(0, 1), (1, 0)}))) == ["(0,1) shares an endpoint"]
    assert check_matching(make_path(4), Matching(frozenset({(0, 1)}))) == [
        "not maximal: (2,3) joins two exposed vertices"
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100000))
def test_duality_on_random_graphs(seed):
    g = random_graph(seed, max_n=9)
    assert verify_duality(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 400))
def test_per_witness_upper_bound(seed):
    # the easy direction: every single S gives an upper bound on the matching
    g = random_graph(seed, max_n=8)
    size = len(maximum_matching(g))
    for mask in range(1 << g.n):
        s = {v for v in range(g.n) if mask >> v & 1}
        assert size <= matching_upper_from_witness(g, s)


def test_duality_on_flower_chains():
    # chains of 5-cycles sharing single vertices stress nested blossoms
    for k in (2, 3, 4):
        edges = []
        base = 0
        for _ in range(k):
            c = [base + j for j in range(5)]
            edges += [(c[j], c[(j + 1) % 5]) for j in range(5)]
            base += 4
        g = build_graph(4 * k + 1, sorted({(min(a, b), max(a, b)) for a, b in edges}))
        assert verify_duality(g)
        assert len(maximum_matching(g)) == 2 * k


def test_duality_on_odd_clique_forest():
    # disjoint odd cliques plus a bridge: deficiency counts the leftovers
    edges = []
    blocks = [(0, 3), (3, 5), (8, 3)]
    for base, size in blocks:
        edges += [
            (i, j) for i in range(base, base + size) for j in range(i + 1, base + size)
        ]
    edges.append((0, 3))
    g = build_graph(11, sorted(edges))
    assert verify_duality(g)
    assert len(maximum_matching(g)) == 5


def test_unbalanced_complete_bipartite():
    for a, b in ((3, 7), (1, 9), (5, 5)):
        g = build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        assert len(maximum_matching(g)) == min(a, b)
        assert verify_duality(g)


def test_matching_format_round_trip():
    m = maximum_matching(make_k(6))
    text = write_matching(m)
    m2 = parse_matching(text)
    assert write_matching(m2) == text
    for text in ("matching 2\nm 0 1\n", "matching 1\nm a b\n"):
        with pytest.raises(ParseError):
            parse_matching(text)


def test_matching_format_takes_each_edge_once_ascending():
    for text in (
        "matching 2\nm 0 1\nm 0 1\n",  # repeated
        "matching 2\nm 0 1\nm 1 0\n",  # the same edge, once reversed
        "matching 1\nm 1 0\n",  # write_matching writes u < v
        "matching 1\nm 2 2\n",
        "matching +1\nm 0 1\n",  # the header follows the graph format's rule
        "matching 1 2\nm 0 1\n",
    ):
        with pytest.raises(ParseError):
            parse_matching(text)


# Every family instance small enough for the oracle (n <= 18).
ORACLE_FAMILIES = [
    ("delta3", 4), ("delta4", 4), ("delta4", 6),
    ("delta4-k5", 1), ("delta4-k5", 2), ("delta4-k5", 3), ("delta4-k5", 4), ("delta4-k5", 5),
    ("delta5", 1), ("delta5", 2), ("delta5", 3), ("delta6", 1), ("delta6", 2),
]


def assert_target_keeps_witness(g: Graph) -> None:
    """Weak-duality targets, reachable or not, give the full search's witness."""
    full = tutte_berge_bruteforce(g)
    m = maximum_matching(g)
    assert tutte_berge_bruteforce(g, target=g.n - 2 * len(m)) == full
    if len(m):
        # M minus one edge is still a matching, but no subset reaches its bound
        assert tutte_berge_bruteforce(g, target=g.n - 2 * (len(m) - 1)) == full


@pytest.mark.parametrize("family, value", ORACLE_FAMILIES)
def test_targeted_oracle_matches_full_search_on_families(family, value):
    fn, _ = FAMILIES[family]
    assert_target_keeps_witness(fn(value).graph)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 100000))
def test_targeted_oracle_matches_full_search_on_random_graphs(seed):
    assert_target_keeps_witness(random_graph(seed, max_n=16))


def test_targeted_oracle_stops_at_the_first_subset(monkeypatch):
    visited = 0
    original = matcher._odd_count_mask

    def counting(masks, remaining):
        nonlocal visited
        visited += 1
        return original(masks, remaining)

    monkeypatch.setattr(matcher, "_odd_count_mask", counting)
    g = random_oneplanar(14, 2, 3).graph
    assert g.n == 18
    target = g.n - 2 * len(maximum_matching(g))
    w = tutte_berge_bruteforce(g, target=target)
    assert (w.s, w.deficiency, visited) == (frozenset(), 0, 1)
    visited = 0
    assert tutte_berge_bruteforce(g) == w
    # the full search proves the optimum by every subset of up to 8 vertices
    assert visited == sum(comb(18, k) for k in range(9))


# --- search-local blossom and its barrier ---------------------------------


def assert_barrier_certifies(g: Graph, m: Matching) -> None:
    """check_matching plus the barrier's Tutte-Berge bound prove M maximum."""
    assert check_matching(g, m) == []
    assert matching_upper_from_witness(g, m.barrier) == len(m)


def digest_corpus():
    """Seeded G(n,p) graphs, n = 4..60 (blossom-heavy), and random 1-planar drawings."""
    for seed in range(300):
        yield gnp(4 + seed % 57, (5, 10, 20, 40)[seed % 4], seed)
    for seed in range(40):
        yield random_oneplanar(12 + 7 * seed, seed % 5 * (1 + seed // 4), seed).graph


# SHA-256 of `write_matching` over digest_corpus(): pins which maximum
# matching the deterministic search returns, edge for edge, not only its size
DIGEST_CORPUS_SHA256 = "524c97e0e61137d6709424313ff5bd1763e3bb3f0bd32172de03903728e36799"


def test_matchings_keep_their_pinned_edges():
    h = hashlib.sha256()
    for g in digest_corpus():
        m = maximum_matching(g)
        assert_barrier_certifies(g, m)
        h.update(write_matching(m).encode())
    assert h.hexdigest() == DIGEST_CORPUS_SHA256


def test_barrier_is_not_part_of_the_matching():
    m = maximum_matching(make_path(3))  # exposed root 2 fails; its tree is 2 - 1 = 0
    assert (m.edges, m.barrier) == (frozenset({(0, 1)}), frozenset({1}))
    bare = Matching(m.edges)
    assert bare == m and hash(bare) == hash(m)
    assert write_matching(bare) == write_matching(m)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(4, 14), st.integers(40, 90), st.integers(0, 10**6))
def test_dense_graphs_meet_the_full_oracle(n, percent, seed):
    g = gnp(n, percent, seed)
    assert 2 * len(maximum_matching(g)) == g.n - tutte_berge_bruteforce(g).deficiency


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 80), st.integers(1, 50), st.integers(0, 10**6))
def test_barrier_certifies_gnp(n, percent, seed):
    g = gnp(n, percent, seed)
    assert_barrier_certifies(g, maximum_matching(g))


def test_barrier_certifies_the_largest_delta3():
    g = family_delta3(640).graph
    assert g.n == 4468
    m = maximum_matching(g)
    assert len(m) == (g.n + 12) // 7
    assert_barrier_certifies(g, m)
