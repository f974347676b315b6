"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single `ACCEPTANCE <id> ... PASS` line on success
(run pytest with -s or look at captured output).  Every tolerance is
zero: all comparisons are integer or Fraction equality.
"""

from __future__ import annotations

import time
from fractions import Fraction


from oneplanar.bounds import (
    charge_verify,
    charging_run,
    check_bipartite_edge_budget,
    check_cw_degree_bound,
    check_degree_bound,
    check_deficiency,
)
from oneplanar.embedding import validate
from oneplanar.generators import (
    _stacked_quadrangulation,
    family_delta3,
    family_delta4,
    family_delta4_k5,
    family_delta5,
    family_delta6,
    family_delta7,
    mindeg7_block_drawing,
)
from oneplanar.graph import Graph, min_degree, odd_components
from oneplanar.matcher import (
    _neighbor_masks,
    _odd_count_mask,
    maximum_matching,
    tutte_berge_bruteforce,
)

from conftest import (
    c4_drawing,
    check_instance,
    cube_drawing,
    greedy_independent_t,
    independent_sets_with_min_degree,
    random_graph,
)
from test_embedding import k33_one_crossing


def _report(label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: PASS{suffix}")


# -----------------------------------------------------------------------


def test_criterion_1_tightness_delta3():
    for s in (4, 6, 8, 10):
        t0 = time.time()
        inst = family_delta3(s)
        n = inst.graph.n
        assert n == 7 * s - 12
        size = len(maximum_matching(inst.graph))
        assert Fraction(size) == Fraction(n + 12, 7)
        assert time.time() - t0 < 1.0
    _report("1 tightness delta=3", "s in {4,6,8,10}, |M| = (n+12)/7 exactly")


def test_criterion_2_tightness_delta4():
    for s in (8, 10, 12):
        t0 = time.time()
        inst = family_delta4(s)
        size = len(maximum_matching(inst.graph))
        assert Fraction(size) == Fraction(inst.graph.n + 4, 3)
        assert time.time() - t0 < 1.0
    for k in (6, 8, 10):
        t0 = time.time()
        inst = family_delta4_k5(k)
        size = len(maximum_matching(inst.graph))
        assert Fraction(size) == Fraction(inst.graph.n + 4, 3)
        assert time.time() - t0 < 1.0
    _report("2 tightness delta=4", "quad family and K5 chain, |M| = (n+4)/3 exactly")


def test_criterion_3_tightness_delta5():
    for g in (4, 6, 8):
        t0 = time.time()
        inst = family_delta5(g)
        size = len(maximum_matching(inst.graph))
        assert Fraction(size) == Fraction(2 * inst.graph.n + 3, 5)
        assert size == 2 * g + 1
        assert time.time() - t0 < 1.0
    _report("3 tightness delta=5", "g in {4,6,8}, |M| = (2n+3)/5 = 2g+1 exactly")


def test_criterion_4_delta6_family():
    for g in range(1, 6):
        inst = family_delta6(g)
        n = inst.graph.n
        size = len(maximum_matching(inst.graph))
        assert size == 3 * g + 1
        assert Fraction(size) == Fraction(3 * n + 4, 7)
        count = odd_components(inst.graph, inst.witness)
        assert count - len(inst.witness) == Fraction(n - 8, 7)
    _report("4 delta=6 family", "g in 1..5, |M| = 3g+1, witness deficiency (n-8)/7")


def test_criterion_5_tutte_berge_duality():
    t0 = time.time()
    checked = 0
    for seed in range(500):
        g = random_graph(seed, max_n=10)
        w = tutte_berge_bruteforce(g)
        assert 2 * len(maximum_matching(g)) == g.n - w.deficiency
        checked += 1
    small_instances = (
        [family_delta3(4), family_delta4(4), family_delta4(6), family_delta4(8)]
        + [family_delta4_k5(k) for k in range(1, 7)]
        + [family_delta5(g) for g in (1, 2, 3)]
        + [family_delta6(g) for g in (1, 2)]
    )
    for inst in small_instances:
        assert inst.graph.n <= 20
        w = tutte_berge_bruteforce(inst.graph)
        assert 2 * len(maximum_matching(inst.graph)) == inst.graph.n - w.deficiency
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("5 matching duality", f"{checked} graphs, blossom == brute force, {elapsed:.1f}s")


def test_criterion_6_degree_bound_sweeps(drawing_corpus):
    t0 = time.time()
    assert len(drawing_corpus) >= 200
    sets_checked = 0
    for d in drawing_corpus:
        assert d.graph.n <= 12
        for t in independent_sets_with_min_degree(d.graph):
            assert check_degree_bound(d, t).holds
            assert check_cw_degree_bound(d, t).holds
            sets_checked += 1
    # constructed tight cases
    chk5 = check_degree_bound(family_delta3(4).drawing, frozenset(range(4, 16)))
    assert (chk5.lhs, chk5.rhs) == (24, 24)
    chk6 = check_cw_degree_bound(cube_drawing(), {0, 3, 5, 6})
    assert (chk6.lhs, chk6.rhs) == (24, 24)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        "6 degree-class bounds",
        f"{len(drawing_corpus)} drawings, {sets_checked} independent sets, "
        f"two tight cases at 24 = 24, {elapsed:.1f}s",
    )


ORDER_SEEDS = (None, 101, 102, 103, 104, 105)


def test_criterion_7_charging_properties(drawing_corpus):
    t0 = time.time()
    runs = 0
    for d in drawing_corpus:
        g = d.graph
        t = greedy_independent_t(g)
        s = frozenset(range(g.n)) - t
        assert t and len(s) >= 3, "corpus instance unusable for charging"
        for seed in ORDER_SEEDS:
            ledger = charging_run(d, s, order_seed=seed)
            assert len(ledger.delta_edges) == 3 * len(ledger.delta_vertices)
            n_minus = sum(1 for _, c in ledger.charge_class if c == 6)
            n_cross = sum(1 for _, c in ledger.charge_class if c == 3)
            n_delta = sum(1 for _, c in ledger.charge_class if c == 2)
            assert ledger.totals[0] == 6 * n_minus + 3 * n_cross + 2 * n_delta
            assert ledger.totals[0] <= 12 * len(s) + 12 * len(t) - 24
            report = charge_verify(ledger)
            assert report.ok, report.violations
            runs += 1
    elapsed = time.time() - t0
    _report(
        "7 charging scheme",
        f"{runs} runs (canonical + 5 shuffled orders), zero violations, {elapsed:.1f}s",
    )


def _all_subsets_deficiency_ok(g: Graph, delta: int) -> None:
    """Exhaustively check the deficiency bound for every admissible S."""
    masks = _neighbor_masks(g)
    full = (1 << g.n) - 1
    min_size = 2 if delta in (3, 4) else 1
    if delta == 3:
        rhs = Fraction(5 * g.n - 24, 7)
    elif delta == 4:
        rhs = Fraction(g.n - 8, 3)
    else:
        rhs = Fraction(g.n - 6, 5)
    for mask in range(1 << g.n):
        size = bin(mask).count("1")
        if size < min_size:
            continue
        deficiency = _odd_count_mask(masks, full & ~mask) - size
        assert deficiency <= rhs, (mask, deficiency, rhs)


def test_criterion_8_deficiency_bounds(drawing_corpus):
    t0 = time.time()
    graphs_swept = 0
    for d in drawing_corpus:
        g = d.graph
        if g.n <= 12 and min_degree(g) >= 3:
            _all_subsets_deficiency_ok(g, 3)
            graphs_swept += 1
    small = [
        family_delta4(4),
        family_delta4_k5(1),
        family_delta4_k5(2),
        family_delta4_k5(3),
        family_delta5(1),
        family_delta5(2),
        family_delta6(1),
    ]
    for inst in small:
        g = inst.graph
        assert g.n <= 12
        for delta in (3, 4, 5):
            if min_degree(g) >= delta:
                _all_subsets_deficiency_ok(g, delta)
                graphs_swept += 1
    # generator witnesses achieve equality
    for s in (4, 6):
        inst = family_delta3(s)
        chk = check_deficiency(inst.graph, inst.witness, 3, inst.drawing)
        assert chk.holds and chk.tight
    for s in (8, 10):
        inst = family_delta4(s)
        chk = check_deficiency(inst.graph, inst.witness, 4, inst.drawing)
        assert chk.holds and chk.tight
    for g_blocks in (4, 6):
        inst = family_delta5(g_blocks)
        chk = check_deficiency(inst.graph, inst.witness, 5, inst.drawing)
        assert chk.holds and chk.tight
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        "8 deficiency bounds",
        f"{graphs_swept} exhaustive subset sweeps, witness equality for "
        f"delta 3/4/5 families, {elapsed:.1f}s",
    )


def test_criterion_9_bipartite_edge_budget(drawing_corpus):
    checked = 0
    # explicit bipartite bigon-free drawings
    bipartite = [cube_drawing(), k33_one_crossing()]
    bipartite.extend(_stacked_quadrangulation(s)[0].freeze() for s in (4, 6, 8, 10, 12))
    for d in bipartite:
        g = d.graph
        side0 = _bfs_two_color(g)
        assert check_bipartite_edge_budget(d, (side0, frozenset(range(g.n)) - side0)).holds
        checked += 1
    # the bipartitized drawings produced by charging runs are exactly the
    # graphs the budget gets applied to; audit a sample of them.  Their
    # chords may run parallel, and the budget counts every copy by edge id.
    charged_tight = 0
    for d in drawing_corpus[:25]:
        g = d.graph
        t = greedy_independent_t(g)
        s = frozenset(range(g.n)) - t
        ledger = charging_run(d, s)
        final = ledger.final
        t_side = ledger.t
        s_side = frozenset(range(final.n_real)) - t_side
        chk = check_bipartite_edge_budget(final, (s_side, t_side))
        m_x = len(final.crossed_eids)
        assert chk.lhs == Fraction(m_x, 2) + (len(final.edges) - m_x)
        assert chk.holds
        charged_tight += chk.tight
        checked += 1
    # boundary cases sit exactly on the bound
    chk = check_bipartite_edge_budget(c4_drawing(), ({0, 2}, {1, 3}))
    assert chk.lhs == chk.rhs == 4
    chk = check_bipartite_edge_budget(k33_one_crossing(), ({0, 1, 2}, {3, 4, 5}))
    assert chk.lhs == chk.rhs == 8
    _report(
        "9 bipartite edge budget",
        f"{checked} bipartite bigon-free drawings, {charged_tight} of 25 charging runs tight, "
        "C4 and K3,3 both tight",
    )


def _bfs_two_color(g: Graph) -> frozenset[int]:
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
    return frozenset(v for v, c in color.items() if c == 0)


def test_criterion_10_delta7_family():
    block = mindeg7_block_drawing()
    assert validate(block).valid
    assert min_degree(block.graph) == 7
    for g_blocks in (1, 2, 3):
        inst = family_delta7(g_blocks)
        n = inst.graph.n
        count = odd_components(inst.graph, inst.witness)
        assert count - len(inst.witness) == Fraction(n - 24, 23)
        size = len(maximum_matching(inst.graph))
        assert Fraction(size) <= Fraction(11 * n + 12, 23)
    _report(
        "10 delta=7 family",
        "block fixture present; deficiency (n-24)/23, |M| <= (11n+12)/23",
    )


def test_all_family_instances_self_check():
    # belt and braces: every instance used above satisfies its invariants
    instances = (
        [family_delta3(s) for s in (4, 6, 8, 10)]
        + [family_delta4(s) for s in (4, 8, 10, 12)]
        + [family_delta4_k5(k) for k in (1, 6, 8, 10)]
        + [family_delta5(g) for g in (1, 4, 6, 8)]
        + [family_delta6(g) for g in range(1, 6)]
        + [family_delta7(g) for g in (1, 2, 3)]
    )
    for inst in instances:
        assert check_instance(inst) == [], inst.name
    _report("invariants", f"{len(instances)} family instances pass all four invariants")
