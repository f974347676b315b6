"""Exact maximum matching and exact worst-case deficiency, as mutual oracles.

The matching side is the classical blossom-contraction augmenting-path
search; the deficiency side enumerates every vertex subset.  Each one
certifies the other through the matching duality
|M| = (n - max_S (odd(G-S) - |S|)) / 2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .errors import ParseError, TooLarge
from .graph import Graph, header_counts, odd_components

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class Matching:
    edges: frozenset[tuple[int, int]]
    # a vertex set A with floor((n - odd(G-A) + |A|) / 2) = |M| when M is
    # maximum; not part of the matching's identity or its text
    barrier: frozenset[int] = field(default=frozenset(), compare=False)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DeficiencyWitness:
    s: frozenset[int]
    deficiency: int  # odd(G-S) - |S|


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching via blossom contraction.

    Deterministic: vertices are scanned in ascending id order and the
    search explores neighbors in ascending order.  The result carries
    the Gallai-Edmonds barrier A of its failed searches, with
    odd(G-A) - |A| = n - 2|M|, which proves M maximum.
    """
    n = g.n
    adj = g.adj
    match = [-1] * n
    # cheap greedy seed
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n  # outer in the current search
    dead = [False] * n  # in the Hungarian tree of a failed search
    barrier: list[int] = []

    def lca(a: int, b: int) -> int:
        seen = set()
        x = base[a]
        while True:
            seen.add(x)
            if match[x] == -1:
                break
            x = base[p[match[x]]]
        y = base[b]
        while y not in seen:
            y = base[p[match[y]]]
        return y

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    # A search resets only the vertices it touched, so it costs the size of
    # its tree.  A failed search leaves a Hungarian tree that no later
    # augmenting path enters (Edmonds 1965), so later searches skip it, and
    # its inner vertices join the barrier.  The edges stay the same only
    # while the visiting order stays ascending: a contraction relabels the
    # blossom's members in id order, as a scan of all n would (an untouched
    # vertex is its own base and in no blossom); another order can change
    # which augmenting path is found.
    def try_augment(root: int) -> bool:
        touched = [root]
        used[root] = True
        q: deque[int] = deque([root])
        members: dict[int, list[int]] = {}  # a contracted blossom's vertices, by base
        try:
            while q:
                v = q.popleft()
                for to in adj[v]:
                    if dead[to] or base[v] == base[to] or match[v] == to:
                        continue
                    if to == root or (match[to] != -1 and p[match[to]] != -1):
                        # odd cycle: contract the blossom
                        curbase = lca(v, to)
                        blossom: set[int] = set()
                        mark_path(v, curbase, to, blossom)
                        mark_path(to, curbase, v, blossom)
                        moved = sorted([i for b in blossom for i in members.pop(b, (b,))])
                        for i in moved:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                        members.setdefault(curbase, [curbase]).extend(moved)
                    elif p[to] == -1:
                        p[to] = v
                        touched.append(to)
                        if match[to] == -1:
                            # augment along the alternating path to the root
                            u = to
                            while u != -1:
                                pv = p[u]
                                ppv = match[pv]
                                match[u] = pv
                                match[pv] = u
                                u = ppv
                            return True
                        used[match[to]] = True
                        touched.append(match[to])
                        q.append(match[to])
            for i in touched:
                dead[i] = True
                if not used[i]:
                    barrier.append(i)
            return False
        finally:
            for i in touched:
                p[i] = -1
                base[i] = i
                used[i] = False

    for v in range(n):
        if match[v] == -1:
            try_augment(v)

    edges = frozenset(
        (v, match[v]) for v in range(n) if match[v] > v
    )
    return Matching(edges, frozenset(barrier))


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _odd_count_mask(masks: list[int], remaining: int) -> int:
    odd = 0
    while remaining:
        low = remaining & -remaining
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= masks[b.bit_length() - 1]
            nxt &= remaining & ~comp
            comp |= nxt
            frontier = nxt
        odd += comp.bit_count() & 1
        remaining &= ~comp
    return odd


def tutte_berge_bruteforce(
    g: Graph, n_limit: int = BRUTE_FORCE_LIMIT, target: int | None = None
) -> DeficiencyWitness:
    """Exhaustive search for the vertex set maximizing odd(G-S) - |S|.

    Subsets are enumerated in ascending size, then lexicographically, so
    ties resolve to the smallest witness.  Sizes that can no longer beat
    the incumbent (deficiency <= n - 2|S|) are pruned.

    `target` must be an upper bound on every deficiency, such as n - 2|M|
    for a matching M that passes `check_matching` (weak duality).  The
    search then returns as soon as the incumbent reaches it: that subset
    is the one the full search would return.  With no target the search
    always runs to the end.
    """
    check_brute_force_size(g, n_limit)
    # no deficiency exceeds n, so n + 1 is never reached
    stop = g.n + 1 if target is None else target
    masks = _neighbor_masks(g)
    full = (1 << g.n) - 1
    best = -g.n - 1
    best_set: tuple[int, ...] = ()
    for size in range(g.n + 1):
        if g.n - 2 * size <= best:
            break
        for combo in combinations(range(g.n), size):
            s_mask = 0
            for v in combo:
                s_mask |= 1 << v
            deficiency = _odd_count_mask(masks, full & ~s_mask) - size
            if deficiency > best:
                best = deficiency
                best_set = combo
                if best >= stop:
                    return DeficiencyWitness(frozenset(best_set), best)
    return DeficiencyWitness(frozenset(best_set), best)


def check_brute_force_size(g: Graph, n_limit: int = BRUTE_FORCE_LIMIT) -> None:
    """Raise `TooLarge` unless the exhaustive search may run on `g`."""
    if g.n > n_limit:
        raise TooLarge(f"n={g.n} exceeds brute-force limit {n_limit}")


def matching_upper_from_witness(g: Graph, s: Iterable[int]) -> int:
    """Matching-size upper bound floor((n - (odd(G-S) - |S|)) / 2) from any S."""
    members = frozenset(s)
    count = odd_components(g, members)
    return (g.n - (count - len(members))) // 2


def check_matching(g: Graph, m: Matching) -> list[str]:
    """Violations of the matching invariants plus maximality by exposed scan."""
    bad = []
    seen: set[int] = set()
    for u, v in m.edges:
        uu, vv = min(u, v), max(u, v)
        if not g.has_edge(uu, vv):
            bad.append(f"({uu},{vv}) not an edge of the graph")
        if uu in seen or vv in seen:
            bad.append(f"({uu},{vv}) shares an endpoint")
        seen.update((uu, vv))
    exposed = {v for v in range(g.n) if v not in seen}
    for u, v in g.edges:
        if u in exposed and v in exposed and u != v:
            bad.append(f"not maximal: ({u},{v}) joins two exposed vertices")
    return bad


# --- matching text format ---------------------------------------------


def write_matching(m: Matching) -> str:
    lines = [f"matching {len(m)}"]
    lines.extend(f"m {u} {v}" for u, v in sorted(tuple(sorted(e)) for e in m.edges))
    return "\n".join(lines) + "\n"


def parse_matching(text: str) -> Matching:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    (k,) = header_counts(lines[0].split() if lines else [], "matching", 1)
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "m":
            raise ParseError(f"bad matching line {ln!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad matching line {ln!r}") from exc
        if u >= v:
            raise ParseError(f"matching line not ascending: {ln!r}")
        if (u, v) in edges:
            raise ParseError(f"repeated matching line {ln!r}")
        edges.add((u, v))
    if len(edges) != k:
        raise ParseError("edge count disagrees with header")
    return Matching(frozenset(edges))
