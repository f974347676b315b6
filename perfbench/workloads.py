"""The four benchmark workloads: seeded corpora, op lists and known answers.

Every op is one `oneplanar` CLI invocation on files in the run's work
directory.  Its answer is checked against the closed forms of the README
construction catalog and the theorems, using only the small parsers in
this file, never the code under test.  The one exception is the
`parse_drawing` -> `write_drawing` round trip on generated drawings,
which is a check of the program's own text format.

Sizes are stratified: a range holding k instances is cut into k equal
strata, and the seed places one instance in the middle half of each.
The multiset of op costs, and so the end-to-end metrics, then stays
nearly the same from seed to seed while the inputs themselves differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Known answers for a family instance, as functions of its parameter:
# (vertices, edges, crossings, witness S, deficiency, matching upper bound).
CATALOG: dict[str, tuple[str, Callable[[int], tuple[int, int, int, list[int], int, int]]]] = {
    "delta3": ("s", lambda s: (7 * s - 12, 21 * s - 42, 6 * s - 12, list(range(s)), 5 * s - 12, s)),
    "delta4": ("s", lambda s: (3 * s - 4, 10 * s - 20, 2 * s - 4, list(range(s)), s - 4, s)),
    "delta4-k5": ("k", lambda k: (3 * k + 2, 9 * k + 1, k, [0, 1], k - 2, k + 2)),
    "delta5": ("g", lambda g: (5 * g + 1, 15 * g, 3 * g, [0], g - 1, 2 * g + 1)),
    "delta6": ("g", lambda g: (7 * g + 1, 24 * g, 6 * g, [0], g - 1, 3 * g + 1)),
    "delta7": ("g", lambda g: (23 * g + 1, 84 * g, 18 * g, [0], g - 1, 11 * g + 1)),
}

# Minimum degree of each family.  `check theorem1` gets min(delta, 5): the
# theorem covers minimum degree 3, 4 and 5.
FAMILY_DELTA = {"delta3": 3, "delta4": 4, "delta4-k5": 4, "delta5": 5, "delta6": 6, "delta7": 7}


def theorem1_bound(n: int, delta: int) -> Fraction:
    return {3: Fraction(n + 12, 7), 4: Fraction(n + 4, 3), 5: Fraction(2 * n + 3, 5)}[delta]


def deficiency_rhs(n: int, delta: int) -> Fraction:
    """Right-hand side of lemma 7 (delta 3, 4) and lemma 8 (delta >= 5)."""
    if delta == 3:
        return Fraction(5 * n - 24, 7)
    if delta == 4:
        return Fraction(n - 8, 3)
    return Fraction(n - 6, 5)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def bound_line(lhs: Fraction, rhs: Fraction) -> str:
    """The CLI's bound report for a bound that holds."""
    return f"lhs={fmt(lhs)} rhs={fmt(rhs)} holds" + (" tight" if lhs == rhs else "")


def sizes(rng: random.Random, lo: int, hi: int, count: int, step: int = 1) -> list[int]:
    """One seeded value (a multiple of `step` above lo) in the middle half of each of `count` strata of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + step * round((j + 0.25 + 0.5 * rng.random()) * width / step) for j in range(count)]


def read_graph(path: Path) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of a `.graph` file."""
    lines = path.read_text().split("\n")
    n = int(lines[0].split()[1])
    edges = set()
    for ln in lines[1:]:
        if ln:
            _, u, v = ln.split()
            edges.add((int(u), int(v)))
    return n, edges


def matching_problem(stdout: str, edges: set[tuple[int, int]]) -> tuple[int, str | None]:
    """Size of the matching printed by `solve --mode matching`, and what is wrong with it."""
    lines = stdout.split("\n")
    if not lines[0].startswith("matching ") or lines[-1] != "":
        return -1, f"bad matching output {stdout[:40]!r}"
    size = int(lines[0].split()[1])
    pairs = [tuple(int(x) for x in ln.split()[1:]) for ln in lines[1:-1]]
    covered = [v for p in pairs for v in p]
    if len(pairs) != size or len(set(covered)) != len(covered):
        return size, "matching edges overlap or disagree with the header"
    if any(p not in edges for p in pairs):
        return size, "matching uses a pair that is not an edge"
    return size, None


@dataclass
class Op:
    """One CLI invocation and the check of its result.

    `check(rc, stdout, files)` returns None for a correct answer or a
    reason; `files` maps each path in `outputs` to the bytes written.
    """

    argv: list[str]
    check: Callable[[int, str, dict[str, bytes]], str | None]
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    """A built workload: the ops that write the corpus, and one pass of timed ops."""

    corpus: list[Op]
    ops: list[Op]
    observed: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------
# generate


def _generate_op(family: str, value: int, out: str, round_trip: Callable[[bytes], bytes]) -> Op:
    pname, answers = CATALOG[family]
    n, m, crossings, s, deficiency, upper = answers(value)
    stem = f"{out}/{family}-{pname}{value}"
    outputs = (f"{stem}.graph", f"{stem}.1pg", f"{stem}.witness")
    witness = f"S: {' '.join(map(str, s))}\ndeficiency: {deficiency}\nmatching_upper: {upper}\n"
    return Op(
        ["generate", family, f"--{pname}", str(value), "-o", out],
        _files_check(outputs, n, m, crossings, witness, round_trip),
        outputs,
    )


def _random_op(n: int, x: int, seed: int, out: str, round_trip: Callable[[bytes], bytes]) -> Op:
    """`oneplanar generate random`.  Callers pass x = 3n/16, the middle of the
    n/8..n/4 crossing range: the crossing count moves the op's cost."""
    stem = f"{out}/random-n{n}-x{x}-seed{seed}"
    outputs = (f"{stem}.graph", f"{stem}.1pg")
    total = n + 2 * x
    return Op(
        ["generate", "random", "--n", str(n), "--x", str(x), "--seed", str(seed), "-o", out],
        _files_check(outputs, total, 3 * total - 6, x, None, round_trip),
        outputs,
    )


def _files_check(outputs, n, m, crossings, witness, round_trip):
    def check(rc: int, stdout: str, files: dict[str, bytes]) -> str | None:
        if rc != 0 or stdout != "".join(p + "\n" for p in outputs):
            return f"exit {rc}, stdout {stdout[:60]!r}"
        graph, drawing = files[outputs[0]], files[outputs[1]]
        if not graph.startswith(f"graph {n} {m}\n".encode()):
            return f"graph header {graph[:30]!r}, want n={n} m={m}"
        if not drawing.startswith(f"1pg {n} {crossings} {m + 2 * crossings}\n".encode()):
            return f"1pg header {drawing[:30]!r}, want {n} reals, {crossings} crossings"
        if witness is not None and files[outputs[2]] != witness.encode():
            return f"witness {files[outputs[2]][:60]!r}, want {witness!r}"
        if round_trip(drawing) != drawing:
            return "parse_drawing -> write_drawing changed the bytes"
        return None

    return check


GENERATE_RANGES = {
    # family: (lo, hi, step) of its size parameter
    "delta3": (5, 10, 1),
    "delta4": (6, 22, 2),
    "delta4-k5": (4, 18, 1),
    "delta5": (4, 100, 1),
    "delta6": (3, 60, 1),
    "delta7": (1, 20, 1),
}
GENERATE_RANDOM_N = (12, 40)
GENERATE_ROUNDS = 15


def build_generate(rng: random.Random, round_trip) -> Workload:
    plan = {f: sizes(rng, lo, hi, GENERATE_ROUNDS, step) for f, (lo, hi, step) in GENERATE_RANGES.items()}
    plan["random"] = sizes(rng, *GENERATE_RANDOM_N, GENERATE_ROUNDS)
    for values in plan.values():
        rng.shuffle(values)
    ops = []
    for r in range(GENERATE_ROUNDS):
        families = sorted(plan)
        rng.shuffle(families)
        for f in families:
            if f == "random":
                n = plan[f][r]
                ops.append(_random_op(n, 3 * n // 16, rng.randrange(1 << 30), "gen", round_trip))
            else:
                ops.append(_generate_op(f, plan[f][r], "gen", round_trip))
    return Workload(corpus=[], ops=ops)


# ---------------------------------------------------------------------
# certify


CERTIFY_FAMILIES = {
    # family: (lo, hi, step, instances)
    "delta3": (5, 9, 1, 5),
    "delta4": (8, 18, 2, 5),
    "delta4-k5": (6, 16, 1, 5),
    "delta5": (40, 240, 1, 5),
    "delta6": (20, 120, 1, 5),
    "delta7": (15, 75, 1, 5),
}
CERTIFY_RANDOM = (16, 36, 10)  # n range and number of drawings
# About two thirds of the ops are on small inputs, so the median op sits
# well inside them (CLI and parsing overhead) and the 90th percentile
# inside the large hub-family ops (the blossom).


def _solve_check(wl: Workload, graph: Path, expect: int | None):
    def check(rc: int, stdout: str, files: dict[str, bytes]) -> str | None:
        n, edges = read_graph(graph)
        size, problem = matching_problem(stdout, edges)
        if rc != 0 or problem:
            return f"exit {rc}: {problem}"
        if expect is not None and size != expect:
            return f"|M| = {size}, want {expect}"
        return _agree(wl, str(graph), size, n)

    return check


def _agree(wl: Workload, key: str, size: int, n: int) -> str | None:
    """Every op that reports |M| for one graph must report the same value."""
    seen = wl.observed.setdefault(key, size)
    if seen != size:
        return f"|M| = {size} here but {seen} in another op"
    if not theorem1_bound(n, 3) <= size <= n // 2:
        return f"|M| = {size} outside [(n+12)/7, n/2] for n={n}"
    return None


def _theorem1_check(wl: Workload, graph: Path, delta: int, expect: int | None, tight: bool):
    def check(rc: int, stdout: str, files: dict[str, bytes]) -> str | None:
        n, _ = read_graph(graph)
        bound = theorem1_bound(n, delta)
        size = expect if expect is not None else wl.observed.get(str(graph))
        if size is None:  # random drawing not yet solved: take the size from this output
            size = int(stdout.split()[0].removeprefix("|M|=")) if stdout.startswith("|M|=") else -1
        want = f"|M|={size} bound={fmt(bound)} holds" + (" tight" if size == bound else "") + "\n"
        if rc != 0 or stdout != want:
            return f"exit {rc}, stdout {stdout!r}, want {want!r}"
        if tight and size != bound:
            return "theorem1 bound is not tight on an extremal family"
        return _agree(wl, str(graph), size, n)

    return check


def _exact_check(want: str):
    def check(rc: int, stdout: str, files: dict[str, bytes]) -> str | None:
        if rc != 0 or stdout != want:
            return f"exit {rc}, stdout {stdout[:80]!r}, want {want!r}"
        return None

    return check


def build_certify(rng: random.Random, round_trip) -> Workload:
    wl = Workload(corpus=[], ops=[])
    for family, (lo, hi, step, count) in CERTIFY_FAMILIES.items():
        pname, answers = CATALOG[family]
        for value in sizes(rng, lo, hi, count, step):
            op = _generate_op(family, value, "corpus", round_trip)
            wl.corpus.append(op)
            stem = op.outputs[0].removesuffix(".graph")
            graph = Path(f"{stem}.graph")
            n, _, _, s, deficiency, upper = answers(value)
            delta = FAMILY_DELTA[family]
            t1 = min(delta, 5)
            prov = ["--provenance", f"{stem}.1pg"]
            wl.ops += [
                Op(["solve", str(graph), "--mode", "matching"], _solve_check(wl, graph, upper)),
                Op(
                    ["check", "theorem1", str(graph), "--delta", str(t1), *prov],
                    _theorem1_check(wl, graph, t1, upper, tight=delta <= 5),
                ),
            ]
            if delta <= 5:  # the families on which lemma 7 or 8 is tight
                lemma = ["lemma7", "--delta", str(delta)] if delta < 5 else ["lemma8"]
                wl.ops.append(Op(
                    ["check", lemma[0], str(graph), "--S", f"{stem}.witness", *lemma[1:], *prov],
                    _exact_check(bound_line(Fraction(deficiency), deficiency_rhs(n, delta)) + "\n"),
                ))
    lo, hi, count = CERTIFY_RANDOM
    for n in sizes(rng, lo, hi, count):
        op = _random_op(n, 3 * n // 16, rng.randrange(1 << 30), "corpus", round_trip)
        wl.corpus.append(op)
        graph = Path(op.outputs[0])
        wl.ops += [
            Op(["solve", str(graph), "--mode", "matching"], _solve_check(wl, graph, None)),
            Op(
                ["check", "theorem1", str(graph), "--delta", "3", "--provenance", op.outputs[1]],
                _theorem1_check(wl, graph, 3, None, tight=False),
            ),
        ]
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------
# charge


CHARGE_DELTA3 = (5, 9, 10)  # s range and number of instances
CHARGE_RANDOM = (16, 40, 15)  # n range and number of drawings
# Seeded chord orders per input, besides the canonical one.  The ops of one
# input cost about the same, so many small inputs with few ops each keep
# the cost distribution fine-grained around the median and 90th percentile.
CHARGE_SHUFFLES = 3


def _independent_t(graph: Path, rng: random.Random) -> list[int]:
    """A seeded maximal independent set of degree->=3 vertices."""
    n, edges = read_graph(graph)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = list(range(n))
    rng.shuffle(order)
    t: set[int] = set()
    for v in order:
        if len(adj[v]) >= 3 and not adj[v] & t:
            t.add(v)
    return sorted(t)


def _charge_check(n: int):
    rhs = 12 * n - 24  # 12|S| + 12|T| - 24 with S, T a partition of the n vertices

    def check(rc: int, stdout: str, files: dict[str, bytes]) -> str | None:
        lines = stdout.split("\n")
        if rc != 0 or lines[0] != "ledger" or lines[-2:] != ["violations: 0", ""]:
            return f"exit {rc}, stdout ends {stdout[-40:]!r}"
        total = lines[-3].split()
        if total[0] != "total" or int(total[2]) != rhs or int(total[1]) > rhs:
            return f"ledger {lines[-3]!r}, want total a {rhs} with a <= {rhs}"
        return None

    return check


def build_charge(rng: random.Random, round_trip) -> Workload:
    """Needs the corpus on disk: call `finish_charge` after the corpus ops ran."""
    wl = Workload(corpus=[], ops=[])
    lo, hi, count = CHARGE_DELTA3
    for s in sizes(rng, lo, hi, count):
        wl.corpus.append(_generate_op("delta3", s, "corpus", round_trip))
    lo, hi, count = CHARGE_RANDOM
    for n in sizes(rng, lo, hi, count):
        wl.corpus.append(_random_op(n, 3 * n // 16, rng.randrange(1 << 30), "corpus", round_trip))
    return wl


def finish_charge(wl: Workload, rng: random.Random) -> None:
    targets = []
    for op in wl.corpus:
        graph = Path(op.outputs[0])
        n, _ = read_graph(graph)
        if len(op.outputs) == 3:
            s_arg = op.outputs[2]
        else:
            # S goes in a witness file: `--S` given as a csv longer than a
            # file name can be makes the CLI's path probe raise OSError.
            t = set(_independent_t(graph, rng))
            s = [v for v in range(n) if v not in t]
            # T is independent, so each T vertex is an odd component of G - S.
            deficiency = len(t) - len(s)
            s_arg = str(graph.with_suffix(".S.witness"))
            Path(s_arg).write_text(
                f"S: {' '.join(map(str, s))}\ndeficiency: {deficiency}\n"
                f"matching_upper: {(n - deficiency) // 2}\n"
            )
        targets.append((op.outputs[1], s_arg, n))
    for drawing, s_arg, n in targets:
        base = ["check", "charge", drawing, "--S", s_arg, "--dump"]
        wl.ops.append(Op(base, _charge_check(n)))
        for _ in range(CHARGE_SHUFFLES):
            wl.ops.append(Op(base + ["--order-seed", str(rng.randrange(1 << 30))], _charge_check(n)))
    rng.shuffle(wl.ops)


# ---------------------------------------------------------------------
# duality


# Every family instance small enough for the brute-force oracle (n <= 18).
DUALITY_FAMILIES = [
    ("delta3", 4), ("delta4", 4), ("delta4", 6),
    ("delta4-k5", 1), ("delta4-k5", 2), ("delta4-k5", 3), ("delta4-k5", 4), ("delta4-k5", 5),
    ("delta5", 1), ("delta5", 2), ("delta5", 3), ("delta6", 1), ("delta6", 2),
]
# Random drawings: how many of each total vertex count.  The oracle's cost
# grows about 4x per two vertices, so the sizes are fixed and the seed
# varies the drawings; n = 20 (about 2 s an op) is left out.  With the
# family instances, the median falls inside the n = 14 group and the 90th
# percentile inside the n = 16 group rather than on a boundary.
DUALITY_RANDOM = {12: 25, 14: 35, 16: 23, 18: 4}


def build_duality(rng: random.Random, round_trip) -> Workload:
    wl = Workload(corpus=[], ops=[])
    for family, value in DUALITY_FAMILIES:
        wl.corpus.append(_generate_op(family, value, "corpus", round_trip))
    for total, count in DUALITY_RANDOM.items():
        for _ in range(count):
            x = rng.randint(1, 3)
            wl.corpus.append(_random_op(total - 2 * x, x, rng.randrange(1 << 30), "corpus", round_trip))
    for op in wl.corpus:
        wl.ops.append(Op(["solve", op.outputs[0], "--mode", "duality"], _exact_check("equal\n")))
    rng.shuffle(wl.ops)
    return wl


BUILDERS = {
    "generate": build_generate,
    "certify": build_certify,
    "charge": build_charge,
    "duality": build_duality,
}
