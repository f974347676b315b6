"""Command-line front door: generate families, solve matchings, run checks.

All outputs are plain text, sorted, LF-terminated; numbers print as
exact integers or fractions p/q.  Exit codes: 0 success/holds, 1 usage,
2 parse failure, 3 precondition violation, 4 property violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

from . import bounds, embedding, generators, matcher
from .errors import NotBipartite, OnePlanarError, ParseError
from .graph import Graph, parse_graph, write_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    path: str, command: str, arguments: dict, inputs: list[str], outputs: list[str]
) -> None:
    """Reproducibility record: same manifest inputs must yield identical outputs."""
    manifest = {
        "command": command,
        "arguments": {k: v for k, v in arguments.items() if v is not None},
        "input_digests": {p: _digest(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "output_digests": {p: _digest(Path(p)) for p in outputs},
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_ids(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ParseError(f"bad vertex list {text!r}") from exc


def _read_text(path: str) -> str:
    """The text of an input file; a file that cannot be read or decoded is a parse error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_vertex_set(spec: str) -> frozenset[int]:
    """A vertex set given as a csv list or a witness-file path."""
    p = Path(spec)
    try:
        is_file = p.exists()
    except OSError:  # e.g. a csv longer than a file name may be
        is_file = False
    if is_file:
        s, _, _ = generators.parse_witness(_read_text(spec))
        return s
    return _parse_ids(spec)


def _two_coloring(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    raise NotBipartite(f"odd cycle through edge ({v},{w})")
    side0 = frozenset(v for v, c in color.items() if c == 0)
    return side0, frozenset(range(g.n)) - side0


# ---------------------------------------------------------------------
# generate


def _cmd_generate(args: argparse.Namespace) -> int:
    # everything is built before the output directory is made, so a usage
    # or precondition error leaves no directory behind
    if args.family == "random":
        if args.n is None or args.x is None:
            raise _UsageError("random needs --n and --x")
        d = generators.random_oneplanar(args.n, args.x, args.seed)
        name, witness = f"random-n{args.n}-x{args.x}-seed{args.seed}", None
    else:
        fn, pname = generators.FAMILIES[args.family]
        value = getattr(args, pname.replace("-", "_"), None)
        if value is None:
            raise _UsageError(f"family {args.family} needs --{pname}")
        inst = fn(value)
        name, d = inst.name, inst.drawing
        witness = generators.write_witness(inst.witness, inst.predicted_deficiency, inst.predicted_matching_upper)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    texts = {".graph": write_graph(d.graph), ".1pg": embedding.write_drawing(d), ".witness": witness}
    for suffix, text in texts.items():
        if text is not None:
            path = out_dir / f"{name}{suffix}"
            path.write_text(text)
            outputs.append(str(path))
    for p in outputs:
        print(p)
    if args.manifest:
        names = ("family", "s", "k", "g", "n", "x", "seed", "out")
        arguments = {name: getattr(args, name) for name in names}
        _write_manifest(args.manifest, "generate", arguments, [], outputs)
    return EXIT_OK


# ---------------------------------------------------------------------
# solve


def _cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    if args.mode == "matching":
        m = matcher.maximum_matching(g)
        sys.stdout.write(matcher.write_matching(m))
        return EXIT_OK
    # The size limit fires before any blossom work.  A checked matching M
    # bounds every deficiency by n - 2|M| (weak duality), so the oracle may
    # stop at the first subset that reaches it; an unchecked M bounds nothing.
    matcher.check_brute_force_size(g, args.limit)
    m = matcher.maximum_matching(g)
    target = None if matcher.check_matching(g, m) else g.n - 2 * len(m)
    w = matcher.tutte_berge_bruteforce(g, args.limit, target=target)
    if args.mode == "oracle":
        sys.stdout.write(generators.write_witness(w.s, w.deficiency, (g.n - w.deficiency) // 2))
        return EXIT_OK
    # duality
    if 2 * len(m) == g.n - w.deficiency:
        print("equal")
        return EXIT_OK
    print(f"MISMATCH matching={len(m)} deficiency={w.deficiency} n={g.n}")
    sys.stdout.write(matcher.write_matching(m))
    sys.stdout.write(generators.write_witness(w.s, w.deficiency, (g.n - w.deficiency) // 2))
    return EXIT_VIOLATION


# ---------------------------------------------------------------------
# check


def _resolve_t(arg: str, d: embedding.OnePlanarDrawing) -> frozenset[int]:
    if arg in ("side0", "side1"):
        side0, side1 = _two_coloring(d.graph)
        return side0 if arg == "side0" else side1
    return _load_vertex_set(arg)


def _load_provenance(args: argparse.Namespace) -> embedding.OnePlanarDrawing | None:
    if not args.provenance:
        return None
    return embedding.parse_drawing(_read_text(args.provenance))


def _bound_line(chk: bounds.BoundCheck) -> str:
    word = "holds" if chk.holds else "violated"
    tight = " tight" if chk.holds and chk.tight else ""
    return f"lhs={_fmt(chk.lhs)} rhs={_fmt(chk.rhs)} {word}{tight}"


def _barrier_text(rep: bounds.CertReport) -> str:
    return f"barrier A={{{','.join(map(str, sorted(rep.barrier)))}}}"


def _cmd_check(args: argparse.Namespace) -> int:
    what = args.what
    if what == "theorem1":
        g = parse_graph(_read_text(args.input))
        if args.delta not in bounds.BOUNDS:
            raise _UsageError(f"check theorem1 needs --delta in {sorted(bounds.BOUNDS)}")
        rep = bounds.certify_matching_bound(g, args.delta, _load_provenance(args))
        if not rep.certified:
            print(
                f"|M|={rep.matching_size} not certified: {_barrier_text(rep)} "
                f"gives |M|<={rep.barrier_bound}" + "".join(f"; {v}" for v in rep.violations[:1])
            )
            return EXIT_VIOLATION
        if not rep.applicable:
            print(
                f"|M|={rep.matching_size} bound={_fmt(rep.bound)} "
                f"not applicable (n={rep.n} < threshold {rep.threshold})"
            )
            return EXIT_PRECONDITION
        # a counterexample's certificate is M with its barrier
        word = "holds" if rep.holds else f"violated {_barrier_text(rep)}"
        tight = " tight" if rep.tight else ""
        print(f"|M|={rep.matching_size} bound={_fmt(rep.bound)} {word}{tight}")
        return EXIT_OK if rep.holds else EXIT_VIOLATION

    if what == "charge":
        d = embedding.parse_drawing(_read_text(args.input))
        if not args.S:
            raise _UsageError("check charge needs --S")
        ledger = bounds.charging_run(d, _load_vertex_set(args.S), order_seed=args.order_seed)
        report = bounds.charge_verify(ledger)
        if args.dump:
            sys.stdout.write(bounds.write_ledger(ledger))
        print(f"violations: {len(report.violations)}")
        for v in report.violations:
            print(f"  {v}")
        return EXIT_OK if report.ok else EXIT_VIOLATION

    # the rest evaluate one inequality each
    if what in ("obs1", "lemma5", "lemma6"):
        d = embedding.parse_drawing(_read_text(args.input))
        if what == "obs1":
            if args.side0:
                side0 = _parse_ids(args.side0)
                sides = (side0, frozenset(range(d.n_real)) - side0)
            else:
                sides = _two_coloring(d.graph)
            chk = bounds.check_bipartite_edge_budget(d, sides)
        else:
            if not args.T:
                raise _UsageError(f"check {what} needs --T")
            check = bounds.check_degree_bound if what == "lemma5" else bounds.check_cw_degree_bound
            chk = check(d, _resolve_t(args.T, d))
    else:  # lemma7, lemma8
        g = parse_graph(_read_text(args.input))
        if not args.S:
            raise _UsageError(f"check {what} needs --S")
        s = _load_vertex_set(args.S)
        prov = _load_provenance(args)
        if what == "lemma7" and args.delta not in (3, 4):
            raise _UsageError("check lemma7 needs --delta 3 or 4")
        chk = bounds.check_deficiency(g, s, 5 if what == "lemma8" else args.delta, prov)
    print(_bound_line(chk))
    return EXIT_OK if chk.holds else EXIT_VIOLATION


# ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="oneplanar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a family instance or random drawing")
    p_gen.add_argument(
        "family",
        choices=sorted(generators.FAMILIES) + ["random"],
    )
    p_gen.add_argument("--s", type=int, help="substrate size (delta3, delta4)")
    p_gen.add_argument("--k", type=int, help="number of K5 blocks (delta4-k5)")
    p_gen.add_argument("--g", type=int, help="number of hub blocks (delta5/6/7)")
    p_gen.add_argument("--n", type=int, help="triangulation size (random)")
    p_gen.add_argument("--x", type=int, help="number of crossing pairs (random)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", default=".")
    p_gen.add_argument("--manifest", help="write a reproducibility manifest here")
    p_gen.set_defaults(fn=_cmd_generate)

    p_solve = sub.add_parser("solve", help="maximum matching / deficiency oracle")
    p_solve.add_argument("graph")
    p_solve.add_argument(
        "--mode", choices=["matching", "oracle", "duality"], default="matching"
    )
    p_solve.add_argument("--limit", type=int, default=matcher.BRUTE_FORCE_LIMIT)
    p_solve.set_defaults(fn=_cmd_solve)

    p_check = sub.add_parser("check", help="run one verification")
    p_check.add_argument(
        "what",
        choices=["obs1", "lemma5", "lemma6", "lemma7", "lemma8", "theorem1", "charge"],
    )
    p_check.add_argument("input", help="graph or drawing file, per check")
    p_check.add_argument("--T", help="independent set: csv ids, side0 or side1")
    p_check.add_argument("--S", help="vertex set: csv ids or a witness file")
    p_check.add_argument("--side0", help="explicit bipartition side for obs1")
    p_check.add_argument("--delta", type=int, help="minimum degree for lemma7/theorem1")
    p_check.add_argument("--provenance", help="1pg drawing attesting 1-planarity")
    p_check.add_argument("--order-seed", type=int, default=None, dest="order_seed")
    p_check.add_argument("--dump", action="store_true", help="print the charge ledger")
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OnePlanarError as exc:
        print(f"precondition: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:  # an output that cannot be written; inputs raise ParseError in _read_text
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
