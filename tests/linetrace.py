"""Line-trace ratchet: every statement of `src/oneplanar` runs under tier-1.

    python tests/linetrace.py [pytest arguments, default: the tests directory]

Runs the tier-1 suite in this process under a line tracer (`sys.settrace`
and `threading.settrace`) and lists each statement of `src/oneplanar` that
never ran.  A line can run if a code object of its module lists it in
`co_lines()`; a missed line is reported as the innermost statement holding
it, by its module and its stripped first line.  Hypothesis draws from a
fixed seed, so the set of lines that run is the same on every run.

Exits 1 when the suite fails, when a missed statement is not on ALLOWED,
or when an ALLOWED entry matches no missed statement, so the list only
shrinks.  Each entry stands for one statement.  Which lines a code object
lists shifts between Python versions, so the list holds for one (CI runs
this on 3.11).  Not collected by pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oneplanar"

# (module, stripped first line of the statement, why no tier-1 test runs it)
ALLOWED: list[tuple[str, str, str]] = [
    ("bounds", 'raise InvalidDrawing(f"chord saturation did not terminate after {len(chords)} chords")',
     "step 1's cap: a bigon-free plane multigraph has at most 3n - 6 edges, so saturation ends first"),
    ("bounds", "bisect.insort(heavy, piece)",
     "step 2's re-queue: no tier-1 run leaves a face with four distinct T-corners after step 1"),
    ("bounds", "continue",
     "_three_consecutive_crossed, degree < 3: T-vertices have degree >= 3 and steps 0-1 delete none of their edges"),
    ("cli", "sys.exit(main())", "runs only as `python -m oneplanar.cli`; tier-1 calls `main` in process"),
    ("generators", 'raise InvalidDrawing(f"{name}: built {d.n_real} vertices, expected {n}")',
     "internal guard: each family's vertex count is fixed by its size parameter"),
]


def _code_lines(code: CodeType) -> set[int]:
    """The lines a code object and the code objects nested in it can run;
    a module's code starts at line 0, which holds no statement."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _trace_suite(argv: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest under the tracer; its exit code and the (file, line) pairs that ran."""
    import pytest

    ran: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(code), ran


def missed_statements(ran: set[tuple[str, int]]) -> Counter[tuple[str, str]]:
    """(module, stripped first line) of every statement with a line that never ran."""
    out: Counter[tuple[str, str]] = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.split("\n")
        runnable = _code_lines(compile(source, str(path), "exec"))
        missed = sorted(line for line in runnable if (str(path), line) not in ran)
        stmts = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
        owners = set()
        for line in missed:
            holding = [node.lineno for node in stmts if node.lineno <= line <= node.end_lineno]
            owners.add(max(holding, default=line))
        out.update((path.stem, lines[first - 1].strip()) for first in owners)
    return out


def main(argv: list[str]) -> int:
    code, ran = _trace_suite(argv or [str(ROOT / "tests")])
    if code != 0:
        print(f"linetrace: the suite failed (pytest exit {code})")
        return 1
    missed = missed_statements(ran)
    allowed = Counter((module, line) for module, line, _ in ALLOWED)
    unexpected, stale = missed - allowed, allowed - missed
    for (module, line), n in sorted(unexpected.items()):
        print(f"linetrace: never ran: {module}: {line}" + (f" (x{n})" if n > 1 else ""))
    for (module, line), n in sorted(stale.items()):
        print(f"linetrace: allowed but not missed, remove it: {module}: {line}" + (f" (x{n})" if n > 1 else ""))
    print(f"linetrace: {sum(missed.values())} statements never ran, {len(ALLOWED)} allowed")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
