"""End-to-end benchmark of the `oneplanar` CLI, with a separate traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 3 --seconds 20 --trace 0

Workloads (see `workloads.py` for sizes and known answers):

* generate - `oneplanar generate` over all six families plus `random`:
  the write path, dominated by drawing surgery and face enumeration.
* certify - `solve --mode matching`, `check theorem1` and `check
  lemma7|lemma8` on a pre-generated corpus up to ~1.7k vertices: the read
  path (parsing, validation, blossom), with no surgery.
* charge - `check charge --dump`, canonical or with `--order-seed`, on
  delta3 instances and random drawings: the charging engine and audit.
* duality - `solve --mode duality` on graphs with n <= 18: the
  brute-force Tutte-Berge oracle.

Each run is one process and one closed-loop client: `oneplanar.cli.main`
is called in-process, each op after the previous one returned, on files in
a temporary directory under `perfbench/.work`.  Set-up (imports and corpus
generation) is done three times and its median reported as `setup_s`.
The untraced run then makes whole passes over the seeded op list (at
least 100 ops each, and at least three passes) until `--seconds` have
passed, so every metric covers the same mix of ops.  Each op's latency
is its median across the passes, which follows the host speed most
passes saw; the benchmark's own checks between ops are not timed.
Every op is checked against known answers; the SHA-256 of the first
pass's stdout and written files is printed, and later passes must
reproduce it op by op.

`--trace 1` instead runs one pass, each op twice, once plain and once
with every layer entry point wrapped (see `tracing.py`).  It reports
per-layer self time and counts plus the tracing overhead, times the
growth per doubling of `family_delta3` and of the blossom matcher, and
writes the spans to `perfbench/results/`.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The exit code is 0 when every op was correct, 1 when some
op was wrong, and 2 when the program could not be loaded at all.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 3  # per-op medians over at least three passes; later passes must reproduce the first
DEADLINE_S = 150.0  # stop looping by then, so the process ends well within 180 s


class ProgramMissing(Exception):
    pass


def load_program():
    """Import `oneplanar` afresh from this checkout's `src/`."""
    if not (SRC / "oneplanar" / "cli.py").is_file():
        raise ProgramMissing(f"no oneplanar sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "oneplanar" or m.startswith("oneplanar.")]:
        del sys.modules[name]
    pkg = importlib.import_module("oneplanar")
    importlib.import_module("oneplanar.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"imported oneplanar from {pkg.__file__}, not from {SRC}")
    return pkg


def execute(cli, op: workloads.Op) -> tuple[int, str, dict[str, bytes], float]:
    """Run one op; returns exit code, stdout, written files and milliseconds."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(list(op.argv))
        except Exception:  # an escaped exception is a wrong answer, not a crash of the run
            rc = -1
            out.write(traceback.format_exc())
        ms = (time.perf_counter_ns() - start) / 1e6
    files = {p: Path(p).read_bytes() for p in op.outputs if Path(p).is_file()}
    return rc, out.getvalue(), files, ms


def op_digest(op: workloads.Op, rc: int, stdout: str, files: dict[str, bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(("\0".join(op.argv) + f"\0{rc}\0").encode())
    h.update(stdout.encode())
    for path in op.outputs:
        h.update(f"\0{path}\0".encode())
        h.update(files.get(path, b"<missing>"))
    return h.digest()


def check(op: workloads.Op, rc: int, stdout: str, files: dict[str, bytes]) -> str | None:
    try:
        return op.check(rc, stdout, files)
    except Exception as exc:  # a malformed answer makes the checker itself fail
        return f"unreadable answer ({exc!r}): {stdout[:80]!r}"


def set_up(name: str, seed: int, work: Path):
    """Import the program and write the corpus into `work`; returns (pkg, workload, corpus results)."""
    pkg = load_program()
    enc = pkg.embedding

    def round_trip(data: bytes) -> bytes:
        return enc.write_drawing(enc.parse_drawing(data.decode())).encode()

    rng = random.Random(f"{name}:{seed}")
    os.chdir(work)
    wl = workloads.BUILDERS[name](rng, round_trip)
    results = [execute(pkg.cli, op) for op in wl.corpus]
    if name == "charge":
        workloads.finish_charge(wl, rng)
    return pkg, wl, results


def repeated_setup(name: str, seed: int, scratch: Path, repeats: int):
    """Set up `repeats` times in fresh directories; keep the last one.

    The first set-up is timed from the start of this script, so it also
    covers loading the benchmark itself; each later one re-imports the
    program and regenerates the corpus from scratch.
    """
    times, digests = [], set()
    for i in range(repeats):
        work = Path(tempfile.mkdtemp(prefix=f"setup{i}-", dir=scratch))
        start = SCRIPT_START if i == 0 else time.perf_counter()
        pkg, wl, results = set_up(name, seed, work)
        times.append(time.perf_counter() - start)
        h = hashlib.sha256()
        for op, (rc, out, files, _) in zip(wl.corpus, results):
            h.update(op_digest(op, rc, out, files))
        digests.add(h.hexdigest())
        if i + 1 < repeats:
            os.chdir(scratch)
            shutil.rmtree(work)
    problems = [
        f"corpus {' '.join(op.argv)}: {p}"
        for op, (rc, out, files, _) in zip(wl.corpus, results)
        if (p := check(op, rc, out, files))
    ]
    if len(digests) != 1:
        problems.append("corpus bytes differ between set-ups")
    return pkg, wl, times, problems, digests.pop()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(pkg, wl: workloads.Workload, seconds: float) -> dict:
    """Whole passes over the op list until `seconds` and MIN_PASSES are reached."""
    ops = wl.ops
    first: list[bytes] = []
    latencies: list[float] = []
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while i % len(ops) or i < MIN_PASSES * len(ops) or time.perf_counter() - start < seconds:
        if time.perf_counter() - SCRIPT_START > DEADLINE_S:
            break
        op = ops[i % len(ops)]
        rc, out, files, ms = execute(pkg.cli, op)
        latencies.append(ms)
        d = op_digest(op, rc, out, files)
        problem = check(op, rc, out, files)
        if i < len(ops):
            first.append(d)
        elif d != first[i % len(ops)]:
            problem = problem or "output differs from the same op in the first pass"
        if problem:
            problems.append(f"op {i} ({' '.join(op.argv)}): {problem}")
        i += 1
    return {
        "attempted": i,
        "failed": len(problems),
        "problems": problems,
        "latencies": latencies,
        "digest": hashlib.sha256(b"".join(first)).hexdigest() if len(first) == len(ops) else "incomplete",
        "pass_length": len(ops),
        "loop_s": time.perf_counter() - start,
        "stopped_early": bool(i % len(ops)) or i < MIN_PASSES * len(ops),
    }


def growth_probes(pkg) -> dict[str, float]:
    """Time family_delta3 at s = 8, 16, 32 and the blossom on delta7 at g = 25, 50, 100."""

    def median_time(fn, arg, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    # the largest size runs once: family_delta3(32) alone takes seconds
    gen_times = [median_time(pkg.generators.family_delta3, s, r) for s, r in ((8, 3), (16, 3), (32, 1))]
    graphs = [pkg.generators.family_delta7(g).graph for g in (25, 50, 100)]
    match_times = [median_time(pkg.matcher.maximum_matching, graph, 3) for graph in graphs]
    return {
        "generators.delta3.growth_per_doubling": tracing.growth_per_doubling(gen_times),
        "matcher.blossom.growth_per_doubling": tracing.growth_per_doubling(match_times),
    }


def traced_run(pkg, wl: workloads.Workload, spans_path: Path) -> dict:
    """Each op of one pass runs plain and traced, in alternating order."""
    tracer = tracing.Tracer()
    problems: list[str] = []
    plain_ms = traced_ms = 0.0
    digest = hashlib.sha256()
    for j, op in enumerate(wl.ops):
        runs = {}
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                tracer.op_id = j
                tracer.install(pkg)
            try:
                runs[traced] = execute(pkg.cli, op)
            finally:
                tracer.uninstall()
        for traced, (rc, out, files, ms) in runs.items():
            problem = check(op, rc, out, files)
            if problem:
                problems.append(f"op {j}{' traced' if traced else ''} ({' '.join(op.argv)}): {problem}")
        plain, with_trace = (op_digest(op, *runs[t][:3]) for t in (False, True))
        if plain != with_trace:
            problems.append(f"op {j}: traced output differs from the plain run")
        digest.update(plain)
        plain_ms += runs[False][3]
        traced_ms += runs[True][3]
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as f:
        for layer, start, end, parent, op_id in tracer.spans:
            f.write(json.dumps({"name": layer, "start_ns": start, "end_ns": end,
                                "parent": parent, "op": op_id}) + "\n")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_ms / plain_ms
    metrics.update(growth_probes(pkg))
    return {
        "attempted": 2 * len(wl.ops),
        "failed": len(problems),
        "problems": problems,
        "metrics": metrics,
        "absent": sorted(set(tracer.absent)),
        "digest": digest.hexdigest(),
        "plain_s": plain_ms / 1e3,
        "traced_s": traced_ms / 1e3,
        "spans": len(tracer.spans),
    }


def header(name: str, seed: int, trace: int) -> list[str]:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    sources = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    lines = sum(len(p.read_text().splitlines()) for p in sources)
    return [
        f"workload {name}, seed {seed}, trace {trace}",
        f"commit {commit}; src sha256 {src_hash[:16]}; src lines {lines} (informational, not gated)",
        f"python {platform.python_version()}; nproc {len(os.sched_getaffinity(0))}",
    ]


UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "overhead_ratio": "ratio",
         "growth_per_doubling": "ratio"}


def per_layer_report(result: dict) -> tuple[dict, list[str]]:
    metrics = result["metrics"]
    out = {name: {"value": metrics[name], "unit": UNITS.get(name.rsplit(".", 1)[1], "count")}
           for name in tracing.per_layer_names()}
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    lines = [f"traced {result['attempted'] // 2} ops: plain {result['plain_s']:.3f} s, "
             f"traced {result['traced_s']:.3f} s, overhead x{metrics['trace.overhead_ratio']:.4f}, "
             f"{result['spans']} spans"]
    if result["absent"]:
        lines.append("absent entry points (layer reported as 0): " + ", ".join(result["absent"]))
    lines.append(f"{'layer':22s} {'self_s':>9s} {'share':>6s} {'calls':>8s}  counts")
    for layer, extra in sorted(tracing.LAYER_COUNTS.items(), key=lambda kv: -metrics[kv[0] + ".self_s"]):
        self_s = metrics[f"{layer}.self_s"]
        counts = ", ".join(
            f"{k}={metrics[f'{layer}.{k}']}" + (" (derived)" if f"{layer}.{k}" in tracing.DERIVED else "")
            for k in extra
        )
        lines.append(f"{layer:22s} {self_s:9.4f} {self_s / total if total else 0:6.1%} "
                     f"{metrics[f'{layer}.calls']:8d}  {counts}")
    for key in ("generators.delta3.growth_per_doubling", "matcher.blossom.growth_per_doubling"):
        lines.append(f"{key} = {metrics[key]:.3f}")
    return out, lines


def end_to_end_report(result: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Time metrics over each op's median latency across the run's passes.

    Other tenants of a shared host slow it in phases that can start or end
    within a run; the per-op median follows the phase most passes saw, and
    every op of the mix still counts once.  Throughput counts correct ops.
    """
    lat, width = result["latencies"], result["pass_length"]
    passes = max(1, len(lat) // width)
    per_op = [statistics.median(lat[j::width][:passes]) for j in range(min(width, len(lat)))]
    good = result["attempted"] - result["failed"]
    metrics = {
        "ops_per_s": {"value": len(per_op) * good / result["attempted"] / (sum(per_op) / 1e3), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(per_op), "unit": "ms"},
        "op_p90_ms": {"value": percentile(per_op, 0.9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        "correct_rate": {"value": good / result["attempted"], "unit": "ratio"},
    }
    lines = [
        f"ops {result['attempted']} ({passes} passes of {width}) in {result['loop_s']:.2f} s of loop, "
        f"{sum(lat) / 1e3:.2f} s of op time; latency samples {len(per_op)} (each the median of {passes} passes)",
        "setup samples " + ", ".join(f"{t:.4f}" for t in setup_times) + " s",
        "peak_rss_mib: 1 sample (ru_maxrss of this process)",
    ] + [f"stopped at the {DEADLINE_S:.0f} s deadline before {MIN_PASSES} whole passes"] * result["stopped_early"] + [
        f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()
    ]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch_root = BENCH / ".work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch_root))
    cwd = Path.cwd()
    try:
        pkg, wl, setup_times, problems, corpus_digest = repeated_setup(
            args.workload, args.seed, scratch, 1 if args.trace else SETUP_REPEATS
        )
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            result = traced_run(pkg, wl, BENCH / "results" / f"{tag}.spans.jsonl")
            metrics, lines = per_layer_report(result)
        else:
            result = timed_run(pkg, wl, args.seconds)
            metrics, lines = end_to_end_report(result, setup_times)
    except ProgramMissing as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    problems += result["problems"]
    correct = not problems
    report = header(args.workload, args.seed, args.trace) + [
        f"corpus: {len(wl.corpus)} file sets, sha256 {corpus_digest}",
        f"output digest sha256 (first pass): {result['digest']}",
    ] + lines + [f"PROBLEM {p}" for p in problems[:20]]
    for line in report:
        print("# " + line)
    summary = {"correct": correct, "attempted": result["attempted"],
               "failed": result["failed"] + (len(problems) - len(result["problems"])), "metrics": metrics}
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, **summary, "latencies_ms": result.get("latencies")}) + "\n"
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
