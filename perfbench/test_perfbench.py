"""Tests of the benchmark itself: derived counts, tracing, known-answer gates.

Run from the repository root with `python -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from oneplanar import cli, matcher  # noqa: E402
from oneplanar.graph import build_graph  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_graphs():
    rng = random.Random(7)
    out = [build_graph(1, []), build_graph(3, [(0, 1), (1, 2), (0, 2)])]
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    out.append(build_graph(10, petersen + [(i, 5 + i) for i in range(5)]))
    for _ in range(60):
        n = rng.randint(2, 12)
        p = rng.choice((0.15, 0.3, 0.6))
        out.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    return out


def test_failed_searches_formula_matches_a_direct_count():
    total = 0
    for g in small_graphs():
        failed = 0

        def profile(frame, event, arg):
            nonlocal failed
            if event == "return" and frame.f_code.co_name == "try_augment" and arg is False:
                failed += 1

        sys.setprofile(profile)
        try:
            m = matcher.maximum_matching(g)
        finally:
            sys.setprofile(None)
        assert tracing.blossom_failed_searches(g.n, len(m)) == failed
        total += failed
    assert total > 0


def test_oracle_subsets_formula_matches_a_direct_count(monkeypatch):
    visited = 0
    original = matcher._odd_count_mask

    def counting(masks, remaining):
        nonlocal visited
        visited += 1
        return original(masks, remaining)

    monkeypatch.setattr(matcher, "_odd_count_mask", counting)
    for g in small_graphs():
        visited = 0
        w = matcher.tutte_berge_bruteforce(g)
        assert tracing.oracle_subsets(g.n, w.deficiency, len(w.s)) == visited


def test_sizes_fall_in_their_strata():
    rng = random.Random(3)
    values = workloads.sizes(rng, 20, 100, 4, step=2)
    assert [20 <= v <= 100 and v % 2 == 0 for v in values] == [True] * 4
    assert values == sorted(values)


@pytest.fixture
def workdir(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


def test_generate_gate_rejects_wrong_answers(workdir):
    op = workloads._generate_op("delta4", 8, "gen", lambda b: b)
    rc, out, files, _ = run.execute(cli, op)
    assert op.check(rc, out, files) is None
    header = files["gen/delta4-s8.graph"].replace(b"graph 20 60", b"graph 20 61", 1)
    assert op.check(rc, out, {**files, "gen/delta4-s8.graph": header})
    witness = files["gen/delta4-s8.witness"].replace(b"deficiency: 4", b"deficiency: 5")
    assert op.check(rc, out, {**files, "gen/delta4-s8.witness": witness})
    assert op.check(rc, out, files | {"gen/delta4-s8.1pg": b"1pg 0 0 0\n"})


def test_tracer_counts_one_duality_op_and_restores_the_program(workdir):
    op = workloads._generate_op("delta5", 3, "c", lambda b: b)
    run.execute(cli, op)
    pkg = sys.modules["oneplanar"]
    originals = (matcher.tutte_berge_bruteforce, cli.parse_graph)
    tracer = tracing.Tracer()
    tracer.op_id = 0
    tracer.install(pkg)
    try:
        rc, out, _, _ = run.execute(cli, workloads.Op(["solve", "c/delta5-g3.graph", "--mode", "duality"], None))
    finally:
        tracer.uninstall()
    assert (rc, out) == (0, "equal\n")
    assert (matcher.tutte_berge_bruteforce, cli.parse_graph) == originals
    metrics = tracer.metrics()
    assert metrics["cli.calls"] == metrics["matcher.oracle.calls"] == metrics["matcher.blossom.calls"] == 1
    g = pkg.generators.family_delta5(3).graph
    witness = matcher.tutte_berge_bruteforce(g)
    assert metrics["matcher.oracle.subsets"] == tracing.oracle_subsets(g.n, witness.deficiency, len(witness.s))
    root = [s for s in tracer.spans if s[0] == "cli"]
    assert len(root) == 1 and root[0][3] == -1
    self_total = sum(tracer.self_times().values())
    assert self_total == pytest.approx((root[0][2] - root[0][1]) / 1e9)


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"attempted": 2, "failed": 0, "latencies": [1.0, 2.0], "loop_s": 1.0, "pass_length": 2,
              "stopped_early": False}
    metrics, _ = run.end_to_end_report(result, [0.5])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    traced = {"metrics": {name: 1 for name in tracing.per_layer_names()}, "attempted": 2,
              "plain_s": 1.0, "traced_s": 1.0, "spans": 0, "absent": []}
    layers, _ = run.per_layer_report(traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layers.items()}
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)


def test_every_pass_has_at_least_100_ops():
    for name in ("generate", "certify", "duality"):
        wl = workloads.BUILDERS[name](random.Random(1), lambda b: b)
        assert len(wl.ops) >= 100, name
    charge_inputs = workloads.CHARGE_DELTA3[2] + workloads.CHARGE_RANDOM[2]
    assert charge_inputs * (1 + workloads.CHARGE_SHUFFLES) >= 100
