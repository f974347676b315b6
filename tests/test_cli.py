import json
import shlex
import shutil
from pathlib import Path

import pytest
from conftest import share_an_endpoint

from oneplanar import bounds, matcher
from oneplanar.cli import main
from oneplanar.graph import parse_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_generate_writes_three_files(tmp_path, capsys):
    code, _ = run(capsys, "generate", "delta5", "--g", "4", "-o", str(tmp_path))
    assert code == 0
    for suffix in (".graph", ".1pg", ".witness"):
        assert (tmp_path / f"delta5-g4{suffix}").exists()
    witness = (tmp_path / "delta5-g4.witness").read_text()
    assert witness == "S: 0\ndeficiency: 3\nmatching_upper: 9\n"


# frozen digest of random-n12-x3-seed7.1pg; any byte drift in the
# generator, the PRNG or the format is a breaking change
RANDOM_12_3_7_SHA256 = "a6557c5627f0f6ba34409e24ddd69484a8afd1bb3545539bd50ddd941dd55d12"


def test_generate_random_is_reproducible(tmp_path, capsys):
    import hashlib

    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "generate", "random", "--n", "12", "--x", "3", "--seed", "7", "-o", str(a))
    run(capsys, "generate", "random", "--n", "12", "--x", "3", "--seed", "7", "-o", str(b))
    name = "random-n12-x3-seed7.1pg"
    assert (a / name).read_bytes() == (b / name).read_bytes()
    assert hashlib.sha256((a / name).read_bytes()).hexdigest() == RANDOM_12_3_7_SHA256


def test_generate_manifest_reproducible(tmp_path, capsys):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path / "x"),
        "--manifest", str(m1))
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path / "x"),
        "--manifest", str(m2))
    d1, d2 = json.loads(m1.read_text()), json.loads(m2.read_text())
    assert d1["output_digests"] == d2["output_digests"]
    assert d1["command"] == "generate"


def test_generate_delta7_block_available(tmp_path, capsys):
    code, _ = run(capsys, "generate", "delta7", "--g", "1", "-o", str(tmp_path))
    assert code == 0
    assert (tmp_path / "delta7-g1.graph").exists()


def test_solve_matching(tmp_path, capsys):
    run(capsys, "generate", "delta4", "--s", "4", "-o", str(tmp_path))
    code, out = run(capsys, "solve", str(tmp_path / "delta4-s4.graph"), "--mode", "matching")
    assert code == 0
    assert out.startswith("matching 4\n")
    assert out.count("\nm ") == 4


def test_solve_oracle_and_duality(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    path = str(tmp_path / "delta3-s4.graph")
    code, out = run(capsys, "solve", path, "--mode", "oracle")
    assert code == 0
    assert "deficiency: 8" in out
    code, out = run(capsys, "solve", path, "--mode", "duality")
    assert code == 0
    assert out.strip() == "equal"


# delta3 s=4: n=16, a maximum matching of 4 edges and the witness S = {0,1,2,3}
DELTA3_S4_WITNESS = "S: 0 1 2 3\ndeficiency: 8\nmatching_upper: 4\n"


@pytest.fixture
def delta3_s4(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    return str(tmp_path / "delta3-s4.graph")


def patch_blossom(monkeypatch, change, path):
    """Make `solve` see change(g, M) for the blossom matching M; return it for `path`."""
    blossom = matcher.maximum_matching
    monkeypatch.setattr(matcher, "maximum_matching", lambda g: change(g, blossom(g)))
    return matcher.maximum_matching(parse_graph(Path(path).read_text()))


def drop_one_edge(g, m):
    return matcher.Matching(m.edges - {min(m.edges)}, m.barrier)


def add_non_edges(g, m):
    # pair up the exposed vertices, at least one pair of them not adjacent
    matched = {v for e in m.edges for v in e}
    free = [v for v in range(g.n) if v not in matched]
    pairs = set(zip(free[::2], free[1::2]))
    assert any(not g.has_edge(u, v) for u, v in pairs)
    return matcher.Matching(m.edges | pairs, m.barrier)


def add_shared_endpoints(g, m):
    # M is maximal, so every other edge shares an endpoint with it
    others = [e for e in g.edges if e not in m.edges]
    return matcher.Matching(m.edges | set(others[: g.n // 2 - len(m)]))


def test_duality_reports_a_matching_that_is_not_maximum(delta3_s4, capsys, monkeypatch):
    assert run(capsys, "solve", delta3_s4, "--mode", "oracle") == (0, DELTA3_S4_WITNESS)
    m = patch_blossom(monkeypatch, drop_one_edge, delta3_s4)
    code, out = run(capsys, "solve", delta3_s4, "--mode", "duality")
    assert code == 4
    assert out == (
        "MISMATCH matching=3 deficiency=8 n=16\n" + matcher.write_matching(m) + DELTA3_S4_WITNESS
    )


@pytest.mark.parametrize("change", [add_non_edges, add_shared_endpoints])
def test_a_non_matching_never_sets_the_oracle_target(delta3_s4, capsys, monkeypatch, change):
    m = patch_blossom(monkeypatch, change, delta3_s4)
    # claiming a perfect matching, its n - 2|M| = 0 would stop the search at S = {}
    assert len(m) == 8
    assert run(capsys, "solve", delta3_s4, "--mode", "oracle") == (0, DELTA3_S4_WITNESS)
    code, out = run(capsys, "solve", delta3_s4, "--mode", "duality")
    assert code == 4
    assert out == (
        "MISMATCH matching=8 deficiency=8 n=16\n" + matcher.write_matching(m) + DELTA3_S4_WITNESS
    )


@pytest.mark.parametrize("mode", ["oracle", "duality"])
def test_oracle_limit_fires_before_the_blossom(delta3_s4, capsys, monkeypatch, mode):
    calls = []
    monkeypatch.setattr(matcher, "maximum_matching", calls.append)
    assert main(["solve", delta3_s4, "--mode", mode, "--limit", "15"]) == 3
    err = capsys.readouterr().err
    assert err == "precondition: TooLarge: n=16 exceeds brute-force limit 15\n"
    assert calls == []


def test_check_matching_certificate(tmp_path, capsys):
    run(capsys, "generate", "delta4", "--s", "8", "-o", str(tmp_path))
    code, out = run(
        capsys, "check", "theorem1", str(tmp_path / "delta4-s8.graph"),
        "--delta", "4", "--provenance", str(tmp_path / "delta4-s8.1pg"),
    )
    assert code == 0
    assert out.strip() == "|M|=8 bound=8 holds tight"


def test_theorem1_names_the_barrier_that_does_not_prove_the_matching(
    delta3_s4, capsys, monkeypatch
):
    blossom = bounds.maximum_matching
    provenance = delta3_s4.replace(".graph", ".1pg")
    argv = ["check", "theorem1", delta3_s4, "--delta", "3", "--provenance", provenance]
    assert run(capsys, *argv) == (0, "|M|=4 bound=4 holds tight\n")
    monkeypatch.setattr(
        bounds, "maximum_matching", lambda g: drop_one_edge(g, blossom(g))
    )
    assert run(capsys, *argv) == (4, (
        "|M|=3 not certified: barrier A={0,1,2,3} gives |M|<=4;"
        " not maximal: (0,4) joins two exposed vertices\n"
    ))
    # a claimed matching with a non-edge: the line names the first violation
    monkeypatch.setattr(
        bounds, "maximum_matching", lambda g: add_non_edges(g, blossom(g))
    )
    code, out = run(capsys, *argv)
    assert code == 4
    assert out.startswith("|M|=8 not certified: barrier A={0,1,2,3} gives |M|<=4; (")
    assert out.endswith(" not an edge of the graph\n") and out.count("\n") == 1
    # |M| = 4 meets the barrier's bound, but two of its edges meet at 0
    monkeypatch.setattr(
        bounds, "maximum_matching", lambda g: share_an_endpoint(g, blossom(g))
    )
    assert run(capsys, *argv) == (4, (
        "|M|=4 not certified: barrier A={0,1,2,3} gives |M|<=4; (0,4) shares an endpoint\n"
    ))


def test_theorem1_violated_names_the_barrier(delta3_s4, capsys, monkeypatch):
    # no 1-planar graph violates Theorem 1, so the test raises the delta-3
    # bound: b = 38 makes it (16 - (5*16 - 38)/7)/2 = 5 at n = 16
    provenance = delta3_s4.replace(".graph", ".1pg")
    monkeypatch.setitem(bounds.BOUNDS, 3, (5, 38, 7, 2, 7))
    assert run(capsys, "check", "theorem1", delta3_s4, "--delta", "3", "--provenance", provenance) == (
        4, "|M|=4 bound=5 violated barrier A={0,1,2,3}\n"
    )


def test_check_matching_certificate_not_applicable(tmp_path, capsys):
    run(capsys, "generate", "delta4", "--s", "4", "-o", str(tmp_path))
    code, out = run(
        capsys, "check", "theorem1", str(tmp_path / "delta4-s4.graph"),
        "--delta", "4", "--provenance", str(tmp_path / "delta4-s4.1pg"),
    )
    assert code == 3
    assert "not applicable" in out


def test_check_charge_with_witness_file(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    code, out = run(
        capsys, "check", "charge", str(tmp_path / "delta3-s4.1pg"),
        "--S", str(tmp_path / "delta3-s4.witness"),
    )
    assert code == 0
    assert out.strip() == "violations: 0"


def test_check_charge_dump(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    code, out = run(
        capsys, "check", "charge", str(tmp_path / "delta3-s4.1pg"),
        "--S", "0,1,2,3", "--dump",
    )
    assert code == 0
    assert out.startswith("ledger\n")
    assert "total 168 168" in out


def test_check_charge_long_csv_matches_witness_file(tmp_path, capsys):
    # a csv longer than a file name may be is still read as a vertex list
    run(capsys, "generate", "delta3", "--s", "6", "-o", str(tmp_path))
    drawing = str(tmp_path / "delta3-s6.1pg")
    csv = ",".join(str(v) for v in list(range(6)) * 40)
    assert len(csv) > 255
    code_csv, out_csv = run(capsys, "check", "charge", drawing, "--S", csv, "--dump")
    code_file, out_file = run(
        capsys, "check", "charge", drawing, "--S", str(tmp_path / "delta3-s6.witness"), "--dump"
    )
    assert code_csv == code_file == 0
    assert out_csv == out_file


# random_oneplanar(8, 1, 3) with (0, 9) drawn across (0, 5), as the builder
# wrote it before a crossing of two edges that share an endpoint was
# refused.  While such a drawing was accepted, `check charge` on it printed
# "total charges 102 exceed bound 96" and exited 4, blaming the
# implementation for a drawing outside the model
ADJACENT_CROSSING = Path(__file__).parent / "data" / "adjacent-crossing.1pg"


def test_check_charge_refuses_a_crossing_of_two_edges_that_share_an_endpoint(capsys):
    assert main(["check", "charge", str(ADJACENT_CROSSING), "--S", "1,2,3,4,5,8,9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: invalid drawing: dummy 11 crosses edges 9 and 24, which share vertex 0\n"


def test_check_degree_bound_commands(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    t_arg = ",".join(str(v) for v in range(4, 16))
    code, out = run(capsys, "check", "lemma5", str(tmp_path / "delta3-s4.1pg"), "--T", t_arg)
    assert code == 0
    assert out.strip() == "lhs=24 rhs=24 holds tight"
    code, out = run(capsys, "check", "lemma6", str(tmp_path / "delta3-s4.1pg"), "--T", t_arg)
    assert code == 0


def test_check_side_keyword_resolution(tmp_path, capsys):
    # the cube is bipartite; side0 is the side containing vertex 0
    from oneplanar.embedding import write_drawing
    from conftest import cube_drawing

    p = tmp_path / "cube.1pg"
    p.write_text(write_drawing(cube_drawing()))
    code, out = run(capsys, "check", "lemma6", str(p), "--T", "side0")
    assert code == 0
    assert out.strip() == "lhs=24 rhs=24 holds tight"


def test_check_deficiency_commands(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    code, out = run(
        capsys, "check", "lemma7", str(tmp_path / "delta3-s4.graph"),
        "--S", str(tmp_path / "delta3-s4.witness"), "--delta", "3",
        "--provenance", str(tmp_path / "delta3-s4.1pg"),
    )
    assert code == 0
    assert out.strip() == "lhs=8 rhs=8 holds tight"
    run(capsys, "generate", "delta5", "--g", "4", "-o", str(tmp_path))
    code, out = run(
        capsys, "check", "lemma8", str(tmp_path / "delta5-g4.graph"), "--S", "0",
    )
    assert code == 0
    assert out.strip() == "lhs=3 rhs=3 holds tight"


def test_check_edge_budget_auto_coloring(tmp_path, capsys):
    from oneplanar.embedding import write_drawing
    from conftest import c4_drawing

    p = tmp_path / "c4.1pg"
    p.write_text(write_drawing(c4_drawing()))
    code, out = run(capsys, "check", "obs1", str(p))
    assert code == 0
    assert out.strip() == "lhs=4 rhs=4 holds tight"


def test_check_edge_budget_counts_each_parallel_copy(tmp_path, capsys):
    from oneplanar.embedding import write_drawing
    from oneplanar.generators import random_oneplanar
    from conftest import greedy_independent_t

    d = random_oneplanar(7, 0, 3)
    t = greedy_independent_t(d.graph)
    final = bounds.charging_run(d, frozenset(range(d.n_real)) - t).final
    # step 1 doubled one edge: 10 uncrossed edges over 9 vertex pairs
    assert (final.n_real, len(final.edges), len(set(final.edges)), len(final.crossed_eids)) == (7, 10, 9, 0)
    p = tmp_path / "final.1pg"
    p.write_text(write_drawing(final))
    code, out = run(capsys, "check", "obs1", str(p))
    assert code == 0
    assert out.strip() == "lhs=10 rhs=10 holds tight"


def test_exit_codes(tmp_path, capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.graph"
    bad.write_text("garbage\n")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()
    # precondition: brute force limit exceeded
    run(capsys, "generate", "delta5", "--g", "4", "-o", str(tmp_path))
    assert main(["solve", str(tmp_path / "delta5-g4.graph"), "--mode", "oracle"]) == 3
    capsys.readouterr()
    # usage: missing required option
    assert main(["check", "lemma5", str(tmp_path / "delta5-g4.1pg")]) == 1
    capsys.readouterr()
    graph, drawing = str(tmp_path / "delta5-g4.graph"), str(tmp_path / "delta5-g4.1pg")
    for argv, code in [
        (["generate", "random", "--n", "8", "-o", str(tmp_path)], 1),
        (["generate", "random", "--x", "1", "-o", str(tmp_path)], 1),
        (["check", "charge", drawing], 1),
        (["check", "lemma7", graph, "--delta", "3"], 1),
        (["check", "lemma8", graph], 1),
        (["check", "lemma7", graph, "--S", "0", "--delta", "5"], 1),
        (["check", "lemma8", graph, "--S", "0,x"], 2),
        (["--help"], 0),
    ]:
        assert main(argv) == code, argv
        capsys.readouterr()


def test_theorem1_without_provenance_names_the_missing_drawing(tmp_path, capsys):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    assert main(["check", "theorem1", str(tmp_path / "delta3-s4.graph"), "--delta", "3"]) == 3
    assert capsys.readouterr().err == "precondition: NoProvenance: 1-planarity attestation required (a drawing)\n"


def test_theorem1_rejects_delta_without_a_bound(tmp_path, capsys):
    run(capsys, "generate", "delta6", "--g", "1", "-o", str(tmp_path))
    for delta in ("6", "2"):
        assert main(["check", "theorem1", str(tmp_path / "delta6-g1.graph"), "--delta", delta,
                     "--provenance", str(tmp_path / "delta6-g1.1pg")]) == 1
        assert "usage error" in capsys.readouterr().err


def test_missing_file_is_parse_error(capsys):
    assert main(["solve", "/nonexistent/file.graph"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("header", ["graph 1_0 0", "graph +3 0", "graph \u0663 0", "graph 3 +0",
                                    "graph 1000001 0"])
def test_graph_header_outside_plain_decimal_or_the_limit_exits_2(tmp_path, capsys, header):
    path = tmp_path / "bad.graph"
    path.write_text(header + "\n", encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


# each input file of the CLI, as an argv with BAD where the file goes
UNREADABLE_INPUTS = {
    "solve-graph": ("solve", "BAD"),
    "lemma7-graph": ("check", "lemma7", "BAD", "--S", "0", "--delta", "3"),
    "charge-1pg": ("check", "charge", "BAD", "--S", "0,1,2"),
    "charge-S": ("check", "charge", "DRAWING", "--S", "BAD"),
    "lemma5-T": ("check", "lemma5", "DRAWING", "--T", "BAD"),
    "theorem1-provenance": ("check", "theorem1", "GRAPH", "--delta", "3", "--provenance", "BAD"),
}


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
@pytest.mark.parametrize("which", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, which, kind):
    run(capsys, "generate", "delta3", "--s", "4", "-o", str(tmp_path))
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe")
    paths = {"BAD": bad, "DRAWING": tmp_path / "delta3-s4.1pg", "GRAPH": tmp_path / "delta3-s4.graph"}
    argv = [str(paths.get(a, a)) for a in UNREADABLE_INPUTS[which]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot read {bad}")


@pytest.mark.parametrize("where", ["out-is-a-file", "manifest-in-missing-dir"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where):
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = ["generate", "delta3", "--s", "4"]
    if where == "out-is-a-file":
        argv += ["-o", str(afile)]
    else:
        argv += ["-o", str(tmp_path / "out"), "--manifest", str(tmp_path / "nodir" / "m.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: cannot write output: ")


def test_random_rejects_negative_crossings(tmp_path, capsys):
    argv = ["generate", "random", "--n", "10", "--x", "-1", "-o", str(tmp_path)]
    assert main(argv) == 3
    assert "TooSmall" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_generate_error_leaves_no_output_directory(tmp_path, capsys):
    assert main(["generate", "delta3", "-o", str(tmp_path / "newdir")]) == 1
    assert main(["generate", "delta3", "--s", "2", "-o", str(tmp_path / "newdir2")]) == 3
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


# exit-3 refusals no other test runs: name -> (argv, with DIR for a directory
# holding delta3-s4 and the drawings `edge`, `hexagon` and `k4`, and the
# first line of stderr)
PRECONDITIONS = {
    "lemma5-t-out-of-range": (
        ("check", "lemma5", "DIR/delta3-s4.1pg", "--T", "99"), "precondition: BadVertex: vertex 99 out of range"),
    "obs1-too-small": (("check", "obs1", "DIR/edge.1pg"), "precondition: TooSmall: edge budget needs n >= 3"),
    "obs1-sides-not-a-partition": (
        ("check", "obs1", "DIR/hexagon.1pg", "--side0", "0,2,4,9"),
        "precondition: NotBipartite: sides do not partition the vertex set"),
    "obs1-odd-cycle": (("check", "obs1", "DIR/k4.1pg"), "precondition: NotBipartite: odd cycle through edge (1,2)"),
    "delta4-too-small": (
        ("generate", "delta4", "--s", "2", "-o", "DIR/out"), "precondition: TooSmall: family delta4 needs s >= 4, got 2"),
    "delta4-k5-too-small": (
        ("generate", "delta4-k5", "--k", "0", "-o", "DIR/out"),
        "precondition: TooSmall: family delta4-k5 needs k >= 1, got 0"),
    "delta5-too-small": (
        ("generate", "delta5", "--g", "0", "-o", "DIR/out"), "precondition: TooSmall: family delta5 needs g >= 1, got 0"),
    "charge-s-out-of-range": (
        ("check", "charge", "DIR/delta3-s4.1pg", "--S", "0,1,2,99"),
        "precondition: BadVertex: S vertex 99 out of range (n=16)"),
}


@pytest.mark.parametrize("case", sorted(PRECONDITIONS))
def test_precondition_refusals_exit_3_with_their_message(delta3_s4, capsys, case):
    from oneplanar.embedding import drawing_from_faces, write_drawing
    from conftest import k4_drawing

    here = Path(delta3_s4).parent
    hexagon = drawing_from_faces(6, [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
    for name, d in (("edge", drawing_from_faces(2, [[0, 1]])), ("hexagon", hexagon), ("k4", k4_drawing())):
        (here / f"{name}.1pg").write_text(write_drawing(d))
    argv, first_line = PRECONDITIONS[case]
    assert main([a.replace("DIR", str(here)) for a in argv]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err.split("\n")[0]) == ("", first_line)
    assert not (here / "out").exists()


README = Path(__file__).parent.parent / "README.md"
CUBE = Path(__file__).parent / "data" / "cube.1pg"


def _readme_cli_lines() -> list[list[str]]:
    """The argv of each `oneplanar` line of the README's CLI block, with its
    `# ...` comment dropped and the contents of its optional `[...]` parts kept."""
    block = README.read_text().split("## CLI\n", 1)[1].split("```")[1]
    return [
        shlex.split(ln.split("#")[0].replace("[", "").replace("]", ""))[1:]
        for ln in block.splitlines()
        if ln.startswith("oneplanar ")
    ]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the block runs from the repository root, the one file it reads there
    # being the cube drawing
    from conftest import cube_drawing
    from oneplanar.embedding import write_drawing

    assert CUBE.read_text() == write_drawing(cube_drawing())
    (tmp_path / "tests" / "data").mkdir(parents=True)
    shutil.copy(CUBE, tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 17
    for argv in lines:
        assert main(argv) == 0, argv
