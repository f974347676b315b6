"""Golden digests: the CLI's generated files and charge ledgers, byte for byte.

Every digest below was computed before the local-surgery rewrite of
`embedding`; any drift in a generator, a surgery, the PRNG, the face
order or a text format changes one of them.  To inspect a mismatch,
rerun the failing command by hand and diff its output against a checkout
that still passes.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import greedy_independent_t

from oneplanar.cli import main
from oneplanar.graph import parse_graph

GENERATE = {
    ("delta3", "--s", "4"): "28faec676d72c63ccd3cb2fb43ba7ef380ab21bdde95382a8db4c39d27cb3b64",
    ("delta3", "--s", "7"): "980a13d25b6941efd6c26a1ac7787ceb58d3574100fa2a27692e67c0388f6329",
    ("delta4", "--s", "4"): "15cddca36fa1b1725e2870d28beda847e28aeb7ad6e3d4559c217bad94ff6176",
    ("delta4", "--s", "8"): "b61ca2953e53488d05626a45bddbdafeb1be965111ca8dab7646096686f7da82",
    ("delta4-k5", "--k", "1"): "94518e5325a7af92a6e3a030488e766aecab7e057fb4f08f71c113a56a212b4d",
    ("delta4-k5", "--k", "4"): "845a9278967909b153c5d21df333860f836812ac30537ec8e33aea31ee67b7ad",
    ("delta5", "--g", "1"): "1834fd52f6efe9aa4c8fe36ee94ef972383179089b149e75515c3ee4f67ac722",
    ("delta5", "--g", "3"): "115439ff5747e3b5fd2192cd2a4e6e1ded15aac5fff4476f9c99495de47d0d87",
    ("delta6", "--g", "1"): "fd137424044b44f293371bc4f91062eae618eb456e09441dcb6e2e54770f69f3",
    ("delta6", "--g", "3"): "041dfe36bf2fc0c68acb80e4fada104a99c213e07199c91c6168354d4eedaf4f",
    ("delta7", "--g", "1"): "6ba4ea790799d24f8ab2f06ef45f9a01213134dd0a38e9e750ec6571c0e956a1",
    ("delta7", "--g", "2"): "09e14fc8f7fc72a11f6b6d8d118756417708df8eba80467688ba6877b086e7bc",
    ("random", "--n", "12", "--x", "3", "--seed", "1"): "d9831ede584a6dd275e5635b5cf5425206ec37a074eb3d16fdd20e187c0a82bc",
    ("random", "--n", "16", "--x", "4", "--seed", "2"): "d8d5c1d171434b1eedad05662d6b8805fc310548a7eaad48579eab689e138b8d",
    ("random", "--n", "20", "--x", "5", "--seed", "3"): "b410e075dc17a270cfce4edeef976c04b5c947a58ae3d81e2ad3fc6a818bc79e",
}

# drawing stem -> generate argv; S is the family witness file, or for the
# random drawing the complement of its greedy independent T, as a csv
LEDGER_INPUTS = {
    "delta3-s6": ("delta3", "--s", "6"),
    "random-n16-x3-seed5": ("random", "--n", "16", "--x", "3", "--seed", "5"),
}
CHARGE = {
    ("delta3-s6", None): "36ffc0020d9271bda14b99f5ac15fc4ee59f21ddd21a1c23d87515bc599509b3",
    ("delta3-s6", 7): "36ffc0020d9271bda14b99f5ac15fc4ee59f21ddd21a1c23d87515bc599509b3",
    ("random-n16-x3-seed5", None): "b10764bdf6ed5c079494815e237f5400b3cd004ad7757659094ba74e70b4b312",
    ("random-n16-x3-seed5", 7): "4bb6beda2e69ae9a00aada6bc147937152150b09c52c3717adb042103a085292",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate_digest(tmp_path, argv: tuple[str, ...]) -> str:
    out = tmp_path / "-".join(argv).replace("--", "")
    assert main(["generate", *argv, "-o", str(out)]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def ledger_digest(tmp_path, capsys, stem: str, order_seed: int | None) -> str:
    assert main(["generate", *LEDGER_INPUTS[stem], "-o", str(tmp_path)]) == 0
    witness = tmp_path / f"{stem}.witness"
    if witness.exists():
        s_spec = str(witness)
    else:
        g = parse_graph((tmp_path / f"{stem}.graph").read_text())
        t = greedy_independent_t(g)
        s_spec = ",".join(str(v) for v in range(g.n) if v not in t)
    argv = ["check", "charge", str(tmp_path / f"{stem}.1pg"), "--S", s_spec, "--dump"]
    if order_seed is not None:
        argv += ["--order-seed", str(order_seed)]
    capsys.readouterr()
    assert main(argv) == 0
    return _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("argv", sorted(GENERATE), ids="-".join)
def test_generate_golden(tmp_path, capsys, argv):
    assert generate_digest(tmp_path, argv) == GENERATE[argv]


@pytest.mark.parametrize("key", sorted(CHARGE, key=str), ids=str)
def test_charge_ledger_golden(tmp_path, capsys, key):
    stem, order_seed = key
    assert ledger_digest(tmp_path, capsys, stem, order_seed) == CHARGE[key]
