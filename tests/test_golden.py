"""Golden digests: the CLI's generated files, charge ledgers, `solve`
outputs and deficiency/matching checks, byte for byte.

The generate and charge digests were computed before the local-surgery
rewrite of `embedding`, the solve and check digests before the per-delta
bound table and the single witness writer, the order-seed-11 and
greedy-S ledgers before the surgeries returned the faces they create,
and the manifest digests and the obs1/lemma5/lemma6 lines before the
validation report carried the faces; any drift in a generator, a
surgery, the PRNG, the face order, a bound or a text format changes one
of them.  To inspect a mismatch, rerun the failing command by hand and
diff its output against a checkout that still passes.
"""

from __future__ import annotations

import functools
import hashlib

import pytest
from conftest import greedy_independent_t

from oneplanar import bounds
from oneplanar.bounds import ChargeLedger, charging_run, write_ledger
from oneplanar.cli import main
from oneplanar.embedding import DUMMY, OnePlanarDrawing, _Builder, drawing_from_faces, parse_drawing, write_drawing
from oneplanar.generators import FAMILIES, family_delta3, family_delta5, family_delta6, family_delta7, random_oneplanar
from oneplanar.graph import parse_graph
from oneplanar.rng import SplitMix64

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
    # the largest hub families the generate benchmark builds
    ("delta5", "--g", "100"): "fc5d930f42ff2db6aa2737a426155d048e8c0bfb75ba2e8abf5fc96e4c1950b0",
    ("delta6", "--g", "60"): "5a28c395d847dfd397e139743c0cd00782e33b950e5494fed77fba569664e9ae",
    ("delta7", "--g", "20"): "f2497cd2fc673aa3651d05233159b12c28395cabc13f67c84f2b58f2662f394e",
    # the largest surgery-built instances it builds, pinned before the
    # crossed-edge insertion reused its two side walks
    ("delta3", "--s", "10"): "2781b9528d99314fb8a55b551ade6f923faf2e9832ced1f5a55274d3561420a1",
    ("delta4", "--s", "22"): "8c163efdf8f1f391db750ab422996656e4f1abbb24594ab25c6f8132faa50232",
    ("delta4-k5", "--k", "18"): "8c86159f8c8289a4ae27dde24493a36321484e7e879b6969ed8364017fc3e144",
    ("random", "--n", "40", "--x", "7", "--seed", "1"): "1909f5ca9da4cdbcc33c943b8fb1a4987d78d64972211ff0db9ab47958d51299",
    ("random", "--n", "12", "--x", "3", "--seed", "1"): "d9831ede584a6dd275e5635b5cf5425206ec37a074eb3d16fdd20e187c0a82bc",
    ("random", "--n", "16", "--x", "4", "--seed", "2"): "d8d5c1d171434b1eedad05662d6b8805fc310548a7eaad48579eab689e138b8d",
    ("random", "--n", "20", "--x", "5", "--seed", "3"): "b410e075dc17a270cfce4edeef976c04b5c947a58ae3d81e2ad3fc6a818bc79e",
}

# stem -> generate argv of every solve, check and ledger input
INPUTS = {
    "delta3-s4": ("delta3", "--s", "4"),
    "delta3-s6": ("delta3", "--s", "6"),
    "delta3-s7": ("delta3", "--s", "7"),
    "delta4-s8": ("delta4", "--s", "8"),
    "delta5-g2": ("delta5", "--g", "2"),
    "delta5-g4": ("delta5", "--g", "4"),
    "random-n16-x3-seed5": ("random", "--n", "16", "--x", "3", "--seed", "5"),
}
# (stem, order seed) -> digest of `check charge --dump`; S is the family
# witness file, or for the random drawing the complement of its greedy
# independent T, as a csv
CHARGE = {
    ("delta3-s6", None): "36ffc0020d9271bda14b99f5ac15fc4ee59f21ddd21a1c23d87515bc599509b3",
    ("delta3-s6", 7): "36ffc0020d9271bda14b99f5ac15fc4ee59f21ddd21a1c23d87515bc599509b3",
    ("random-n16-x3-seed5", None): "b10764bdf6ed5c079494815e237f5400b3cd004ad7757659094ba74e70b4b312",
    ("random-n16-x3-seed5", 7): "4bb6beda2e69ae9a00aada6bc147937152150b09c52c3717adb042103a085292",
    ("random-n16-x3-seed5", 11): "f31a3cc2d32064bfbd1b4894519f2aa66c1e2df44c0c79174edff954fdfcaced",
}
# the same with S the complement of the greedy independent T even where a
# witness file exists: then step 1 adds 18 chords and step 2 four
# auxiliary vertices, and each order gives a different ledger
CHARGE_GREEDY_S = {
    ("delta3-s7", None): "a404e34e569736c162bd20afc694ee9bc8db3189753f7b690af0bc1985cc85e8",
    ("delta3-s7", 7): "595d05a3674aeef09a3aa3e74ae82e2650587d625939a013382f0345645ac294",
    ("delta3-s7", 11): "05c0829c4c661998ff9a641e68667f88e7f474d067aa29f3c5fdf4eed08a6348",
}

# (stem, mode) -> digest of `solve <stem>.graph --mode <mode>` stdout
SOLVE = {
    ("delta3-s4", "matching"): "596a59b7245791da73ef154f0731309f342323ecfffd8126fc1d7ce91a2529a9",
    ("delta3-s4", "oracle"): "91e7e5299fb1285ac927f1beea04cb14a2f9ce83f9cdfaecc18ed6bbdbe4af03",
    ("delta3-s4", "duality"): "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6",
    ("delta5-g2", "matching"): "c80bd916dc33210f32450c4673b7852218ff5e1c41b4c8b1028418050a0f5154",
    ("delta5-g2", "oracle"): "3d27d063551ce863bdbe2b578a2e7fe6303dce1edfd2b6df433bdc234c17fca7",
    ("delta5-g2", "duality"): "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6",
}
# (check, stem, extra argv) -> digest of the exit code and stdout of
# `check <check> <stem>.graph --provenance <stem>.1pg [--S <stem>.witness]`
CHECK = {
    ("lemma7", "delta3-s4", "--delta", "3"): "d52713f4c6bc04c0e147a1eae77a623232eb02b9bd22b570ac83df05b9a7b2b5",
    ("lemma7", "delta4-s8", "--delta", "4"): "9253c17447d2ab60951bf841b0d3dd3d0dfefae68e5a45b73175ef96e6cbe006",
    ("lemma8", "delta5-g4"): "dda2f414a61de03e906805842032fb43704bb323104833026bbcac28170f7e1c",
    ("theorem1", "delta3-s4", "--delta", "3"): "2ff61629b1507f1f971f84b27c7dcaeb3ca25a894c4f68de04ae3c553eac81f8",
    ("theorem1", "delta4-s8", "--delta", "4"): "4d7bef7bd4a4ccf6aed4fde6be96027dcec443157942362e3ed01099a5b29977",
    ("theorem1", "delta4-s8", "--delta", "3"): "703b9d0cf2747e01ea16a2cc6d72cd4d7d8727864cb37164633a4087364cdabc",
    ("theorem1", "delta5-g4", "--delta", "5"): "7d7ebad635bb2e6281642147dd1fee15bf6b553ef19271bac7faa9a25d701722",
    ("theorem1", "delta5-g2", "--delta", "5"): "7b329205480d0896907367049e7ab7379a96a6bf8e4c55370adcc87758825575",
}

# generate argv -> digest of the `--manifest` JSON bytes, written from the
# working directory with `-o g`, so that every recorded path is relative
MANIFEST = {
    ("delta3", "--s", "5"): "45f3f85010641735918eeb6a71b1ad76060ab2784191f24a6da8f4ed9aabbe2f",
    ("random", "--n", "14", "--x", "2", "--seed", "4"): "5a304971ee999d475282c0fa07f6fab7ac67bd8b81cc41b75cc07620ff166820",
}

# (drawing, check argv) -> (exit code, stdout) of `check <argv>` on the
# drawing written as a .1pg: the hexagon (two faces), or the delta7 g=1 block
HEXAGON = [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]
CHECK_LINES = {
    ("hexagon", "obs1"): (0, "lhs=6 rhs=8 holds\n"),
    ("hexagon", "obs1", "--side0", "0,1,2"): (3, ""),
    ("delta7-g1", "lemma5", "--T", "0"): (0, "lhs=15 rhs=252 holds\n"),
    ("delta7-g1", "lemma6", "--T", "0"): (0, "lhs=21 rhs=252 holds\n"),
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


def ledger_digest(
    tmp_path, capsys, stem: str, order_seed: int | None, greedy_s: bool = False
) -> str:
    assert main(["generate", *INPUTS[stem], "-o", str(tmp_path)]) == 0
    witness = tmp_path / f"{stem}.witness"
    if witness.exists() and not greedy_s:
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


def ledger_drawings_digest(ledger: ChargeLedger) -> str:
    """sha256 over the `1pg` texts of a ledger's base, gamma_prime and final
    drawings, each followed by a NUL."""
    h = hashlib.sha256()
    for d in (ledger.base, ledger.gamma_prime, ledger.final):
        h.update(write_drawing(d).encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(CHARGE, key=str), ids=str)
def test_charge_ledger_golden(tmp_path, capsys, key):
    stem, order_seed = key
    assert ledger_digest(tmp_path, capsys, stem, order_seed) == CHARGE[key]


@pytest.mark.parametrize("key", sorted(CHARGE_GREEDY_S, key=str), ids=str)
def test_charge_ledger_greedy_s_golden(tmp_path, capsys, key):
    stem, order_seed = key
    digest = ledger_digest(tmp_path, capsys, stem, order_seed, greedy_s=True)
    assert digest == CHARGE_GREEDY_S[key]


# (stem, order seed, S from the greedy T) -> `ledger_drawings_digest` of the
# ledger behind each `check charge` digest above; the drawings' texts pin the
# builder's renumbering of segments after a deletion, which the ledger dump
# does not show
CHARGE_DRAWINGS = {
    ('delta3-s6', 7, False): "b26e97ff104221094ba378fb97974bd687cd563ea565fa3798b1351fda247432",
    ('delta3-s6', None, False): "b26e97ff104221094ba378fb97974bd687cd563ea565fa3798b1351fda247432",
    ('delta3-s7', 11, True): "afeec2585d873660b79d1a9a030a5b9ea5012a1dacd6fc98beb57cf9d23e1bf7",
    ('delta3-s7', 7, True): "53c17697d4122921613fe9c1180478413672ccb69ebc3efe91a8a7284aff5804",
    ('delta3-s7', None, True): "a652b5c57509857b2aa5c677b6e35e863642937b8ab2da4d6b3a2d55bfebd443",
    ('random-n16-x3-seed5', 11, False): "a70a245b68e3f7978885299e67f92f60935039eabdb3c9b152636c8bf5b0b9ab",
    ('random-n16-x3-seed5', 7, False): "c49d95b6ceccd59842be3ea6e0912949a3a40638b1216917b205d11ab80ca94f",
    ('random-n16-x3-seed5', None, False): "a35bb9fd5d86ab14aebe8399a9c1e6959ad6b1943c2c7238c210177feea00575",
}


@pytest.mark.parametrize("key", sorted(CHARGE_DRAWINGS, key=str), ids=str)
def test_charge_ledger_drawings_golden(tmp_path, capsys, monkeypatch, key):
    stem, order_seed, greedy_s = key
    ledgers = []
    run = bounds.charging_run
    monkeypatch.setattr(bounds, "charging_run", lambda *args, **kw: ledgers.append(run(*args, **kw)) or ledgers[-1])
    ledger_digest(tmp_path, capsys, stem, order_seed, greedy_s)
    (ledger,) = ledgers
    assert ledger_drawings_digest(ledger) == CHARGE_DRAWINGS[key]


def solve_digest(tmp_path, capsys, stem: str, mode: str) -> str:
    assert main(["generate", *INPUTS[stem], "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(tmp_path / f"{stem}.graph"), "--mode", mode]) == 0
    return _sha(capsys.readouterr().out.encode())


def check_digest(tmp_path, capsys, what: str, stem: str, extra: tuple[str, ...]) -> str:
    assert main(["generate", *INPUTS[stem], "-o", str(tmp_path)]) == 0
    argv = ["check", what, str(tmp_path / f"{stem}.graph"), *extra,
            "--provenance", str(tmp_path / f"{stem}.1pg")]
    if what != "theorem1":
        argv += ["--S", str(tmp_path / f"{stem}.witness")]
    capsys.readouterr()
    code = main(argv)
    return _sha(f"{code}\n".encode() + capsys.readouterr().out.encode())


@pytest.mark.parametrize("key", sorted(SOLVE), ids="-".join)
def test_solve_golden(tmp_path, capsys, key):
    assert solve_digest(tmp_path, capsys, *key) == SOLVE[key]


@pytest.mark.parametrize("key", sorted(CHECK), ids="-".join)
def test_check_golden(tmp_path, capsys, key):
    what, stem, *extra = key
    assert check_digest(tmp_path, capsys, what, stem, tuple(extra)) == CHECK[key]


@pytest.mark.parametrize("argv", sorted(MANIFEST), ids="-".join)
def test_generate_manifest_golden(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", *argv, "-o", "g", "--manifest", "m.json"]) == 0
    assert _sha((tmp_path / "m.json").read_bytes()) == MANIFEST[argv]


@pytest.mark.parametrize("key", sorted(CHECK_LINES), ids="-".join)
def test_check_lines_golden(tmp_path, capsys, key):
    stem, what, *extra = key
    if stem == "hexagon":
        (tmp_path / "hexagon.1pg").write_text(write_drawing(drawing_from_faces(6, HEXAGON)))
    else:
        assert main(["generate", "delta7", "--g", "1", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["check", what, str(tmp_path / f"{stem}.1pg"), *extra])
    assert (code, capsys.readouterr().out) == CHECK_LINES[key]


# In-process charging runs, larger than the CLI ledgers above: input ->
# {order seed: (sha256 of write_ledger, SplitMix64.next_u64 calls)},
# pinned before the charging engine kept one record per face.  The
# delta3 inputs take S from the family witness; the random drawings are
# random_oneplanar(n, 3n/16, seed) with T the greedy independent set.
# The draw count catches draws added or lost after the last chord, which
# the ledger cannot show.
CHARGING_RUNS = {
    ("delta3", 12): {
        None: ("89edaf62f13729d3f700b4d1deeb32063ed7d119eb55ea0f923dd1a104dd3868", 0),
        7: ("89edaf62f13729d3f700b4d1deeb32063ed7d119eb55ea0f923dd1a104dd3868", 169),
        11: ("89edaf62f13729d3f700b4d1deeb32063ed7d119eb55ea0f923dd1a104dd3868", 169),
        123: ("89edaf62f13729d3f700b4d1deeb32063ed7d119eb55ea0f923dd1a104dd3868", 169),
    },
    ("delta3", 24): {
        None: ("92f7954dc918254945e0c4c4709d596b9d1d405c8657504a0e1441bb2d5e55b0", 0),
        7: ("92f7954dc918254945e0c4c4709d596b9d1d405c8657504a0e1441bb2d5e55b0", 373),
        11: ("92f7954dc918254945e0c4c4709d596b9d1d405c8657504a0e1441bb2d5e55b0", 373),
        123: ("92f7954dc918254945e0c4c4709d596b9d1d405c8657504a0e1441bb2d5e55b0", 373),
    },
    ("delta3", 48): {
        None: ("b553d9e5870b6c324211f08887e85bb359e33a8344a78718807e01588fed030e", 0),
        7: ("b553d9e5870b6c324211f08887e85bb359e33a8344a78718807e01588fed030e", 781),
        11: ("b553d9e5870b6c324211f08887e85bb359e33a8344a78718807e01588fed030e", 781),
        123: ("b553d9e5870b6c324211f08887e85bb359e33a8344a78718807e01588fed030e", 781),
    },
    ("random", 40, 1): {
        None: ("e7f0418c3059e5a11f3bd442a88dd9a73345b5323dae0768cdc67606b8da4ebf", 0),
        7: ("5518bb8abbc7fb0cb66e8c990e5f2fed502ab835a2ed7e81f2f3294f0b8e4740", 1845),
        11: ("02e4ace2e3262e4a02f8ae8f7f4e9dfb607e1749d6a984873d3aedb67be71fff", 1633),
        123: ("f6620514ed52b50a2bddf566a08a94bcdbf444bc60453d2a5cf151322722cc03", 1619),
    },
    ("random", 40, 2): {
        None: ("1d52ec061168236cb303d90ac37c84873deef287eb43743596a1d7325bf59788", 0),
        7: ("386b749049b024c6daf2c1ce43a22a811088327fcf75a6a3aa465d345f69bdd6", 1664),
        11: ("548609758259c5a406ba0c8c68861375fb66b4585d21a6548ea6eb7deccb7b80", 1663),
        123: ("7ca5284373975734e8df603284cf3415b7fd15795005fbca2a2dce88e025eaa3", 1723),
    },
    ("random", 137, 1): {
        None: ("01c1ca0b0a75565b78fe3aa812f6dd30c3b947c8bc55d7096a41cc940c6fd580", 0),
        7: ("4cef9658866aa73a19ef0857de52d400e4feea64fbf35e23772a26d798201064", 15558),
        11: ("3c1edc62bba36b9a83948f97d4a6eed8e55cd7f9d95786f75fddc7e94240f300", 15660),
        123: ("1fecf92799c1aaafcab6ba9232bcf21010bf690e2fa141f3a004d3e6985a9895", 15564),
    },
    ("random", 137, 2): {
        None: ("d19a4d826a25e98c9038d8992e5148386cf3bf5ed16a5b1d6445c06697d76ed1", 0),
        7: ("6babfd09c0e1366c557871a451acbd8f8e9b5e528786eb148033c65fdbd86d0f", 16048),
        11: ("c0c755afdd6ec0489683465a61cc5ca2b6f8025b0ee464467b04eb2daf8dc831", 16001),
        123: ("940bc6c3fa476726db364df699f1cb95b4d81eaead89fd8c3b8f76ba28bf09fd", 15577),
    },
    ("random", 275, 1): {
        None: ("473db2d5924178073f14c49af4cda1baa17a08c275e6e7795a74e3551f38ea49", 0),
        7: ("73fc77a102fb5db6ff8418e8129c9bcf44e085dad035dcbf1537b45c94d677e9", 64256),
        11: ("b68cb8b7baae56d24aebd05f2fd717d28986a7962995885efe8ade1c2123c5b4", 62513),
        123: ("a31ef0fc34837bf368b88441734872f7af6e38c713048ee9608f4013d9b310e1", 63980),
    },
    ("random", 275, 2): {
        None: ("8f5afc193c4037f4b93d01012c677c4bff6cd46e18fde44321c25211f9f75240", 0),
        7: ("b77a6ca8c514b4b47b01ecb07bea68d784e9fc520bab32ba7cb651a3e01b9eee", 58203),
        11: ("90584fcb3ca301e2a77d4c00632e91778675b4138e261378950570da59d2649f", 61023),
        123: ("9adee5d848a3b62ebbec346610443e777d9e7c30e376cf0132e6181d586bb7b8", 60805),
    },
}
ORDER_SEEDS = (None, 7, 11, 123)


def charging_input(key: tuple) -> tuple[OnePlanarDrawing, frozenset[int]]:
    """A drawing and its S; T is the rest."""
    if key[0] == "delta3":
        inst = family_delta3(key[1])
        return inst.drawing, inst.witness
    _, n, seed = key
    d = random_oneplanar(n, 3 * n // 16, seed)
    return d, frozenset(range(d.n_real)) - greedy_independent_t(d.graph)


def charging_digest(monkeypatch, key: tuple, order_seed: int | None) -> tuple[str, int]:
    d, s = charging_input(key)
    draws = 0
    next_u64 = SplitMix64.next_u64

    def counted(self):
        nonlocal draws
        draws += 1
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    ledger = charging_run(d, s, order_seed=order_seed)
    return _sha(write_ledger(ledger).encode()), draws


@pytest.mark.parametrize("key", sorted(CHARGING_RUNS, key=str), ids=lambda k: "-".join(map(str, k)))
def test_charging_run_golden(monkeypatch, key):
    got = {seed: charging_digest(monkeypatch, key, seed) for seed in ORDER_SEEDS}
    assert got == CHARGING_RUNS[key]


# input -> {order seed: `ledger_drawings_digest`} of the charging runs above
CHARGING_RUN_DRAWINGS = {
    ('delta3', 12): {
        None: "4f0acee388c31be9644ef3a2acd80a84b8bbd8e637248cafd6c24ab1fae407c1",
        7: "4f0acee388c31be9644ef3a2acd80a84b8bbd8e637248cafd6c24ab1fae407c1",
        11: "4f0acee388c31be9644ef3a2acd80a84b8bbd8e637248cafd6c24ab1fae407c1",
        123: "4f0acee388c31be9644ef3a2acd80a84b8bbd8e637248cafd6c24ab1fae407c1",
    },
    ('delta3', 24): {
        None: "34c8f2579b1f20ecee643071078bc50f3832b29d15fc5614e918c412f127ce30",
        7: "34c8f2579b1f20ecee643071078bc50f3832b29d15fc5614e918c412f127ce30",
        11: "34c8f2579b1f20ecee643071078bc50f3832b29d15fc5614e918c412f127ce30",
        123: "34c8f2579b1f20ecee643071078bc50f3832b29d15fc5614e918c412f127ce30",
    },
    ('delta3', 48): {
        None: "6d33033440e53c6b50fd20ffb75d6c1b572fb11023ea32fd2ebe3bad26730068",
        7: "6d33033440e53c6b50fd20ffb75d6c1b572fb11023ea32fd2ebe3bad26730068",
        11: "6d33033440e53c6b50fd20ffb75d6c1b572fb11023ea32fd2ebe3bad26730068",
        123: "6d33033440e53c6b50fd20ffb75d6c1b572fb11023ea32fd2ebe3bad26730068",
    },
    ('random', 137, 1): {
        None: "e61487550edc638a66dfc3bfa09dd64fc61606923ce461552406bbc7f180c26c",
        7: "e8764e9304ecdfd311a7192efaef09922e9762d71e4dbc25b1e6cd5f0716d714",
        11: "44b4fbb998a729f0d222120eef2d65e3c4a56cb5508acfb8957a72fc80bcaf5a",
        123: "25faf6f69e4221c9c5caaabdc6eb3e3747f7d97b532e069c42a46117d2651af0",
    },
    ('random', 137, 2): {
        None: "c99fc2966b327c6c7a8f8928ada4db6118bd361afbfcf995a4fdb17573476154",
        7: "c37a6dbceb61c730e55e68204430ac4262d4649ce8eae6d0f49db83b0d43013d",
        11: "bc88898c404a502bafc5caea84aacbdcbdd4e99e795ce05089c4b355440b90ce",
        123: "a4df0a784835f35b797dd277e812cfb029bea89bcf052f9712cde8f6d55df07f",
    },
    ('random', 275, 1): {
        None: "52544d0aed88551caeb86a04f93f3678dd11a49661505ac420399b7df0a6f91d",
        7: "40b341e71d6deaf37e319b1a0ffbeb79e86c54f74f185ff3144271791c19cb08",
        11: "a85c23b8bc2d6846ab4805df173095873c973d8b4a625ec034d70475f0e1f2b0",
        123: "63b43fc7d321a4e88d82c7377c899b174aab7ae33f7995327a5e8eab9d465f6f",
    },
    ('random', 275, 2): {
        None: "9b762fbb04ce6ba019a5e45620ba3c5b62645f9e7f09ce78ddd0ebeb1282c65f",
        7: "92e8f48f0e0f3c2726ee438132c763b4f4a93d5b330be04f8cac9e1c8741f5f3",
        11: "2ef1be5f37b4aedafc59d630f485d45daf49f919c954a62a72bdcdcf447ec8af",
        123: "d404958d930250b21fc627f600255be6d7adf7e60a089f2350e36deaedc48610",
    },
    ('random', 40, 1): {
        None: "33340f5ce6208e620b718712bb303ee6ca002d8f498d6267d1c637c4a606584a",
        7: "61129cb06b0225e1b6db8ff8f7cec8db971e11679914a39f183e8371e2f46127",
        11: "a3e5c6c163bcb266383de1e265fe7b70c1df23e3af8b8c883d7bc28b95d3460c",
        123: "6ce6b7ead69c3b8cb72a2763cea8057925ed35ab5f5e50c1645a1062ac066e34",
    },
    ('random', 40, 2): {
        None: "1847e6cb0208b708362e22d9e2c7846ecaa69f23cdc7cb0c967d3674ae7921de",
        7: "9f88195accdc592ef392263a9f077855f8fdf6dd65c11c91fcf59eb4403aa6d0",
        11: "3301e60a81b5d36cd4eebaf9c93793817ffdaeaf19a98c0603f55b02389f343c",
        123: "bde4e3305faff07745d3ed41f121d5379ac848d9009eef3dfe063912855b94d0",
    },
}


@pytest.mark.parametrize("key", sorted(CHARGING_RUN_DRAWINGS, key=str), ids=lambda k: "-".join(map(str, k)))
def test_charging_run_drawings_golden(key):
    d, s = charging_input(key)
    got = {seed: ledger_drawings_digest(charging_run(d, s, order_seed=seed)) for seed in ORDER_SEEDS}
    assert got == CHARGING_RUN_DRAWINGS[key]


# (n, crossings, seed) of a random drawing -> sha256 of its `1pg` text after
# deleting its uncrossed edges of even id.  Every crossing stays, so the
# builder renumbers the segments of each crossed edge, part 0 first, also
# where the edge was built part 1 first, which no charging run above keeps.
DELETIONS = {
    (12, 3, 1): "e3e157489799e465322e669d86e2dfd89cde12aa01da0fc92323c561a7d1906d",
    (40, 7, 1): "3c8c6733fa7f5a076716433cd143febd83e0b6e98a7db70435bbe52a328e49a0",
}


def deleted(key: tuple[int, int, int]) -> OnePlanarDrawing:
    d = random_oneplanar(*key)
    work = _Builder(d)
    work.delete_edges([eid for eid in range(0, len(d.edges), 2) if eid not in d.crossed_eids])
    return work.freeze()


@pytest.mark.parametrize("key", sorted(DELETIONS), ids=lambda k: "-".join(map(str, k)))
def test_delete_edges_golden(key):
    assert _sha(write_drawing(deleted(key)).encode()) == DELETIONS[key]


# drawing name -> maker, for the part oracle: every family at two sizes, 20
# seeded random drawings, the final drawings of the charging runs above
# (which carry parallel chords) and the deletion drawings
PART_DRAWINGS = {
    **{f"{name}-{size}": (lambda fn=fn, size=size: fn(size).drawing)
       for name, (fn, pname) in FAMILIES.items()
       for size in ((4, 8) if pname == "s" else (1, 3))},
    **{f"random-{seed}": (lambda seed=seed: random_oneplanar(8 + seed, seed % 5, seed)) for seed in range(20)},
    **{"final-" + "-".join(map(str, key)): (lambda key=key: charging_run(*charging_input(key), order_seed=7).final)
       for key in CHARGING_RUN_DRAWINGS},
    **{"deleted-" + "-".join(map(str, key)): functools.partial(deleted, key) for key in DELETIONS},
}


def seg_part(d, sid):
    """1 for the half of a crossed edge at the edge's larger endpoint, else 0."""
    ends = d.pvertices[d.org[2 * sid]], d.pvertices[d.org[2 * sid + 1]]
    return int(DUMMY in ends and d.edges[d.seg_eid[sid]][1] in ends)


@pytest.mark.parametrize("name", sorted(PART_DRAWINGS))
def test_written_parts_match_seg_part(name):
    # the writer takes every part from `_parts`, one pass over the dummies;
    # this oracle derives each from its segment's ends
    d = PART_DRAWINGS[name]()
    seg = [ln.split() for ln in write_drawing(d).splitlines() if ln.startswith("seg ")]
    assert [(int(r[1]), int(r[5])) for r in seg] == [(sid, seg_part(d, sid)) for sid in range(d.m_p)]


# the largest hub families the generate benchmark builds
@pytest.mark.parametrize("make, g", [(family_delta5, 100), (family_delta6, 60), (family_delta7, 20)],
                         ids=["delta5-g100", "delta6-g60", "delta7-g20"])
def test_largest_hub_drawings_round_trip(make, g):
    text = write_drawing(make(g).drawing)
    assert write_drawing(parse_drawing(text)) == text
