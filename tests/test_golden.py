"""Byte-level regression gate on the colorer, the CLI, the walk helpers and
the discharging rules.

The hashes pin the exact bytes of `aecolor color` (coloring and trace
JSON) and `aecolor verify` on a fixed graph matrix, the cycle witnesses
and maximal bichromatic paths of seeded proper colorings that do contain
bichromatic cycles, the tier and coloring of each extension at palettes
Δ..Δ+3 (first fit T1, the distance-1 ball search T2 and the
whole-subgraph search T3), and the discharging rules' choices and
per-corner shares on wheel patches and the embedded corpus.  A change
that alters any of them changes observable output; it must not be
papered over by editing a hash.  The extension pins moved once, when T2
and T3 became exact searches; the hash of the T1 records alone was
pinned before that change and held through it.
"""

import functools
import hashlib
import itertools
import json
import random

import pytest

from aecolor.cli import main
from aecolor.colorer import ExtensionContext, extend_at_edge
from aecolor.coloring import find_bichromatic_cycle, maximal_bichromatic_path
from aecolor.discharge import (
    apply_discharging,
    classify_rule,
    initial_charges,
    vertex_transfers,
)
from aecolor.embedding import generate_apollonian, trace_faces
from aecolor.errors import AecolorError, ConfigurationPresentError
from aecolor.families import (
    cube,
    cycle_graph,
    dodecahedron,
    grid_graph,
    star_graph,
    wheel_graph,
)
from aecolor.graphs import format_edge_list
from aecolor.oracle import SearchBudget

from support import embedded_corpus, extension_cases, random_proper_coloring, wheel_patch


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_graph(name):
    kind, _, arg = name.partition(":")
    if kind == "apollonian":
        n, seed = arg.split("s")
        return generate_apollonian(int(n), int(seed))[0]
    if kind == "wheel":
        return wheel_graph(int(arg))
    if kind == "star":
        return star_graph(int(arg))
    rows, cols = arg.split("x")
    return grid_graph(int(rows), int(cols))


# name -> sha256 of (coloring JSON, trace JSON, verify JSON + exit code)
PIPELINE = {
    "apollonian:60s0": (
        "05e230bc0e245130f38997e99c0a06debc03e049fc8b194e5ab97e6e3a51bdc7",
        "91ceaa8a85cac73058439fce110a90506588dff132a8aadfb7d7b2f2028de088",
        "ebc161f51a7710c03b336f9e0d620f702ae916d1d738d2c78aa715caee1c91ff",
    ),
    "apollonian:60s1": (
        "c95faa8d14b66118873c40b6b96ec91df0ee29ec1cc1a4b3ec9a73ad315e1132",
        "25e8f079e232154718470cbb58cdac18e094d7dadbc3771c80e0c5fd18ed8501",
        "fb8c65391a71c819cf7c8ed1ccf232fbe98f62d5b6f685c17b2d952eff1f42b9",
    ),
    "apollonian:60s2": (
        "4df278fad44c710176238918a0b31e65074d5a09999149607dbb076ceeede438",
        "ffc74510eb5a318541296c7cdb74f191f874c3c1158b11aa1b17a60cdcd8e8d9",
        "74aeb69ee8159b4b52bbcfc5fae790b68a868b4e49afe741e30035ed9aad9dc2",
    ),
    "apollonian:300s0": (
        "f26ba6c0b450dbdb83f7f9c63295d3322802c22a201ed5e02ca1666a7d07cfb3",
        "bf265d2d6e4145516e09d4486ca2e6a1d9fec02640276f2db51ff6a534c33496",
        "19e07dc3621f2c7cb99541afa07043d49a25a2edbd523bdf9d8ae4247e4bd39e",
    ),
    "apollonian:300s1": (
        "a1832b0696c48c9efc1a653fad0e173ba60795c3156dcd9c609d208ff8058b79",
        "b9950883f42bb7ec5f47899eef9bfdb741d1ed9b98241a94833247e72dd4f23d",
        "df4fb95b89634e64fbc2bfdde2194adb52b783a955fcdced75ee3030c25d9e0a",
    ),
    "apollonian:300s2": (
        "e37e116af818a3643c66c76d148856fb5948030cb054be661ad321cebe47fec4",
        "61dee79b7ae72ad95f602b44299d4c05f23d26fa0bccb813ffb58409ba15e08e",
        "6e33e36c4e84ee95f7b792cbaea73f8c063b9334ac80b8ba27d1e72ca2099f32",
    ),
    "apollonian:1000s0": (
        "8e36a8b207405d1b7bd59311810e8ef9c309c9ded4a460be3be55bac91091612",
        "ae35559b48065ee640935adbbec0fafa9f1085eb326add58b0d834ce0f6ef026",
        "99c5b45dd3ecb0ef28b430735e4d960da02bb6b162eb6b89598c27ea36d5c83f",
    ),
    "apollonian:1000s1": (
        "f64ef3060bd58134414568214b9e515dcd1abf4f3334bcebb066c7a1ebaaf609",
        "064267fb06e059a76c27ad0a3d604b1c1873bfe903cfedd68fa47e6d8415506a",
        "07cfafc8d64811d7d8bd44fd68e2f3dd35a5aa13a504d657ed86b68e89de9c33",
    ),
    "apollonian:1000s2": (
        "b7105e824871a112eaed3915c7fa95e7d7b9aa913cac3cf2b77dbd71fd55355a",
        "051d9c282fa714fd632bd8553955d3c32f35cfd2c9d5741446846595ec82f141",
        "40cf768d4938a050ccc11941292f7c9b8cebfbcddc619d11aac5a84e2f105658",
    ),
    "wheel:200": (
        "a5623ab775164a4138777b04bd6d65e38f54383e497ec1a96712f6cea882f837",
        "cb3da2ee86cc746094ee7fe80b77793946daabf29ce59d9d60b7e44b83e6f491",
        "a88f6bd3bbb38fe8bb005af10019b2f3e69f465dca4d7d43c6cbb27e3c2af9df",
    ),
    "star:300": (
        "767e311189c3e45c8339233e9c70c216d8e6a800b6404c87585c1bb872098f6e",
        "953a70cec83dad481098ad0d27e4fa7b8624726517c5d1b0e98a6209be64b4f2",
        "fb736b45d6ec2498a0f515228bcdb436600c3d1c0210a328034845bdb0c175c1",
    ),
    "grid:12x12": (
        "3296198a9328f9316a0a1b7eb3ae693aca4195bcd5dd2d75803c7b59c374d130",
        "fb30cf56b442335fbd4eeff2e2b2ee347256466d68bbd6830911932ddbdb6104",
        "a69fde0461f4f8c26df1fada3fab2d1032889287e5009373adcbb42e883791c6",
    ),
}


@pytest.mark.parametrize("name", sorted(PIPELINE))
def test_cli_pipeline_bytes(name, tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(format_edge_list(pipeline_graph(name)))
    doc, trace, verdict = (tmp_path / f for f in ("c.json", "t.json", "v.json"))
    argv = ["color", "--in", str(src), "--out", str(doc), "--trace", str(trace)]
    assert main(argv) == 0
    code = main(["verify", "--in", str(doc), "--out", str(verdict)])
    capsys.readouterr()
    got = (
        sha(doc.read_bytes()),
        sha(trace.read_bytes()),
        sha(verdict.read_bytes() + f"exit {code}".encode()),
    )
    assert got == PIPELINE[name]


# (graph, palette size, rng seed) for greedy proper colorings that are
# allowed, and here chosen, to contain bichromatic cycles
WALK_CASES = [
    ("C4", 2, 0), ("C4", 3, 0), ("C4", 3, 1), ("C6", 2, 0), ("C6", 2, 5),
    ("C8", 2, 4), ("C8", 3, 0), ("C10", 2, 9), ("cube", 3, 2), ("cube", 3, 6),
    ("cube", 4, 0), ("cube", 4, 1), ("dodecahedron", 4, 1), ("W3", 3, 0),
    ("W3", 4, 4), ("W3", 3, 6), ("grid3x3", 4, 2), ("grid3x3", 4, 6),
    ("grid3x4", 4, 1), ("grid4x4", 4, 1),
]


def walk_graph(name):
    solids = {"cube": cube, "dodecahedron": dodecahedron}
    if name in solids:
        return solids[name]()[0]
    if name.startswith("grid"):
        rows, cols = name[4:].split("x")
        return grid_graph(int(rows), int(cols))
    if name.startswith("W"):
        return wheel_graph(int(name[1:]))
    return cycle_graph(int(name[1:]))


def walk_record(name, k, seed):
    g = walk_graph(name)
    phi = random_proper_coloring(g, k, random.Random(seed))
    assert phi is not None, "the case list names colorings that exist"
    cyc = find_bichromatic_cycle(g, phi)
    paths = []
    for v in g.vertices():
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                if a == b:
                    continue
                p = maximal_bichromatic_path(g, phi, v, a, b)
                paths.append(
                    None if p is None else [p.vertices, p.colors, p.edge_colors, p.cycle]
                )
    witness = None if cyc is None else [cyc.vertices, cyc.colors]
    return witness, paths


WALKS_SHA = "cdf1b51aa7bf39603526fac17fdce8dd679c359a114e888e77d21643ca6b0f19"


def test_walk_results_bytes():
    records = [walk_record(*case) for case in WALK_CASES]
    assert sum(w is not None for w, _ in records) >= 10
    assert sha(json.dumps(records).encode()) == WALKS_SHA


@functools.cache
def extension_records():
    # at palette Delta+10 only T1 ever fires, so the tiers are pinned on
    # searcher colorings of g - e at Delta..Delta+3, where they escalate
    out = []
    for name, g, k, e, phi in extension_cases():
        try:
            phi, tier = extend_at_edge(
                ExtensionContext(g, phi, *e),
                budget=SearchBudget(max_nodes=200_000),
            )
            result = [tier, [[u, v, c] for (u, v), c in phi.items()]]
        except AecolorError as exc:
            result = [type(exc).__name__, str(exc)]
        out.append([name, k, list(e), result])
    return out


# pinned before the ball search replaced the swap and move tiers, and
# unchanged by it: the first-fit extensions do not depend on the later tiers
EXTENSION_T1_SHA = "7fae62d61b1a32fe8b01a29a0f6c7ef647a1a5c139256b48e4116286a8e4aebf"
EXTENSION_SHA = "113bdcdb267a86b633af9263f432803ae41b401482aaeedf442588c462604b5b"
EXTENSION_TIERS = {"T1": 1205, "T2": 46, "T3": 11, "ExtensionFailed": 12}


def test_extension_t1_records_bytes():
    t1 = sorted(r for r in extension_records() if r[3][0] == "T1")
    assert sha(json.dumps(t1).encode()) == EXTENSION_T1_SHA


def test_extension_tiers_bytes():
    records = extension_records()
    tiers: dict = {}
    for *_, (tier, _) in records:
        tiers[tier] = tiers.get(tier, 0) + 1
    assert tiers == EXTENSION_TIERS
    assert sha(json.dumps(sorted(records)).encode()) == EXTENSION_SHA


def transfer_rows(transfers):
    return [[t.vertex, t.face, str(t.amount), t.rule] for t in transfers]


def discharge_records():
    # every ring of degrees 6..10 around a 4- or 5-hub crosses each A3/A4
    # cap on both sides; the embedded corpus adds whole discharging passes
    patches = []
    for d in (4, 5):
        for ring in itertools.product(range(6, 11), repeat=d):
            g, rot = wheel_patch(ring)
            faces = trace_faces(g, rot)
            bare, full = classify_rule(g, 0), classify_rule(g, 0, faces)
            try:
                out = transfer_rows(vertex_transfers(g, faces, 0))
            except ConfigurationPresentError as exc:
                out = ["ConfigurationPresentError", exc.vertex]
            patches.append(
                [list(ring), [bare.rule, bare.violation], [full.rule, full.violation], out]
            )
    passes = []
    for name, g, rot in embedded_corpus():
        faces = trace_faces(g, rot)
        rules = []
        for v in g.vertices():
            bare, full = classify_rule(g, v), classify_rule(g, v, faces)
            rules.append([bare.rule, full.rule, full.violation])
        try:
            ledger = apply_discharging(g, faces, initial_charges(g, faces))
            log = transfer_rows(ledger.transfers)
        except ConfigurationPresentError as exc:
            log = ["ConfigurationPresentError", exc.vertex]
        passes.append([name, rules, log])
    return patches, passes


DISCHARGE_SHA = "700e0afe0aa42248b7be270d09acc098757e6366454cb129c867296384bd1f4b"
DISCHARGE_RULES = {
    "R2a": 81,
    "R2b": 8,
    "R3.1": 1024,
    "R3.2": 405,
    "R3.3-adjacent": 120,
    "R3.3-split": 120,
    "violation": 1992,
}


def test_discharge_bytes():
    patches, passes = discharge_records()
    rules: dict = {}
    for _, _, (rule, violation), _ in patches:
        key = "violation" if violation else rule
        rules[key] = rules.get(key, 0) + 1
    assert rules == DISCHARGE_RULES
    assert sha(json.dumps([patches, passes]).encode()) == DISCHARGE_SHA
