"""Acceptance suite.

One test per shipped guarantee, each emitting a single PASS/FAIL line on
the real stdout so the run can be audited from the pytest log alone.
Timing-sensitive checks state their budget in the emitted line.
"""

import io
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from support import (
    all_proper_colorings,
    all_trees,
    random_proper_coloring,
    wheel_patch,
)

from aecolor.cli import main
from aecolor.colorer import acolor, replay_trace
from aecolor.coloring import (
    exists_critical_path,
    find_bichromatic_cycle,
    maximal_bichromatic_path,
    validate_acyclic,
)
from aecolor.discharge import apply_discharging, initial_charges, vertex_transfers
from aecolor.embedding import generate_apollonian, trace_faces
from aecolor.families import complete_graph, cycle_graph, star_graph
from aecolor.graphs import format_edge_list
from aecolor.oracle import (
    bichromatic_cycle_exists_brute,
    enumerate_cycles,
    exact_chi_a,
)
from aecolor.scanner import find_configuration


@pytest.fixture()
def report(request):
    """One PASS/FAIL line per criterion, written through the terminal
    reporter so it survives output capture."""
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
        if tr is not None:
            tr.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)
        assert ok, line

    return _report


def test_1_coloring_bound_on_corpus(corpus, report):
    budget = 60.0
    bad = []
    t0 = time.perf_counter()
    for name, g in corpus:
        phi, _ = acolor(g)
        rep = validate_acyclic(g, phi)
        if not (rep.ok and rep.max_color <= g.max_degree() + 10):
            bad.append(name)
    elapsed = time.perf_counter() - t0
    ok = not bad and len(corpus) >= 500 and elapsed < budget
    report(
        1,
        "max degree + 10 bound",
        ok,
        f"{len(corpus)} graphs, {len(bad)} failures, {elapsed:.1f}s of {budget:.0f}s",
    )


def test_2_oracle_exact_values(report):
    per_call = 5.0
    cases = []
    for n in range(3, 9):
        cases.append((f"C{n}", cycle_graph(n), 3))
    cases.append(("K4", complete_graph(4), 5))
    for i, t in enumerate(all_trees(11)):  # every tree with at most 10 edges
        cases.append((f"tree{i}", t, t.max_degree() if t.m else 0))
    for n in range(1, 9):
        cases.append((f"star{n}", star_graph(n), n))
    bad, worst = [], 0.0
    for name, g, want in cases:
        t0 = time.perf_counter()
        got = exact_chi_a(g)
        worst = max(worst, time.perf_counter() - t0)
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    ok = not bad and worst < per_call
    report(
        2,
        "exact index oracle",
        ok,
        f"{len(cases)} values, {len(bad)} wrong, worst call {worst * 1000:.0f}ms of {per_call:.0f}s",
    )


def test_3_oracle_sandwich(corpus, report):
    bad = []
    checked = 0
    for name, g in corpus:
        if g.m > 10:
            continue
        lo = g.max_degree()
        chi = exact_chi_a(g)
        phi, _ = acolor(g)
        used = validate_acyclic(g, phi).max_color
        if not (lo <= chi <= used <= lo + 10):
            bad.append(f"{name}: {lo},{chi},{used}")
        checked += 1
    report(
        3,
        "degree <= exact <= constructed <= degree + 10",
        not bad,
        f"{checked} graphs with <= 10 edges, {len(bad)} out of order",
    )


def test_4_configuration_coverage(corpus, report):
    limit = 0.050
    misses = []
    for name, g in corpus:
        try:
            find_configuration(g)
        except Exception:
            misses.append(name)
    big, _ = generate_apollonian(2000, seed=0)
    best = min(
        (lambda t0: (find_configuration(big), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    ok = not misses and best < limit
    report(
        4,
        "reducible configuration always found",
        ok,
        f"{len(corpus)} corpus graphs + n=2000 triangulation, "
        f"{len(misses)} misses, scan {best * 1000:.2f}ms of {limit * 1000:.0f}ms",
    )


def test_5_charge_arithmetic(embedded, report):
    problems = []
    for name, g, rot in embedded:
        total = initial_charges(g, trace_faces(g, rot)).total()
        if total != Fraction(-12):
            problems.append(f"{name}: total {total}")

    # hub identities: each rule empties its hub charge to an exact zero
    rings = {
        "R2a": (8, 8, 8, 8),
        "R2b": (5, 10, 10, 10),
        "R3.1": (7,) * 5,
        "R3.2": (6, 8, 8, 8, 8),
        "R3.3-adjacent": (6, 7, 9, 9, 9),
        "R3.3-split": (6, 9, 7, 9, 9),
    }
    for rule, ring in rings.items():
        g, rot = wheel_patch(ring)
        out = sum(
            (t.amount for t in vertex_transfers(g, trace_faces(g, rot), 0)),
            Fraction(0),
        )
        if Fraction(2 * len(ring) - 6) - out != 0:
            problems.append(f"{rule}: residual {Fraction(2 * len(ring) - 6) - out}")

    # whole-graph runs conserve the total transfer by transfer
    conserved = 0
    for ring in rings.values():
        if ring == (5, 10, 10, 10):
            continue  # its ring holds a low-degree pattern, the run refuses
        g, rot = wheel_patch(ring)
        faces = trace_faces(g, rot)
        before = initial_charges(g, faces)
        after = apply_discharging(g, faces, before)
        if after.total() != before.total():
            problems.append(f"conservation broke on ring {ring}")
        conserved += 1
    report(
        5,
        "exact charge arithmetic",
        not problems,
        f"{len(embedded)} embeddings at -12, 6 hub identities zero, "
        f"{conserved} conserving runs; {len(problems)} problems",
    )


def test_6_cycle_kernel_agreement(corpus, report):
    rng = random.Random(20260819)
    disagreements = []

    exhaustive = 0
    for name, g in corpus:
        if g.m > 8:
            continue
        cycles = enumerate_cycles(g)
        for phi in all_proper_colorings(g, 3):
            want = bichromatic_cycle_exists_brute(g, dict(phi.items()), cycles)
            got = find_bichromatic_cycle(g, phi) is not None
            if want != got:
                disagreements.append(name)
            exhaustive += 1

    pool = [
        (name, g)
        for name, g in corpus
        if 1 <= g.m <= 20 and g.max_degree() <= 5
    ]
    cycles_of: dict[str, list] = {}  # the brute enumeration, once per pool graph
    randomized = 0
    while randomized < 10_000:
        name, g = pool[rng.randrange(len(pool))]
        phi = random_proper_coloring(g, rng.randint(max(2, g.max_degree()), 5), rng)
        if phi is None:
            continue
        if name not in cycles_of:
            cycles_of[name] = enumerate_cycles(g)
        want = bichromatic_cycle_exists_brute(g, dict(phi.items()), cycles_of[name])
        got = find_bichromatic_cycle(g, phi) is not None
        if want != got:
            disagreements.append(name)
        randomized += 1
    report(
        6,
        "cycle kernel matches brute enumeration",
        not disagreements,
        f"{exhaustive} exhaustive (k<=3, m<=8) + {randomized} random (k<=5) "
        f"colorings, {len(disagreements)} disagreements",
    )


def test_7_path_uniqueness_and_symmetry(corpus, report):
    rng = random.Random(7)
    pool = [(name, g) for name, g in corpus if 1 <= g.m <= 20]
    bad = []
    colorings = paths = sym = 0
    while colorings < 1000:
        name, g = pool[rng.randrange(len(pool))]
        k = max(2, g.max_degree()) + rng.randint(0, 2)
        phi = random_proper_coloring(g, k, rng)
        if phi is None:
            continue
        present = sorted({c for _, c in phi.items()})
        for a, b in itertools.combinations(present, 2):
            for v in range(g.n):
                p = maximal_bichromatic_path(g, phi, v, a, b)
                if p is None:
                    continue
                paths += 1
                vs = frozenset(p.vertices)
                # the path through v is the same one seen from each vertex
                for w in p.vertices:
                    q = maximal_bichromatic_path(g, phi, w, a, b)
                    if q is None or frozenset(q.vertices) != vs:
                        bad.append(f"{name}: path from {w} differs")
        if g.n >= 2 and len(present) >= 2:
            for _ in range(5):
                u, v = rng.sample(range(g.n), 2)
                a, b = rng.sample(present, 2)
                one = exists_critical_path(g, phi, a, b, u, v)
                two = exists_critical_path(g, phi, a, b, v, u)
                if one != two:
                    bad.append(f"{name}: asymmetric at {(a, b, u, v)}")
                sym += 1
        colorings += 1
    report(
        7,
        "unique alternating paths, symmetric endpoints",
        not bad,
        f"{colorings} colorings, {paths} path identities, "
        f"{sym} symmetry checks, {len(bad)} violations",
    )


def test_8_determinism_and_replay(tmp_path, capsys, monkeypatch, report):
    problems = []

    def run_pipelines(tag):
        out = {}

        def run(label, argv, stdin=None):
            if stdin is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(argv)
            captured = capsys.readouterr()
            out[label] = (code, captured.out)
            return captured.out

        d = tmp_path / tag
        d.mkdir()
        gp, tr = d / "g.txt", d / "trace.json"
        run("gen", ["gen", "--apollonian", "40", "--seed", "5", "--out", str(gp)])
        colored = run("color", ["color", "--in", str(gp), "--trace", str(tr)])
        out["trace-file"] = tr.read_bytes()
        run("verify", ["verify", "--in", "-"], stdin=colored)
        run("dot", ["color", "--in", str(gp), "--format", "dot"])
        run("plain", ["color", "--in", str(gp), "--format", "plain"])

        k4 = d / "k4.txt"
        k4.write_text(format_edge_list(complete_graph(4)))
        run("chi-a", ["chi-a", "--in", str(k4)])
        run("chi-a-k", ["chi-a", "--in", str(k4), "--k", "5"])
        run("find-config", ["find-config", "--in", str(k4)])

        rp = d / "rot.txt"
        run("gen2", ["gen", "--platonic", "icosahedron", "--out", str(gp), "--rot-out", str(rp)])
        run("audit", ["audit", "--in", str(gp), "--rot", str(rp)])
        return out

    first, second = run_pipelines("a"), run_pipelines("b")
    for label in first:
        if first[label] != second[label]:
            problems.append(f"pipeline {label} differs between runs")

    replayed = 0
    for n, seed in ((30, 2), (80, 3), (200, 0)):
        g, _ = generate_apollonian(n, seed=seed)
        phi, trace = acolor(g)
        if replay_trace(g, trace).items() != phi.items():
            problems.append(f"replay diverged on n={n} seed={seed}")
        replayed += 1
    report(
        8,
        "byte-identical reruns, exact replay",
        not problems,
        f"{len(first)} pipelines x2, {replayed} traces replayed, "
        f"{len(problems)} problems",
    )
