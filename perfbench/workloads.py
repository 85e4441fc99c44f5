"""Workload inputs, closed-loop operations and the checks on their outputs.

Every workload is a closed loop: one client in one worker process runs
one operation at a time and starts the next only when the previous one
has finished.  A workload is a fixed cyclic list of operations, each on
an input of a named class (a size or a graph family); the seed changes
only the structure of the inputs, never their classes.  Timings are kept
per class, so a run's medians do not depend on how many operations of
each class fitted into it.

An operation fails when it raises, when a check below rejects its output,
or when a CLI stage exits with another code than the documented one.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from aecolor import (
    EXHAUSTED,
    Configuration,
    PartialEdgeColoring,
    ReductionTrace,
    SearchBudget,
    TraceStep,
    acolor,
    audit_triangulation,
    bichromatic_cycle_exists_brute,
    exact_chi_a,
    find_configuration,
    format_edge_list,
    generate_apollonian,
    is_acyclically_k_colorable,
    parse_edge_list,
    replay_trace,
    search_acyclic_coloring,
)
from aecolor.cli import SCHEMA, coloring_from_json, coloring_to_json
from aecolor.families import (
    complete_graph,
    cycle_graph,
    grid_graph,
    platonic_solids,
    star_graph,
    wheel_graph,
)
from aecolor.graphs import Graph

from speed import SpeedLog
from tracing import TraceDrift, traced_acolor, traced_audit, traced_validate

# Input classes per workload.
SIZES = {
    # Apollonian n; reduction cost grows about quadratically in n
    "stacked": (1000, 1250),
    # (family, max degree); k = Δ + 10 is close to n
    "hubs": (("star", 1000), ("wheel", 800)),
    # Apollonian n for `gen | color | verify`; the last also feeds find-config
    "cli": (50, 100, 200),
    # grids certified by the oracle, and Apollonian n for the oracle and the audit
    "certify_grids": ((3, 3), (4, 4), (6, 6), (8, 8), (9, 9)),
    "certify_apollonian": (10, 11, 12),
    "certify_audit": 1000,
}
VARIANTS = 8  # distinct seeded inputs per class, visited in turn
ORACLE_BUDGET = SearchBudget(max_nodes=5_000_000)
BRUTE_MAX_M = 15  # brute-force cycle enumeration is exponential in m


class CheckFailed(Exception):
    """An output was produced but is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Run:
    """One measured run: samples per stage, counts, failures."""

    def __init__(self, tracer, root: str, env: dict):
        self.tr = tracer
        self.root = root
        self.env = env
        self.speed = SpeedLog()
        # stage -> input class -> (wall seconds, index of the speed probe before it)
        self.samples: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self.label = ""
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.edges: dict[str, list[int]] = defaultdict(list)  # input class -> m per coloring
        self.traced_color_time = 0.0
        self.reference_color_time = 0.0

    def sample(self, stage: str, seconds: float) -> None:
        self.samples[stage][self.label].append((seconds, self.speed.index))

    def timings(self, scaled: bool) -> dict[str, dict[str, list[float]]]:
        """Samples per stage and class, in wall seconds or scaled to the
        probe's nominal speed (see speed.py)."""
        return {
            stage: {
                label: [self.speed.scale(t, i) if scaled else t for t, i in xs]
                for label, xs in by_class.items()
            }
            for stage, by_class in self.samples.items()
        }

    def op(self, kind: str, label: str, fn, *args) -> None:
        """Run one closed-loop operation; a raise or failed check counts as failed."""
        tr = self.tr
        tr.op = self.attempted
        self.attempted += 1
        self.label = label
        root = tr.begin(f"op.{kind}")
        try:
            fn(self, *args)
        except TraceDrift:
            raise
        except Exception as exc:  # noqa: BLE001 - every failure is counted, the loop goes on
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        finally:
            tr.end(root)

    def color(self, g: Graph):
        """`acolor`, or in a traced run the traced driver checked against it."""
        tr = self.tr
        if not tr.enabled:
            t0 = perf_counter()
            phi, trace = acolor(g)
            dt = perf_counter() - t0
        else:
            s = tr.begin("trace.reference")
            t0 = perf_counter()
            ref_phi, ref_trace = acolor(g)
            self.reference_color_time += perf_counter() - t0
            tr.end(s)
            t0 = perf_counter()
            phi, trace = traced_acolor(g, tr)
            dt = perf_counter() - t0
            self.traced_color_time += dt
            if phi.items() != ref_phi.items() or trace != ref_trace:
                raise TraceDrift(f"traced driver diverged from acolor on {g!r}")
        self.edges[self.label].append(g.m)
        self.sample("color", dt)
        return phi, trace

    def cli(self, stage: str, args: list[str], stdin: str = "", expect: int = 0):
        """One `aecolor` subprocess; stages run one after another, never two at once."""
        s = self.tr.begin(f"cli.{stage}")
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "aecolor.cli", *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=self.root,
            env=self.env,
            timeout=120,
        )
        dt = perf_counter() - t0
        self.tr.end(s)
        check(
            proc.returncode == expect,
            f"`aecolor {' '.join(args)}` exited {proc.returncode}, expected {expect}: "
            f"{proc.stderr.strip()[-200:]}",
        )
        return proc, dt


# --- shared checks -------------------------------------------------------


def verify_doc(run: Run, text: str):
    """Load a coloring document and reach the `verify` verdict in process."""
    tr = run.tr
    t0 = perf_counter()
    s = tr.begin("cli.load_doc")
    g, phi = coloring_from_json(json.loads(text))
    tr.end(s)
    if phi.violations:
        status = "improper"
    else:
        report = traced_validate(g, phi, tr)
        if report.cycle is not None:
            status = "cycle"
        elif not report.all_edges_colored:
            status = "incomplete"
        else:
            status = "acyclic"
    run.sample("verify", perf_counter() - t0)
    return g, phi, status


def replay(run: Run, g: Graph, trace: ReductionTrace):
    s = run.tr.begin("colorer.replay")
    t0 = perf_counter()
    phi = replay_trace(g, trace)
    run.sample("replay", perf_counter() - t0)
    run.tr.end(s)
    return phi


def color_and_check(run: Run, g: Graph) -> int:
    """Color, serialize, verify and replay g; returns the largest color used.

    Checks: at most Δ+10 colors, the document round-trips to g and
    verifies as acyclic, and the trace replays to the identical coloring.
    """
    tr = run.tr
    phi, trace = run.color(g)
    s = tr.begin("cli.serialize")
    text = json.dumps(coloring_to_json(phi), indent=2) + "\n"
    tr.end(s)
    tr.count("cli.doc_bytes", len(text))
    tr.count("cli.docs")
    g2, phi2, status = verify_doc(run, text)
    check(status == "acyclic", f"verify says {status} on {g!r}")
    check(g2 == g, f"document does not round-trip to {g!r}")
    used = max((c for _e, c in phi2.items()), default=0)
    check(used <= g.max_degree() + 10, f"{used} colors exceed Δ+10 on {g!r}")
    check(replay(run, g, trace).items() == phi.items(), f"replay differs on {g!r}")
    return used


def color_pipeline(run: Run, g: Graph) -> None:
    t0 = perf_counter()
    color_and_check(run, g)
    run.sample("pipe", perf_counter() - t0)


# --- stacked and hubs ----------------------------------------------------


def stacked_ops(seed: int, tr) -> list[tuple]:
    rng = random.Random(seed)
    ops = []
    for _ in range(VARIANTS):
        for n in SIZES["stacked"]:
            s = tr.begin("embedding.generate")
            g, _rot = generate_apollonian(n, seed=rng.randrange(2**31))
            tr.end(s)
            ops.append(("stacked", f"apollonian{n}", color_pipeline, g))
    return ops


def hubs_ops(seed: int, tr) -> list[tuple]:
    # the seed moves each hub degree by at most 3, which keeps every
    # variant's cost within its class
    rng = random.Random(seed)
    build = {"star": star_graph, "wheel": wheel_graph}
    ops = []
    for _ in range(VARIANTS):
        for family, degree in SIZES["hubs"]:
            s = tr.begin("families.build")
            g = build[family](degree + rng.randrange(4))
            tr.end(s)
            ops.append(("hubs", f"{family}{degree}", color_pipeline, g))
    return ops


# --- cli -------------------------------------------------------------------


def trace_from_json(doc: dict) -> ReductionTrace:
    # replay reads only the edge, the configuration vertex and the tier
    steps = []
    for row in doc["steps"]:
        u, v = row["edge"]
        edge = (u, v) if u < v else (v, u)
        steps.append(TraceStep(edge, Configuration(row["config"], v, ()), row["tier"]))
    return ReductionTrace(tuple(steps))


def cli_pipeline(run: Run, n: int, gseed: int, trace_path: str) -> None:
    """`aecolor gen | aecolor color | aecolor verify`, then replay the written trace."""
    tr = run.tr
    t0 = perf_counter()
    gen, _ = run.cli("gen", ["gen", "--apollonian", str(n), "--seed", str(gseed)])
    color, color_dt = run.cli("color", ["color", "--in", "-", "--trace", trace_path], gen.stdout)
    verify, verify_dt = run.cli("verify", ["verify", "--in", "-"], color.stdout)
    run.sample("pipe", perf_counter() - t0)
    run.sample("color", color_dt)
    run.sample("verify", verify_dt)
    check(json.loads(verify.stdout)["status"] == "acyclic", f"verify rejected n={n}")
    s = tr.begin("graphs.parse")
    g = parse_edge_list(gen.stdout)
    tr.end(s)
    run.edges[run.label].append(g.m)
    tr.count("cli.doc_bytes", len(color.stdout))
    tr.count("cli.docs")
    s = tr.begin("cli.load_doc")
    g2, phi = coloring_from_json(json.loads(color.stdout))
    tr.end(s)
    check(g2 == g, f"colored document is not the generated graph, n={n}")
    check(phi.max_color_used() <= g.max_degree() + 10, f"more than Δ+10 colors, n={n}")
    with open(trace_path, encoding="utf-8") as fh:
        trace = trace_from_json(json.load(fh))
    check(replay(run, g, trace).items() == phi.items(), f"trace does not replay, n={n}")


def cli_defect(run: Run, text: str, status: str, code: int) -> None:
    verify, _ = run.cli("verify", ["verify", "--in", "-"], text, expect=code)
    check(json.loads(verify.stdout)["status"] == status, f"verify did not report {status}")


def cli_find_config(run: Run, g: Graph) -> None:
    tr = run.tr
    s = tr.begin("graphs.format")
    text = format_edge_list(g)
    tr.end(s)
    out, _ = run.cli("find_config", ["find-config", "--in", "-"], text)
    s = tr.begin("scanner.find_configuration")
    want = find_configuration(g)
    tr.end(s)
    check(json.loads(out.stdout) == {"schema": SCHEMA, **want.to_json_dict()}, "find-config differs")


def _doc(k: int, rows) -> str:
    edges = [{"u": u, "v": v, "color": c} for u, v, c in rows]
    return json.dumps({"schema": SCHEMA, "k": k, "edges": edges})


def defect_docs(rng: random.Random) -> list[tuple[str, str, int]]:
    """(document, status, exit code) for each documented verify failure class."""
    r = rng.randrange(3, 30)
    improper = [(i, i + 1, i % 3 + 1) for i in range(r)]
    improper[1] = (1, 2, improper[0][2])  # two edges at vertex 1 share a color
    cycle = [(i, (i + 1) % (2 * r), i % 2 + 1) for i in range(2 * r)]
    incomplete = [(i, i + 1, i % 2 + 1) for i in range(r)]
    j = rng.randrange(r)
    incomplete[j] = (j, j + 1, None)
    return [
        (_doc(3, improper), "improper", 2),
        (_doc(3, cycle), "cycle", 3),
        (_doc(3, incomplete), "incomplete", 4),
    ]


def cli_ops(seed: int, tr, workdir: str) -> list[tuple]:
    rng = random.Random(seed)
    trace_path = f"{workdir}/trace.json"
    ops = [
        ("cli_pipeline", f"apollonian{n}", cli_pipeline, n, rng.randrange(2**31), trace_path)
        for _ in range(VARIANTS)
        for n in SIZES["cli"]
    ]
    # the exit-code checks run once per cycle, so most of the time goes
    # to the timed pipelines
    checks = [("cli_defect", status, cli_defect, text, status, code) for text, status, code in defect_docs(rng)]
    s = tr.begin("embedding.generate")
    g, _rot = generate_apollonian(SIZES["cli"][-1], seed=rng.randrange(2**31))
    tr.end(s)
    checks.append(("cli_find_config", "find-config", cli_find_config, g))
    n_classes = len(SIZES["cli"])
    return ops[:n_classes] + checks + ops[n_classes:]


# --- certify ---------------------------------------------------------------


def oracle_call(run: Run, name: str, fn, g: Graph, *args):
    s = run.tr.begin(name)
    t0 = perf_counter()
    res = fn(g, *args, ORACLE_BUDGET)
    run.sample("oracle", perf_counter() - t0)
    run.tr.end(s)
    if res is EXHAUSTED:
        run.tr.count("oracle.exhausted")
        raise CheckFailed(f"{name} exhausted its budget on {g!r}")
    return res


def check_witness(run: Run, g: Graph, coloring: dict, k: int) -> None:
    """The oracle's k-coloring is complete, proper and acyclic.

    Acyclicity is judged by brute-force cycle enumeration where that is
    cheap and by the validator otherwise; neither shares code with the
    oracle's own cycle test.
    """
    check(len(coloring) == g.m and all(1 <= c <= k for c in coloring.values()), "witness incomplete")
    phi = PartialEdgeColoring.from_pairs(g, k, [(u, v, c) for (u, v), c in coloring.items()], strict=False)
    check(not phi.violations, "witness is improper")
    if g.m <= BRUTE_MAX_M:
        s = run.tr.begin("oracle.brute")
        closed = bichromatic_cycle_exists_brute(g, coloring)
        run.tr.end(s)
    else:
        closed = traced_validate(g, phi, run.tr).cycle is not None
    check(not closed, "witness has a bichromatic cycle")


def certify_graph(run: Run, g: Graph, known) -> None:
    """χ'a by the oracle, no coloring at χ'a-1, a checked witness at χ'a, and
    Δ <= χ'a <= colors used by `acolor` <= Δ+10 (the acceptance sandwich)."""
    t0 = perf_counter()
    chi = oracle_call(run, "oracle.chi_a", exact_chi_a, g)
    if known is not None:
        check(chi == known, f"χ'a = {chi}, known value {known}, on {g!r}")
    if chi > 1:
        below = oracle_call(run, "oracle.decide", is_acyclically_k_colorable, g, chi - 1)
        check(below is False, f"{g!r} is acyclically {chi - 1}-colorable")
    s = run.tr.begin("oracle.search")
    witness = search_acyclic_coloring(g, chi, ORACLE_BUDGET)
    run.tr.end(s)
    check(isinstance(witness, dict), f"no witness at χ'a = {chi} on {g!r}")
    check_witness(run, g, witness, chi)
    used = color_and_check(run, g)
    delta = g.max_degree()
    check(delta <= chi <= used <= delta + 10, f"sandwich {delta}, {chi}, {used} out of order")
    run.sample("pipe", perf_counter() - t0)


def certify_audit(run: Run, g: Graph, rot) -> None:
    """Audit an embedded triangulation: charges total exactly -12 and the
    audit stops at the configuration `find_configuration` reports."""
    tr = run.tr
    if tr.enabled:
        s = tr.begin("trace.reference")
        ref = audit_triangulation(g, rot)
        tr.end(s)
        total, conf = traced_audit(g, rot, tr)
        if (total, conf) != (ref.initial_total, ref.config):
            raise TraceDrift(f"traced audit diverged from audit_triangulation on {g!r}")
    else:
        t0 = perf_counter()
        report = audit_triangulation(g, rot)
        run.sample("audit", perf_counter() - t0)
        check(report.outcome == "config", f"audit reached discharging on {g!r}")
        total, conf = report.initial_total, report.config
    check(total == -12, f"initial charges total {total}, not -12")
    s = tr.begin("scanner.find_configuration")
    again = find_configuration(g)
    tr.end(s)
    check(again == conf, "audit and find_configuration disagree")


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def small_graphs(rng: random.Random, tr) -> list[tuple[str, Graph, object]]:
    """(class, graph, known χ'a or None); the known values are those of acceptance 2."""
    cases: list[tuple[str, Graph, object]] = [(f"C{n}", cycle_graph(n), 3) for n in range(3, 9)]
    cases.append(("K4", complete_graph(4), 5))
    cases += [(f"star{n}", star_graph(n), n) for n in range(1, 9)]
    for i in range(3):
        t = random_tree(rng, rng.randrange(3, 12))
        cases.append((f"tree{i}", t, t.max_degree()))
    cases += [(name, g, None) for name, (g, _rot) in platonic_solids().items()]
    for n in SIZES["certify_apollonian"]:
        s = tr.begin("embedding.generate")
        g, _rot = generate_apollonian(n, seed=rng.randrange(2**31))
        tr.end(s)
        cases.append((f"apollonian{n}", g, None))
    cases += [(f"grid{r}x{c}", grid_graph(r, c), None) for r, c in SIZES["certify_grids"]]
    return cases


def certify_ops(seed: int, tr) -> list[tuple]:
    rng = random.Random(seed)
    ops = []
    for _ in range(VARIANTS):
        ops += [("certify", label, certify_graph, g, known) for label, g, known in small_graphs(rng, tr)]
        s = tr.begin("embedding.generate")
        g, rot = generate_apollonian(SIZES["certify_audit"], seed=rng.randrange(2**31))
        tr.end(s)
        ops.append(("audit", "audit", certify_audit, g, rot))
    return ops


def make_ops(workload: str, seed: int, tr, workdir: str) -> list[tuple]:
    """The workload's cyclic operation list: (kind, input class, fn, *args)."""
    if workload == "cli":
        return cli_ops(seed, tr, workdir)
    return {"stacked": stacked_ops, "hubs": hubs_ops, "certify": certify_ops}[workload](seed, tr)


WORKLOADS = ("stacked", "hubs", "cli", "certify")
