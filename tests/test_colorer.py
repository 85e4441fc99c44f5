import heapq
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecolor import cli, colorer, coloring, oracle, scanner
from aecolor.colorer import (
    ExtensionContext,
    ReductionTrace,
    TraceStep,
    _RECHECK,
    _peel,
    acolor,
    choose_reduction_edge,
    extend_at_edge,
    replay_trace,
)
from aecolor.coloring import PartialEdgeColoring, validate_acyclic
from aecolor.embedding import generate_apollonian
from aecolor.errors import ExtensionFailed, ImproperColoringError, NotPlanarEvidence
from aecolor.families import (
    complete_graph,
    cycle_graph,
    dodecahedron,
    grid_graph,
    icosahedron,
    octahedron,
    path_graph,
    star_graph,
    wheel_graph,
)
from aecolor.graphs import Graph, format_edge_list
from aecolor.oracle import EXHAUSTED, SearchBudget, _search, search_acyclic_coloring
from aecolor.scanner import _CAPS, _KIND_BY_DEGREE, Configuration

from support import (
    assert_skip_maps_exact,
    extension_cases,
    first_fit,
    first_fit_free_color,
    free_colors,
)


def colored(g, k, triples):
    return PartialEdgeColoring.from_pairs(g, k, triples)


def context_for(g, e, k):
    """Coloring of g minus e found by the exhaustive searcher, wrapped
    into an extension context for e.  Deterministic per (g, e, k)."""
    w = search_acyclic_coloring(g.remove_edge(*e), k)
    assert isinstance(w, dict)
    phi = colored(g, k, [(u, v, c) for (u, v), c in w.items()])
    return ExtensionContext(g, phi, *e)


class TestExtensionContext:
    def test_rejects_foreign_coloring(self):
        g, h = cycle_graph(4), cycle_graph(5)
        with pytest.raises(ValueError, match="different graph"):
            ExtensionContext(g, PartialEdgeColoring(h, 5), 0, 1)

    def test_rejects_non_edge(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="not an edge"):
            ExtensionContext(g, PartialEdgeColoring(g, 5), 0, 2)

    def test_rejects_colored_edge(self):
        g = path_graph(2)
        phi = colored(g, 5, [(0, 1, 1)])
        with pytest.raises(ValueError, match="already colored"):
            ExtensionContext(g, phi, 0, 1)

    def test_rejects_improper(self):
        g = star_graph(3)
        phi = PartialEdgeColoring.from_pairs(
            g, 5, [(0, 1, 1), (0, 2, 1)], strict=False
        )
        with pytest.raises(ImproperColoringError):
            ExtensionContext(g, phi, 0, 3)

    def test_derived_sets(self):
        g = cycle_graph(4)
        phi = colored(g, 12, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
        ExtensionContext(g, phi, 0, 3)
        assert free_colors(phi, 0, 3) == list(range(2, 13))


class TestChooseReductionEdge:
    def test_c4_takes_a1(self):
        edge, cfg = choose_reduction_edge(cycle_graph(4))
        assert edge == (0, 1) and cfg.kind == "A1" and cfg.vertex == 0

    def test_k4_takes_a2(self):
        edge, cfg = choose_reduction_edge(complete_graph(4))
        assert edge == (0, 1) and cfg.kind == "A2"

    def test_icosahedron_takes_a4(self):
        g, _ = icosahedron()
        edge, cfg = choose_reduction_edge(g)
        assert cfg.kind == "A4" and cfg.vertex == 0 and edge == (0, 1)

    def test_smallest_low_degree_vertex_wins(self):
        # pendant 3 also qualifies, but 1 has degree 2 and a smaller id
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        edge, cfg = choose_reduction_edge(g)
        assert cfg.kind == "A1" and cfg.vertex == 1 and edge == (0, 1)

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            choose_reduction_edge(Graph(3, []))

    def test_k7_refuted(self):
        with pytest.raises(NotPlanarEvidence):
            choose_reduction_edge(complete_graph(7))


def reference_reduction(g, out):
    """The choose + remove loop the reducer must reproduce; appends to out."""
    cur = g
    while cur.m > 0:
        edge, cfg = choose_reduction_edge(cur)
        out.append((edge, cfg))
        cur = cur.remove_edge(*edge)
    return out


def subgraph(g, share, seed):
    rng = random.Random(seed)
    return Graph(g.n, [e for e in g.edges() if rng.random() < share])


def wheel_with_pendant_paths(rim):
    # rim vertex i carries i % 3 paths of i % 4 + 1 edges, so rim degrees
    # run 3-5 while the hub's falls through every cap
    g = wheel_graph(rim)
    edges, n = list(g.edges()), g.n
    for i in range(1, rim + 1):
        for _ in range(i % 3):
            prev = i
            for _ in range(i % 4 + 1):
                edges.append((prev, n))
                prev, n = n, n + 1
    return Graph(n, edges)


def reduction_cases():
    for n in (60, 300, 1000):
        for seed in range(3):
            g, _ = generate_apollonian(n, seed=seed)
            yield f"apollonian-{n}-s{seed}", g
            # dropping edges creates degree 1-2 vertices in mid-run
            yield f"subgraph-{n}-s{seed}", subgraph(g, 0.6, seed)
            yield f"subgraph30-{n}-s{seed}", subgraph(g, 0.3, seed)
    yield "star-300", star_graph(300)
    yield "wheel-200", wheel_graph(200)
    yield "wheel-40-pendant-paths", wheel_with_pendant_paths(40)
    yield "grid-12x12", grid_graph(12, 12)
    yield "grid-20x20-subgraph", subgraph(grid_graph(20, 20), 0.6, 0)


def cap_boundary_graph(kind, j, degree):
    """A planar graph on which vertex 1 takes the first cap test, as a
    vertex of `kind` whose j-th neighbor by (degree, id) is vertex 0, of the
    given degree.  Each other neighbor before position j sits on its cap,
    below `degree`; each after it sits on its cap, or on degree 12 where the
    kind has no cap left, at least `degree`.  Every neighbor is the hub of a
    wheel that brings it to its degree, so no vertex has degree 1 or 2 and
    no vertex of degree 3-5 has a smaller id than 1."""
    caps = _CAPS[kind]
    (d,) = [dv for dv, k in _KIND_BY_DEGREE.items() if k == kind]
    degrees = [caps[i] if i < len(caps) else 12 for i in range(d)]
    degrees[j] = degree
    hubs = [0] + [2 + i for i in range(d - 1)]
    hubs[0], hubs[j] = hubs[j], hubs[0]
    edges, n = [], 2 + d - 1
    for hub, dh in zip(hubs, degrees):
        edges.append((1, hub))
        rim = range(n, n + dh - 1)
        edges += [(hub, r) for r in rim]
        edges += [(r, r + 1) for r in rim[:-1]] + [(rim[-1], rim[0])]
        n += dh - 1
    return Graph(n, edges)


def records(reduction):
    """(edge, configuration) pairs as (edge, vertex, kind) triples."""
    return [(edge, cfg.vertex, cfg.kind) for edge, cfg in reduction]


def peeled(g):
    """`_peel(g)`'s record as (edge, vertex, kind) triples, after checking
    it against the reference loop, and the steps that `acolor(g)`'s trace
    builds on first read against the loop's full configurations."""
    us, vertices, kinds = [], [], []
    _peel(g, us, vertices, kinds)
    got = [((min(u, v), max(u, v)), v, kind) for u, v, kind in zip(us, vertices, kinds)]
    ref = reference_reduction(g, [])
    assert got == records(ref)
    steps = acolor(g)[1].steps
    assert [(s.edge, s.config) for s in steps] == ref
    assert all(type(s.config) is Configuration for s in steps)
    return got


class TestReducer:
    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in reduction_cases()])
    def test_matches_reference_loop(self, g):
        assert len(peeled(g)) == g.m

    def test_corpus_lands_on_every_cap(self):
        # a degree falling onto a cap re-checks the neighbors of the kinds
        # with that cap; the corpus above takes every such (cap, neighbor
        # degree) step, so the identity test sees each re-check
        want = {(11, 3), (9, 4), (7, 4), (7, 5), (6, 5), (8, 5)}
        assert {(c, d) for c, ds in _RECHECK.items() for d in ds} == want
        seen = set()
        for _, g in reduction_cases():
            adj = [set(g.neighbors(v)) for v in g.vertices()]
            us: list = []
            vertices: list = []
            _peel(g, us, vertices, [])
            for a, b in zip(us, vertices):
                adj[a].remove(b)
                adj[b].remove(a)
                for x in (a, b):
                    seen.update((len(adj[x]), len(adj[w])) for w in adj[x])
        assert want <= seen

    @pytest.mark.parametrize(
        "kind, j, over",
        [(k, j, over) for k, caps in _CAPS.items() for j in range(len(caps)) for over in (0, 1)],
    )
    def test_cap_boundary(self, kind, j, over):
        # the j-th neighbor has degree exactly its cap, or one above it with
        # id 0, so that its key deg * n + id is exactly the threshold
        # (cap + 1) * n: a test that passed at the threshold, or stopped one
        # short of it, would take the first step at the wrong vertex
        cap = _CAPS[kind][j]
        g = cap_boundary_graph(kind, j, cap + over)
        assert sorted((g.degree(w), w) for w in g.neighbors(1))[j] == (cap + over, 0)
        assert [v for v in g.vertices() if 1 <= g.degree(v) <= 5][0] == 1
        got = peeled(g)
        if over:
            assert got[0][1] != 1
        else:
            assert got[0][1:] == (1, kind)

    @pytest.mark.parametrize(
        "edges, first",
        [
            # a degree-2 vertex whose neighbors tie on degree: smaller id first
            (
                [(0, 2), (0, 1), (1, 3), (1, 4), (2, 3), (2, 4)],
                ((0, 1), Configuration("A1", 0, ((1, 3), (2, 3)))),
            ),
            # the smaller-id neighbor has the larger degree: it is peeled, and
            # comes second among the neighbors
            (
                [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)],
                ((0, 1), Configuration("A1", 0, ((2, 3), (1, 4)))),
            ),
            # a degree-1 vertex
            (
                [(0, 3), (1, 2), (1, 3), (2, 3)],
                ((0, 3), Configuration("A1", 0, ((3, 3),))),
            ),
        ],
        ids=["tied-degrees", "min-id-has-larger-degree", "degree-1"],
    )
    def test_a1_steps(self, edges, first):
        # peeled(g) checks the record and the built steps against the
        # reference loop; the first step is pinned here as well
        g = Graph(1 + max(max(e) for e in edges), edges)
        peeled(g)
        assert acolor(g)[1].steps[0][:2] == first

    def test_a1_run_continues(self, monkeypatch):
        # 0 has degree 2 and the least id; its edge to 1 goes first and 1
        # falls from degree 4 to 3, so 0 peels its edge to 2 next without a
        # return to the heap, and is never pushed
        g = Graph(5, [(0, 1), (0, 2)] + [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
        pushed = []

        def push(heap, x):
            pushed.append(x)
            heapq.heappush(heap, x)

        monkeypatch.setattr(colorer, "heappush", push)
        got = peeled(g)
        assert [e for e, _, _ in got[:2]] == [(0, 1), (0, 2)]
        assert pushed and 0 not in pushed

    def test_a1_run_yields_to_a_smaller_vertex(self):
        # 1 is the least vertex of degree 2 and peels its edge to 0, which
        # falls from degree 3 to 2: 0 is now the least such vertex and peels
        # next, before 1's edge to 4
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        got = peeled(g)
        assert [(e, v) for e, v, _ in got[:3]] == [((0, 1), 1), ((0, 2), 0), ((0, 3), 0)]

    def test_reduction_work_is_linear(self, monkeypatch):
        # heap pushes plus heap pops, and one unit per A1 step for its edge
        # choice; every cap test follows a pop from `cand`.  Re-pushing every
        # degree 3-5 neighbor of an endpoint left below degree 12 cost about
        # 3.9 m on this triangulation and 5.4 m on the grid, counting cap
        # tests in place of pops.  With re-pushes only on cap crossings and
        # A1 runs that peel without a return to the heap, pushes plus pops
        # read 2.84 m and 2.52 m, from duplicate entries in `cand` and A2
        # vertices pushed back onto `low`.  One `cand` entry per vertex, and
        # an A2 vertex that runs on as A1, bring them to 58 328 (1.94 m) and
        # 40 191 (2.03 m)
        work = 0

        def counted(f):
            def call(*args):
                nonlocal work
                work += 1
                return f(*args)

            return call

        monkeypatch.setattr(colorer, "heappush", counted(colorer.heappush))
        monkeypatch.setattr(colorer, "heappop", counted(colorer.heappop))
        for g in (generate_apollonian(10000, seed=11)[0], grid_graph(100, 100)):
            work = 0
            kinds: list = []
            _peel(g, [], [], kinds)
            assert len(kinds) == g.m
            work += kinds.count("A1")
            assert work <= 2.25 * g.m

    def test_refutes_at_the_same_step(self):
        # the path is peeled away first; then only K7 is left, with no
        # configuration, and both raise with the same n and m
        k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        g = Graph(12, k7 + [(7, 8), (8, 9), (9, 10), (10, 11)])
        ref: list = []
        with pytest.raises(NotPlanarEvidence) as want:
            reference_reduction(g, ref)
        us: list = []
        vertices: list = []
        kinds: list = []
        with pytest.raises(NotPlanarEvidence) as have:
            _peel(g, us, vertices, kinds)
        got = [((min(u, v), max(u, v)), v, kind) for u, v, kind in zip(us, vertices, kinds)]
        assert len(got) == 4 and got == records(ref)
        assert str(have.value) == str(want.value)
        assert "n=12, m=21" in str(have.value)


class OverBudget(Exception):
    pass


def counting_coloring(monkeypatch, budget=math.inf):
    """Make the colorer build colorings whose rows count color-table probes
    (membership tests, `get` lookups, and the colors, neighbors and entries
    a loop over a row reads), and count the vertices each `alternating_walk`
    visits.  Returns the coloring class and a one-item list holding the
    count; OverBudget is raised once the count passes budget."""
    work = [0]

    def spend(amount):
        work[0] += amount
        if work[0] > budget:
            raise OverBudget

    class CountingRow(dict):
        __slots__ = ()

        def __contains__(self, c):
            spend(1)
            return dict.__contains__(self, c)

        def __iter__(self):
            for c in dict.__iter__(self):
                spend(1)
                yield c

        def items(self):
            for entry in dict.items(self):
                spend(1)
                yield entry

        def values(self):
            for w in dict.values(self):
                spend(1)
                yield w

        def get(self, c, default=None):
            spend(1)
            return dict.get(self, c, default)

    class CountingColoring(PartialEdgeColoring):
        __slots__ = ()

        def __init__(self, graph, k):
            super().__init__(graph, k)
            self._nbr = [CountingRow() for _ in range(graph.n)]

    walk = coloring.alternating_walk

    def counting_walk(*args):
        seq, closed = walk(*args)
        spend(len(seq))
        return seq, closed

    monkeypatch.setattr(colorer, "PartialEdgeColoring", CountingColoring)
    monkeypatch.setattr(coloring, "alternating_walk", counting_walk)
    return CountingColoring, work


def acolor_with_work(g, budget, monkeypatch):
    """`acolor(g)` and the work it did, as `counting_coloring` counts it,
    failing the test once that passes budget.  Only `acolor`'s own work
    counts: checks the caller makes on the returned coloring do not."""
    _, work = counting_coloring(monkeypatch, budget)
    try:
        phi, _ = acolor(g)
    except OverBudget:
        pytest.fail(f"more than {budget} probes and walked vertices on {g}")
    return phi, work[0]


class TestTryFreeColor:
    def test_empty_shared_takes_smallest_free(self):
        g = cycle_graph(3)
        phi = colored(g, 13, [(0, 1, 1), (1, 2, 2)])
        assert first_fit(phi, 0, 2) == 3

    def test_critical_path_blocks_smallest(self):
        # closing the square: color 2 is free at both ends but the
        # (1,2)-path 0-1-2-3 is critical, so 3 is chosen
        g = cycle_graph(4)
        phi = colored(g, 12, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
        assert first_fit(phi, 0, 3) == 3

    def test_exhausted_palette_returns_none(self):
        g = cycle_graph(4)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
        assert first_fit(phi, 0, 3) is None

    def test_starts_above_the_hub_floor(self):
        # colors 1..3 fill the hub, so the scan passes 2 and 3 in its skip
        # map; unassigning 2 drops that map and 2 is the first fit once more
        g = star_graph(5)
        phi = colored(g, 15, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        assert first_fit(phi, 0, 4) == 4
        assert phi._skip[0] == {2: 4, 3: 4}
        phi.unassign(0, 2)
        assert 0 not in phi._skip
        assert first_fit(phi, 0, 4) == 2

    def test_jumps_a_run_of_hub_colors(self):
        # the hub holds 2..d-1 but not 1; spokes d-1 and d have pendant
        # edges in color 1, so T1's first candidate past them is 2, and the
        # hub's skip map passes the rest of the run in one jump; the second
        # spoke follows it and one step more
        d = 12
        spokes = [(0, j) for j in range(1, d + 1)]
        g = Graph(d + 3, spokes + [(d - 1, d + 1), (d, d + 2)])
        hub = [(0, j, j + 1) for j in range(1, d - 1)]
        phi = colored(g, d + 5, hub + [(d - 1, d + 1, 1), (d, d + 2, 1)])
        assert first_fit(phi, 0, d - 1) == d
        assert phi._skip[0] == {c: d for c in range(3, d)}
        phi.assign(0, d - 1, d)
        assert first_fit(phi, 0, d) == d + 1
        assert phi._skip[0] == {**{c: d for c in range(3, d)}, 3: d + 1, d: d + 1}

    @given(
        st.sampled_from(["star", "wheel", "apollonian"]),
        st.integers(0, 3),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_first_fit_reference(self, family, slack, seed):
        # random assign / unassign / recolor sequences; after each step the
        # skip maps pass only used colors, and on an uncolored edge T1
        # agrees with a scan from color 1
        rng = random.Random(seed)
        g = {
            "star": lambda: star_graph(rng.randint(3, 12)),
            "wheel": lambda: wheel_graph(rng.randint(3, 10)),
            "apollonian": lambda: generate_apollonian(rng.randint(4, 20), seed)[0],
        }[family]()
        k = g.max_degree() + slack
        phi = PartialEdgeColoring(g, k)

        def free(x, y):
            return [c for c in range(1, k + 1) if c not in phi._nbr[x] and c not in phi._nbr[y]]

        for _ in range(4 * g.m):
            colored_edges = [e for e, _ in phi.items()]
            open_edges = [e for e in g.edges() if phi.color_of(*e) is None]
            op = rng.random()
            if open_edges and op < 0.6:
                x, y = rng.choice(open_edges)
                want = first_fit_free_color(phi, x, y)
                assert first_fit(phi, x, y) == want
                # mostly take T1's color, so hubs fill up as in `acolor`
                c = want if op < 0.45 else rng.choice(free(x, y) or [None])
                if c is not None:
                    phi.assign(x, y, c)
            elif colored_edges and op < 0.8:
                phi.unassign(*rng.choice(colored_edges))
            elif colored_edges:
                x, y = rng.choice(colored_edges)
                options = free(x, y)
                if options:
                    phi.unassign(x, y)
                    phi.assign(x, y, rng.choice(options))
            assert_skip_maps_exact(phi)

    def test_star_work_is_linear(self, monkeypatch):
        # the first-fit loop must stay O(n) on a star, where scanning from
        # color 1 and walking from the hub cost Theta(n^2); a star makes no
        # walks, so only probes count.  It reads 8.0 n: 6 n in `acolor`'s
        # re-insertion and 2 n in `validate_acyclic`'s cycle scan, which
        # reads every row once and takes the largest color on the way; a
        # second pass over the rows for that color would add 2 n
        n = 5000
        phi, work = acolor_with_work(star_graph(n), 10 * n, monkeypatch)
        assert phi.max_color_used() == n
        assert work > 0

    def test_wheel_work_is_linear(self, monkeypatch):
        # the hub lacks color 1, so first-fit passed its colors one at a
        # time, and every even spoke's {1, 2}-walk ran the whole rim built
        # so far: about 2270 n in all before the skip maps and the jump
        # table; it reads 22.0 n, and a second pass over the rows for the
        # largest color would add 4 n
        n = 3000
        phi, work = acolor_with_work(wheel_graph(n), 40 * n, monkeypatch)
        assert phi.is_complete()
        assert work > 0


def spy_searches(monkeypatch, phi):
    """Record each search the tiers make on phi's own table as (phi's items
    when it starts, the edges it searches, its outcome).  The symmetry cap
    must be on exactly when the table starts empty."""
    calls = []

    def spy(nbr, edges, k, symmetric, max_nodes):
        held = phi.items()
        assert nbr is phi._nbr and symmetric == (not held)
        found = _search(nbr, edges, k, symmetric, max_nodes)
        outcome = "found" if isinstance(found, dict) else found
        calls.append((held, sorted(edges), outcome))
        return found

    monkeypatch.setattr(oracle, "_search", spy)
    return calls


def escalation_calls(g, e, before, ball_outcome):
    """The calls `spy_searches` records when the ball search for the edge e
    ends on ball_outcome and the whole-subgraph search finds a coloring,
    from the coloring `before` that the ball search was given: the ball
    search holds every colored edge with an end off the ball and searches
    the rest with e; the whole-subgraph search starts from an empty table
    and searches every edge of `before` with e."""
    u, v = e
    ball = {u, v, *g.neighbors(u), *g.neighbors(v)}
    held = [(f, c) for f, c in before if not {*f} <= ball]
    inner = sorted([f for f, _ in before if {*f} <= ball] + [e])
    every = sorted([f for f, _ in before] + [e])
    return [(held, inner, ball_outcome), ([], every, "found")]


class TestExtendTiers:
    def test_tree_edge_is_t1(self):
        g = path_graph(3)
        phi = colored(g, 12, [(1, 2, 1)])
        _, tier = extend_at_edge(ExtensionContext(g, phi, 0, 1))
        assert tier == "T1"

    def test_octahedron_t3_instance(self, monkeypatch):
        # u and v see every other vertex of the octahedron, so the ball
        # holds every colored edge: T2 is skipped and T3 searches once
        for ctx in [context_for(octahedron()[0], e, 6) for e in [(0, 4), (0, 2)]]:
            calls = spy_searches(monkeypatch, ctx.phi)
            phi, tier = extend_at_edge(ctx)
            assert tier == "T3" and [(h, o) for h, _, o in calls] == [([], "found")]
            assert validate_acyclic(ctx.phi.graph, phi).ok

    def test_octahedron_t2_instance(self, monkeypatch):
        # the octahedron has no T2 instance: the ends of any edge see every
        # vertex, so no colored edge is held and T2 makes no search
        g = octahedron()[0]
        for u, v in g.edges():
            assert {u, v, *g.neighbors(u), *g.neighbors(v)} == set(g.vertices())
        ctx = context_for(g, (0, 4), 6)
        calls = spy_searches(monkeypatch, ctx.phi)
        _, tier = extend_at_edge(ctx)
        assert tier == "T3" and [h for h, _, _ in calls] == [[]]

    def test_icosahedron_t2_instance(self):
        _, tier = extend_at_edge(context_for(icosahedron()[0], (1, 2), 7))
        assert tier == "T2"

    def test_infeasible_ball_falls_through_to_t3(self, monkeypatch):
        # at k = Δ the ball of this grid edge has no coloring that fits the
        # colored edges around it; the whole subgraph does
        g = grid_graph(4, 5)
        ctx = context_for(g, (6, 7), 4)
        before = ctx.phi.items()
        calls = spy_searches(monkeypatch, ctx.phi)
        phi, tier = extend_at_edge(ctx)
        assert tier == "T3"
        assert calls == escalation_calls(g, (6, 7), before, None)
        assert validate_acyclic(ctx.phi.graph, phi).ok

    @pytest.mark.parametrize(
        "g, e, k, ball_nodes, want",
        [
            (path_graph(3), (0, 1), 12, colorer.BALL_NODES, "T1"),
            (icosahedron()[0], (1, 7), 7, colorer.BALL_NODES, "T2"),
            (octahedron()[0], (0, 2), 6, colorer.BALL_NODES, "T3"),
            (icosahedron()[0], (1, 7), 7, 1, "T3"),
        ],
        # the last two end on the whole-subgraph search (numbered T4 while
        # a move search came before it): once because the ball holds every
        # colored edge, once because the ball search runs out of nodes
        ids=["T1", "T2", "T3", "T4"],
    )
    def test_every_tier_edits_the_context_coloring(self, monkeypatch, g, e, k, ball_nodes, want):
        monkeypatch.setattr(colorer, "BALL_NODES", ball_nodes)
        ctx = context_for(g, e, k)
        phi, tier = extend_at_edge(ctx)
        assert tier == want
        assert phi is ctx.phi and validate_acyclic(g, phi).ok

    def test_t2_recolors_only_the_ball(self):
        # every T2 result on the golden fixtures is a complete acyclic
        # coloring, and each colored edge with an end outside the ball
        # (u, v and their neighbors) keeps its color
        t2 = 0
        for _, g, k, (u, v), phi in extension_cases():
            ball = {u, v, *g.neighbors(u), *g.neighbors(v)}
            outside = [(e, c) for e, c in phi.items() if not {*e} <= ball]
            try:
                _, tier = extend_at_edge(ExtensionContext(g, phi, u, v))
            except ExtensionFailed:
                continue
            if tier == "T2":
                t2 += 1
                assert phi.is_complete() and validate_acyclic(g, phi).ok
                assert all(phi.color_of(*e) == c for e, c in outside)
        assert t2 == 46

    def test_icosahedron_t3_instance(self, monkeypatch):
        # a T2 instance whose ball search runs out of nodes: T3 starts from
        # the coloring T2 was given
        g = icosahedron()[0]
        ctx = context_for(g, (1, 2), 7)
        before = ctx.phi.items()
        monkeypatch.setattr(colorer, "BALL_NODES", 1)
        calls = spy_searches(monkeypatch, ctx.phi)
        phi, tier = extend_at_edge(ctx)
        assert tier == "T3"
        assert calls == escalation_calls(g, (1, 2), before, EXHAUSTED)
        rep = validate_acyclic(ctx.phi.graph, phi)
        assert rep.ok and rep.max_color <= 7

    def test_t4_reached_when_t3_starved(self, monkeypatch):
        # the whole-subgraph search (T4 while a move search came before
        # it, T3 now) colors the edge when the tier before it is starved:
        # here the T2 instance of the icosahedron with a one-node ball
        g = icosahedron()[0]
        ctx = context_for(g, (1, 7), 7)
        before = ctx.phi.items()
        monkeypatch.setattr(colorer, "BALL_NODES", 1)
        calls = spy_searches(monkeypatch, ctx.phi)
        phi, tier = extend_at_edge(ctx)
        assert tier == "T3"
        assert calls == escalation_calls(g, (1, 7), before, EXHAUSTED)
        rep = validate_acyclic(ctx.phi.graph, phi)
        assert rep.ok and rep.max_color <= 7

    def test_extension_result_is_acyclic(self):
        for e in [(0, 4), (0, 2)]:
            ctx = context_for(octahedron()[0], e, 6)
            phi, _ = extend_at_edge(ctx)
            assert validate_acyclic(ctx.phi.graph, phi).ok

    def test_failed_searches_leave_the_table_as_found(self, monkeypatch):
        # the icosahedron's T2 instance with both searches starved: each
        # runs out of nodes, the whole-subgraph one with a color already
        # placed on its path, and the rows end as they began
        ctx = context_for(icosahedron()[0], (1, 2), 7)
        rows = [dict(row) for row in ctx.phi._nbr]
        monkeypatch.setattr(colorer, "BALL_NODES", 1)
        calls = spy_searches(monkeypatch, ctx.phi)
        with pytest.raises(ExtensionFailed, match="ran out of budget"):
            extend_at_edge(ctx, budget=SearchBudget(max_nodes=1))
        assert [o for *_, o in calls] == [EXHAUSTED, EXHAUSTED]
        assert ctx.phi._nbr == rows

    def test_t2_work_does_not_grow_with_the_graph(self, monkeypatch):
        # the icosahedron's T2 instance, alone and beside a disjoint,
        # completely colored 100x100 grid: T2 reads the rows of its ball,
        # never the whole table, so both make the same probes
        ico = icosahedron()[0]
        rows = [(u, v, c) for (u, v), c in context_for(ico, (1, 2), 7).phi.items()]
        grid = grid_graph(100, 100)
        grid_phi = acolor(grid)[0]
        assert grid_phi.max_color_used() <= 7
        shift = ico.n
        both = Graph(
            ico.n + grid.n, ico.edges() + [(u + shift, v + shift) for u, v in grid.edges()]
        )
        grid_rows = [(u + shift, v + shift, c) for (u, v), c in grid_phi.items()]
        counting, work = counting_coloring(monkeypatch)

        def whole_table(phi):
            raise AssertionError("the ball's rows leave it, yet T2 counted the whole table")

        monkeypatch.setattr(counting, "colored_edge_count", whole_table)
        probes = []
        for g, colored_rows in [(ico, rows), (both, rows + grid_rows)]:
            phi = counting.from_pairs(g, 7, colored_rows)
            ctx = ExtensionContext(g, phi, 1, 2)
            work[0] = 0
            _, tier = extend_at_edge(ctx)
            assert tier == "T2"
            probes.append(work[0])
        assert probes[0] == probes[1] > 0

    def test_t3_budget_exhaustion_fails_honestly(self):
        ctx = context_for(octahedron()[0], (0, 2), 6)
        before = ctx.phi.items()
        with pytest.raises(ExtensionFailed, match="ran out of budget"):
            extend_at_edge(ctx, budget=SearchBudget(max_nodes=1))
        assert ctx.phi.items() == before

    def test_impossible_palette_refutes_planarity(self):
        # C4 has no acyclic 2-coloring, so the last tier proves the palette
        # short; 2 colors is below Δ+10, so that refutes nothing
        g = cycle_graph(4)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
        with pytest.raises(ExtensionFailed, match="refutes nothing"):
            extend_at_edge(ExtensionContext(g, phi, 0, 3))

    def test_grid_refutation_instance(self):
        # the 3x3 grid at k = 3 < Δ+10: a short palette, not evidence
        g = grid_graph(3, 3)
        ctx = context_for(g, (1, 4), 3)
        with pytest.raises(ExtensionFailed, match="below its Δ\\+10 = 14"):
            extend_at_edge(ctx)

    def test_full_palette_refutation_is_evidence(self, monkeypatch):
        # a search that finds no coloring with Δ(sub)+10 colors refutes
        # planarity; with one color fewer it refutes nothing
        g = path_graph(3)
        monkeypatch.setattr(PartialEdgeColoring, "_extend", lambda phi, us, vs, i, stop: (i, None))
        monkeypatch.setattr(oracle, "_search", lambda *args: None)
        with pytest.raises(NotPlanarEvidence, match="refutes planarity"):
            extend_at_edge(ExtensionContext(g, colored(g, 12, [(1, 2, 1)]), 0, 1))
        with pytest.raises(ExtensionFailed, match="refutes nothing"):
            extend_at_edge(ExtensionContext(g, colored(g, 11, [(1, 2, 1)]), 0, 1))


class TestAcolor:
    def test_star_uses_exactly_its_degree(self):
        g = star_graph(6)
        phi, trace = acolor(g)
        assert validate_acyclic(g, phi).ok
        assert sorted(c for _, c in phi.items()) == [1, 2, 3, 4, 5, 6]
        assert [s.tier for s in trace] == ["T1"] * 6

    def test_k4_within_oracle_sandwich(self):
        g = complete_graph(4)
        phi, _ = acolor(g)
        rep = validate_acyclic(g, phi)
        assert rep.ok
        assert 5 <= rep.max_color <= 13  # oracle floor, degree+10 ceiling

    def test_dodecahedron(self):
        g, _ = dodecahedron()
        phi, _ = acolor(g)
        rep = validate_acyclic(g, phi)
        assert rep.ok and rep.max_color <= 13

    def test_octahedron_bound(self):
        g, _ = octahedron()
        phi, _ = acolor(g)
        rep = validate_acyclic(g, phi)
        assert rep.ok and rep.max_color <= 14

    def test_deterministic(self):
        g, _ = generate_apollonian(40, seed=6)
        p1, t1 = acolor(g)
        p2, t2 = acolor(g)
        assert p1.items() == p2.items()
        assert [s.tier for s in t1] == [s.tier for s in t2]

    def test_disconnected_components(self):
        # two K4s
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges]
        g = Graph(8, edges)
        phi, _ = acolor(g)
        assert validate_acyclic(g, phi).ok

    def test_edgeless(self):
        phi, trace = acolor(Graph(5, []))
        assert phi.is_complete() and len(trace) == 0

    def test_single_edge_gets_color_one(self):
        phi, _ = acolor(Graph(2, [(0, 1)]))
        assert phi.color_of(0, 1) == 1

    def test_k7_refuted(self):
        with pytest.raises(NotPlanarEvidence):
            acolor(complete_graph(7))

    def test_apollonian_within_bound(self):
        g, _ = generate_apollonian(80, seed=3)
        phi, trace = acolor(g)
        rep = validate_acyclic(g, phi)
        assert rep.ok and rep.max_color <= g.max_degree() + 10
        assert {s.tier for s in trace} <= {"T1", "T2", "T3"}
        assert len(trace) == g.m


class TestTrace:
    def test_steps_keep_their_types(self):
        g, _ = generate_apollonian(200, seed=1)
        _, trace = acolor(g)
        assert len(trace) == g.m
        assert all(type(step) is TraceStep for step in trace)
        assert all(type(step.config) is Configuration for step in trace)

    def test_equality_hashing_and_repr_read_the_steps(self):
        _, trace = acolor(complete_graph(4))
        built = ReductionTrace(trace.steps)
        assert trace == built and hash(trace) == hash(built) == hash(trace.steps)
        assert trace.__eq__(trace.steps) is NotImplemented and trace != trace.steps
        assert trace != ReductionTrace(trace.steps[:-1])
        assert repr(trace) == repr(built) == f"ReductionTrace(steps={trace.steps!r})"

    def test_json_puts_config_vertex_second(self):
        g = complete_graph(4)
        _, trace = acolor(g)
        for step, d in zip(trace, trace.to_json_dict()["steps"], strict=True):
            assert d["edge"][1] == step.config.vertex
            assert d["tier"] in ("T1", "T2", "T3")
            assert d["config"] in ("A1", "A2", "A3", "A4")

    def test_replay_reproduces_coloring(self):
        g, _ = generate_apollonian(30, seed=2)
        phi, trace = acolor(g)
        again = replay_trace(g, trace)
        assert again.items() == phi.items()

    def test_replay_rejects_foreign_trace(self):
        _, trace = acolor(complete_graph(4))
        with pytest.raises(ValueError, match="missing edge|unremoved"):
            replay_trace(cycle_graph(4), trace)

    def test_replay_rejects_truncated_trace(self):
        g = complete_graph(4)
        _, trace = acolor(g)
        short = ReductionTrace(trace.steps[:-1])
        with pytest.raises(ValueError, match="unremoved"):
            replay_trace(g, short)

    def test_replay_rejects_duplicate_removal(self):
        g = complete_graph(4)
        _, trace = acolor(g)
        twice = ReductionTrace(trace.steps[:-1] + trace.steps[:1])
        with pytest.raises(ValueError, match="missing edge"):
            replay_trace(g, twice)

    def test_replay_rejects_float_ids(self):
        # (1.0, 2.0) equals the edge (1, 2), but a float indexes no row of
        # the graph: the removal check refuses it before any re-insertion
        g = path_graph(3)
        _, trace = acolor(g)
        steps = [
            TraceStep(
                tuple(map(float, s.edge)),
                s.config._replace(vertex=float(s.config.vertex)),
                s.tier,
            )
            for s in trace.steps
        ]
        with pytest.raises(ValueError) as exc:
            replay_trace(g, ReductionTrace(tuple(steps)))
        assert str(exc.value) == f"trace replays removal of missing edge {steps[0].edge}"

    def test_replay_rejects_tampered_tier(self):
        g, _ = generate_apollonian(12, seed=1)
        _, trace = acolor(g)
        steps = list(trace.steps)
        victim = next(i for i, s in enumerate(steps) if s.tier == "T1")
        # the message names the edge as the trace gives it, reversed here
        u, v = steps[victim].edge
        steps[victim] = TraceStep((v, u), steps[victim].config, "T2")
        with pytest.raises(ValueError) as exc:
            replay_trace(g, ReductionTrace(tuple(steps)))
        assert str(exc.value) == f"trace mismatch at edge {(v, u)}: recorded T2, got T1"

    def test_replay_rejects_missing_tiers(self):
        # a step that records no tier is refused, not filled in: the first
        # in re-insertion order is the trace's last step
        g, _ = generate_apollonian(50, seed=1)
        _, trace = acolor(g)
        steps = tuple(TraceStep(s.edge, s.config, None) for s in trace.steps)
        last = len(steps) - 1
        with pytest.raises(ValueError) as exc:
            replay_trace(g, ReductionTrace(steps))
        assert str(exc.value) == f"trace step {last} (edge {steps[last].edge}) records no tier"

    def test_replay_rejects_vertex_off_its_edge(self):
        # a vertex off the edge would pick the wrong u, and the replay would
        # fail later at a non-edge or an already colored edge
        g = cycle_graph(5)
        _, trace = acolor(g)
        steps = list(trace.steps)
        step = steps[2]
        off = next(x for x in g.vertices() if x not in step.edge)
        steps[2] = TraceStep(step.edge, step.config._replace(vertex=off), step.tier)
        with pytest.raises(ValueError, match=f"trace step 2 .* vertex {off}$"):
            replay_trace(g, ReductionTrace(tuple(steps)))

    def test_trace_refuses_vertex_off_its_edge(self):
        # the trace keeps each step's far end, which such a step lacks, so
        # the refusal comes when the trace is built, before any replay
        g = cycle_graph(5)
        _, trace = acolor(g)
        steps = list(trace.steps)
        step = steps[2]
        off = next(x for x in g.vertices() if x not in step.edge)
        steps[2] = TraceStep(step.edge, step.config._replace(vertex=off), step.tier)
        with pytest.raises(ValueError) as exc:
            ReductionTrace(tuple(steps))
        assert str(exc.value) == (
            f"trace step 2 removes edge {step.edge}, which does not meet "
            f"its configuration vertex {off}"
        )

    def test_only_steps_build_configurations(self, monkeypatch, tmp_path):
        # colouring, replay, len, the JSON document and `color --trace` read
        # the flat record; the first read of `steps` matches each step once
        g, _ = generate_apollonian(2000, seed=11)
        calls = 0

        def counted(f):
            def call(*args):
                nonlocal calls
                calls += 1
                return f(*args)

            return call

        monkeypatch.setattr(colorer, "_match", counted(colorer._match))
        monkeypatch.setattr(scanner, "_match", counted(scanner._match))
        phi, trace = acolor(g)
        assert replay_trace(g, trace).items() == phi.items()
        assert len(trace) == g.m and len(trace.to_json_dict()["steps"]) == g.m
        src, out = tmp_path / "g.txt", tmp_path / "t.json"
        src.write_text(format_edge_list(g))
        code = cli.main(["color", "--in", str(src), "--out", str(tmp_path / "c.json"), "--trace", str(out)])
        assert code == 0 and len(json.loads(out.read_text())["steps"]) == g.m
        assert calls == 0
        steps = trace.steps
        assert calls == g.m and len(steps) == g.m
        assert list(trace) == list(steps) and trace == trace and calls == g.m

    def test_tampered_kind_fails_the_first_read(self):
        g, _ = generate_apollonian(200, seed=1)
        _, trace = acolor(g)
        i = trace._kinds.index("A3")
        v = trace._vertices[i]
        trace._kinds[i] = "A2"
        with pytest.raises(AssertionError) as exc:
            trace.steps
        assert str(exc.value) == f"trace step {i} records A2 at vertex {v}, but the graph there gives A3"

    def test_record_stays_small(self):
        # the live trace beyond the colouring holds four lists, a pointer
        # per step each, plus an int object per vertex: about 35 B per edge
        # (Python 3.11), against 331 with a Configuration per step.  The
        # peak of `acolor` itself fell from 684 to 335 B per edge with
        # those lists, and to about 222 once the colouring kept its colors
        # only in the per-vertex rows and the peel stopped making a tuple
        # per edge
        g, _ = generate_apollonian(30000, seed=11)
        tracemalloc.start()
        try:
            phi, trace = acolor(g)
            live, peak = tracemalloc.get_traced_memory()
            del trace
            colouring = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert phi.is_complete()
        assert (live - colouring) / g.m < 40
        assert peak / g.m < 280


def refuse_first_fit(monkeypatch, target):
    """Make the first-fit loop find no color for the edge `target`, and
    record each edge it colors as (coloring, edge) in the returned list.

    The patched loop runs its steps one at a time through the real one,
    and stops at `target`'s step as the real one stops where it finds no
    color: uncolored, before any later step."""
    extend = PartialEdgeColoring._extend
    puts = []

    def refusing(phi, us, vertices, i, stop):
        for j in range(i, -1, -1):
            edge = (min(us[j], vertices[j]), max(us[j], vertices[j]))
            if edge == target:
                return j, None
            c = extend(phi, us[j : j + 1], vertices[j : j + 1], 0, 0)[1]
            if c is None:
                return j, None
            puts.append((phi, edge))
            if j == stop:
                return j, c
        return -1, None

    monkeypatch.setattr(PartialEdgeColoring, "_extend", refusing)
    return puts


def check_aids_after_escalation(monkeypatch):
    """After each escalation, check first fit's two aids on the coloring:
    every skip-map entry passes only used colors, and the jump table is
    empty.  Every walk records its end in the jump table, so it is full
    when the escalation starts.  Returns the list of tiers reached."""
    tiers = []
    escalate = colorer._escalate

    def checked(phi, u, v, budget):
        assert phi._ends
        tier = escalate(phi, u, v, budget)
        assert_skip_maps_exact(phi)
        assert not phi._ends
        tiers.append(tier)
        return tier

    monkeypatch.setattr(coloring, "_CACHE_MIN_WALK", 0)
    monkeypatch.setattr(colorer, "_escalate", checked)
    return tiers


class TestReinsertEscalation:
    """The escalation branch of the re-insertion loop, which no input
    reaches at Δ+10: first fit refuses one edge of the icosahedron, so the
    ball search colors it, or, when the ball search runs out of nodes or
    finds no coloring, the whole-subgraph search."""

    @pytest.mark.parametrize(
        "want, ball",
        [("T2", "open"), ("T3", "starved"), ("T3", "infeasible")],
        # "T4": the whole-subgraph search's number while a move search came
        # before it; it is T3 now, reached here past a refuted ball
        ids=["T2", "T3", "T4"],
    )
    def test_acolor_and_replay_escalate(self, monkeypatch, want, ball):
        g = icosahedron()[0]
        _, plain = acolor(g)
        # twelve steps come after this one
        at = 12
        target = plain.steps[at].edge
        later = {s.edge for s in plain.steps[:at]}
        puts = refuse_first_fit(monkeypatch, target)
        if ball == "starved":
            monkeypatch.setattr(colorer, "BALL_NODES", 1)
        elif ball == "infeasible":
            def refuse_balls(nbr, edges, k, symmetric, max_nodes):
                return _search(nbr, edges, k, symmetric, max_nodes) if symmetric else None

            monkeypatch.setattr(oracle, "_search", refuse_balls)
        escalated = check_aids_after_escalation(monkeypatch)
        phi, trace = acolor(g)
        assert escalated == [want]
        assert [s.tier for s in trace] == [want if i == at else "T1" for i in range(len(trace))]
        assert [s.edge for s in trace] == [s.edge for s in plain]
        assert validate_acyclic(g, phi).ok and phi.is_complete()
        # after the step, the searched coloring included, every write lands
        # in the coloring that is returned
        assert all(obj is phi for obj, e in puts if e in later)
        puts.clear()
        again = replay_trace(g, trace)
        assert again.items() == phi.items() and escalated == [want, want]
        assert all(obj is again for obj, e in puts if e in later)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=f"recorded {want}, got T1"):
            replay_trace(g, trace)


class TestFirstFitWork:
    """Re-insertion builds no ExtensionContext, and calls the checked
    `assign` only when an escalation's search fails and puts its edges
    back; these inputs never escalate."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: generate_apollonian(3000, seed=11)[0],
            lambda: star_graph(5000),
            lambda: wheel_graph(3000),
            lambda: grid_graph(60, 60),
        ],
        ids=["apollonian3000", "star5000", "wheel3000", "grid60x60"],
    )
    def test_t1_steps_build_no_context(self, monkeypatch, build):
        g = build()
        calls = {"contexts": 0, "assigns": 0}

        def counted(key, f):
            def call(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)

            return call

        monkeypatch.setattr(
            ExtensionContext, "__init__", counted("contexts", ExtensionContext.__init__)
        )
        monkeypatch.setattr(
            PartialEdgeColoring, "assign", counted("assigns", PartialEdgeColoring.assign)
        )
        phi, trace = acolor(g)
        escalated = sum(s.tier != "T1" for s in trace)
        assert calls == {"contexts": escalated, "assigns": escalated} and escalated == 0
        assert replay_trace(g, trace).items() == phi.items()
        assert calls == {"contexts": 0, "assigns": 0}
