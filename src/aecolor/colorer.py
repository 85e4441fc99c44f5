"""Constructive acyclic edge coloring with max degree + 10 colors.

The driver peels one configuration edge at a time until no edges remain,
then re-inserts the edges in reverse, extending the coloring across each.
Extension escalates through three tiers:

  T1  pick a color free at both ends that closes no bichromatic cycle
  T2  exact search on the distance-1 ball: uv and the colored edges with
      both ends among u, v and their colored neighbors are recolored, and
      every other colored edge keeps its color (a node budget, BALL_NODES)
  T3  exact search over the whole colored subgraph and uv

T2 and T3 are one search, the oracle's core, run in place on the color
table of the one coloring they are given.  A T2 failure proves nothing and
changes nothing; it is skipped when the ball already holds every colored
edge.  T3 proving the palette short refutes planarity only when the
palette has at least Δ+10 colors for the subgraph it searched.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .coloring import PartialEdgeColoring, _check_graph, validate_acyclic
from .errors import ExtensionFailed, ImproperColoringError, NotPlanarEvidence
from .graphs import Graph, _canon
from .scanner import _CAPS, _KIND_BY_DEGREE, Configuration, _match, classify_vertex

if TYPE_CHECKING:
    from .oracle import SearchBudget

BALL_NODES = 100_000

# _RECHECK[c]: the degrees of the vertices whose cap test can change when a
# neighbor's degree falls onto c, that is, the degrees whose kind has cap c
_RECHECK = {
    c: frozenset(d for d, kind in _KIND_BY_DEGREE.items() if c in _CAPS[kind])
    for caps in _CAPS.values()
    for c in caps
}


class ExtensionContext:
    """State around one uncolored edge uv during extension.

    v is the configuration vertex whose removal produced the edge; u is the
    neighbor it was removed toward.  The coloring must be proper, and every
    edge of the current subgraph except uv is expected to be colored.
    """

    __slots__ = ("phi", "u", "v")

    def __init__(self, graph: Graph, phi: PartialEdgeColoring, u: int, v: int):
        _check_graph(graph, phi)
        if not graph.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        if phi.color_of(u, v) is not None:
            raise ValueError(f"edge ({u}, {v}) is already colored")
        if phi.violations:
            raise ImproperColoringError("context requires a proper coloring")
        self.phi = phi
        self.u = u
        self.v = v


class TraceStep(NamedTuple):
    edge: tuple[int, int]
    config: Configuration
    tier: str


def _configurations(
    g: Graph, us: list[int], vertices: list[int], kinds: list[str]
) -> list[Configuration]:
    # each step's configuration, re-derived by replaying the removals on
    # adjacency sets and matching the step's vertex at its stage: O(m), as
    # every configuration vertex has degree 5 or less
    adj = list(map(set, g._adj))
    configs = []
    for i, (u, v, kind) in enumerate(zip(us, vertices, kinds)):
        cfg = _match(v, sorted([(len(adj[w]), w) for w in adj[v]]))
        if cfg is None or cfg.kind != kind:
            got = None if cfg is None else cfg.kind
            raise AssertionError(
                f"trace step {i} records {kind} at vertex {v}, but the graph there gives {got}"
            )
        configs.append(cfg)
        adj[u].remove(v)
        adj[v].remove(u)
    return configs


class ReductionTrace:
    """Removal-ordered log of (edge, configuration, extension tier).

    The log is four flat lists, one entry per step: the removed edge's far
    end u, the configuration vertex v, the configuration kind and the tier.
    `len`, `to_json_dict` and `replay_trace` read only those.  `steps`,
    iteration, equality, hashing and repr read the `TraceStep` tuple, which
    a trace from `acolor` builds on first read: it makes each canonical
    edge from (u, v), replays the removals on the graph and re-derives each
    configuration, O(m) in all, and raises AssertionError where a
    re-derived kind differs from the recorded one.  A trace built from
    steps refuses one whose vertex is off its edge (ValueError).
    """

    __slots__ = ("_us", "_vertices", "_kinds", "_tiers", "_graph", "_steps")

    def __init__(self, steps: tuple[TraceStep, ...]):
        self._steps = steps = tuple(steps)
        self._graph = None
        self._vertices = [s.config.vertex for s in steps]
        self._us = us = []
        for i, ((a, b), v) in enumerate(zip((s.edge for s in steps), self._vertices)):
            if v != a and v != b:
                raise ValueError(
                    f"trace step {i} removes edge {(a, b)}, which does not meet "
                    f"its configuration vertex {v}"
                )
            us.append(a if b == v else b)
        self._kinds = [s.config.kind for s in steps]
        self._tiers = [s.tier for s in steps]

    @classmethod
    def _peeled(
        cls, g: Graph, us: list[int], vertices: list[int], kinds: list[str], tiers: list[str]
    ) -> ReductionTrace:
        # the trace of `_peel(g, us, vertices, kinds)` re-inserted on
        # `tiers`: it keeps the lists, and g to build its steps from
        trace = cls.__new__(cls)
        trace._us, trace._vertices, trace._kinds, trace._tiers = us, vertices, kinds, tiers
        trace._graph, trace._steps = g, None
        return trace

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        if self._steps is None:
            configs = _configurations(self._graph, self._us, self._vertices, self._kinds)
            edges = map(_canon, self._us, self._vertices)
            # tuple.__new__ skips TraceStep's Python-level __new__ but keeps its type
            self._steps = tuple(
                map(tuple.__new__, repeat(TraceStep), zip(edges, configs, self._tiers))
            )
        return self._steps

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReductionTrace):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"ReductionTrace(steps={self.steps!r})"

    def __len__(self) -> int:
        return len(self._us)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def to_json_dict(self) -> dict:
        # the second endpoint is the configuration vertex, so replay can
        # reconstruct the context without re-scanning
        rows = zip(self._us, self._vertices, self._kinds, self._tiers)
        return {"steps": [{"edge": [u, v], "config": k, "tier": t} for u, v, k, t in rows]}


def choose_reduction_edge(g: Graph) -> tuple[tuple[int, int], Configuration]:
    """Deterministic next edge to peel, with the configuration justifying it.

    A vertex of degree 1 or 2 wins outright (smallest id, edge to its
    smallest neighbor).  Otherwise the scan runs on the graph with all
    2-vertices deleted, mapped back, and returns the edge from the
    configuration vertex to its minimum-(degree, id) neighbor.  Vertices
    isolated at the current stage are skipped: they admit no edge.  This
    is the reference rule; `acolor` peels with `_peel`, which records
    the same sequence incrementally.
    """
    if g.m == 0:
        raise ValueError("graph has no edges to reduce")
    for v in g.vertices():
        if 1 <= g.degree(v) <= 2:
            cfg = classify_vertex(g, v)
            assert cfg is not None and cfg.kind == "A1"
            return _canon(v, g.neighbors(v)[0]), cfg
    # past this point no vertex has degree 1 or 2, so deleting all
    # 2-vertices is the identity and the scan can run on g directly
    for v in g.vertices():
        if g.degree(v) == 0:
            continue
        cfg = classify_vertex(g, v)
        if cfg is None:
            continue
        return _canon(v, cfg.neighbors[0][0]), cfg
    raise NotPlanarEvidence(
        f"no reducible configuration in a graph with n={g.n}, m={g.m}; "
        "a planar graph always has one"
    )


def _peel(g: Graph, us: list[int], vertices: list[int], kinds: list[str]) -> None:
    """The `choose_reduction_edge` + `remove_edge` loop, run incrementally.

    Appends each removal's far end u, configuration vertex v and
    configuration kind to the three lists, in that loop's order, so a
    refutation leaves the steps made so far.  It builds no edge tuple and
    no `Configuration`: `ReductionTrace.steps` makes both on first read.  The
    graph is not touched.  Two min-heaps of vertex ids replace the rescan
    from vertex 0 (the smallest-last bookkeeping of Matula & Beck, J. ACM
    30, 1983): `low` holds every vertex of degree 1-2 and `cand` every
    vertex of degree 3-5 that may classify.  An entry's key is the vertex
    id, which never changes, so `cand` holds a vertex at most once, while
    `queued` flags it.  Entries go stale as degrees fall and are checked
    when popped.

    A vertex v from `low` is A1 by its degree, with no cap test, and peels
    its edge toward its smaller-id neighbor.  It goes on peeling its edges
    without the heap: removing vu changes only the degrees of v and u, so v
    stays the least vertex of degree 1-2 unless it is left isolated, which
    ends its run, or u < v falls to degree 1 or 2, which puts v back on
    `low`.  A vertex v from `cand` takes the cap test and peels its edge
    toward its least (degree, id) neighbor.  `low` was empty then, so a v
    left with degree 2 runs on as A1 in the same way.

    The cap test is `scanner._kind`'s, inline on ints: a neighbor w's key
    deg[w] * n + w orders as (degree, id) does, and deg[w] <= c exactly
    when the key is below (c + 1) * n.  A 3-vertex needs only its least
    key; a 4- or 5-vertex sorts its keys.

    After any removal, u is queued by its new degree, and a neighbor w of u
    only when u's degree has just fallen onto a cap of w's kind
    (`_RECHECK`; every cap is 6 or more, so a degree of 5 or less is not
    looked up).  That is enough: w's cap test asks, for each cap c_j of its
    kind, whether at least j of its neighbors have degree <= c_j.  When a
    neighbor's degree falls from c+1 to c, only the count at cap c grows
    (the counts at caps above c held it already, those below c still do
    not), so a test that failed can start to pass only when c is one of w's
    caps; w's own degree changes only when w is an endpoint.  v itself had
    degree 5 or less, so its fall crosses no cap.  Every vertex that
    classifies is therefore in `cand`.
    """
    adj = list(map(set, g._adj))
    deg = [len(a) for a in adj]
    n = len(adj)
    m = g.m
    # map, not a comprehension: under Python 3.11 a comprehension that read
    # n would make n a cell variable, slower at every read in the loop
    t2, t30, t31, t40, t41, t42 = map(
        n.__mul__, [c + 1 for kind in ("A2", "A3", "A4") for c in _CAPS[kind]]
    )
    add_u, add_vertex, add_kind = us.append, vertices.append, kinds.append
    # ascending lists are already heaps
    low = [v for v, d in enumerate(deg) if 1 <= d <= 2]
    cand = [v for v, d in enumerate(deg) if 3 <= d <= 5]
    queued = bytearray(n)
    for v in cand:
        queued[v] = 1
    while m:
        while low and not 1 <= deg[low[0]] <= 2:
            heappop(low)
        if low:
            v = heappop(low)
            a = adj[v]
            u = -1
            kind = "A1"
        else:
            kind = None
            while cand:
                v = heappop(cand)
                queued[v] = 0
                a = adj[v]
                d = deg[v]
                if d == 3:
                    x, y, z = a
                    k = min(deg[x] * n + x, deg[y] * n + y, deg[z] * n + z)
                    if k < t2:
                        kind = "A2"
                        break
                elif d == 4:
                    w, x, y, z = a
                    k, k1, _, _ = sorted(
                        (deg[w] * n + w, deg[x] * n + x, deg[y] * n + y, deg[z] * n + z)
                    )
                    if k < t30 and k1 < t31:
                        kind = "A3"
                        break
                elif d == 5:
                    w, x, y, z, q = a
                    k, k1, k2, _, _ = sorted(
                        (deg[w] * n + w, deg[x] * n + x, deg[y] * n + y,
                         deg[z] * n + z, deg[q] * n + q)
                    )
                    if k < t40 and k1 < t41 and k2 < t42:
                        kind = "A4"
                        break
            if kind is None:
                raise NotPlanarEvidence(
                    f"no reducible configuration in a graph with n={n}, "
                    f"m={m}; a planar graph always has one"
                )
            u = k % n
        # v's run: one step from cand, or A1 steps until one ends it
        while True:
            if u < 0:
                if len(a) == 1:
                    (u,) = a
                else:
                    u, w = a
                    if w < u:
                        u = w
            add_u(u)
            add_vertex(v)
            add_kind(kind)
            a.remove(u)
            adj[u].remove(v)
            m -= 1
            dv = deg[v] = deg[v] - 1
            d = deg[u] = deg[u] - 1
            if d < 3:
                if d:
                    heappush(low, u)
            elif d < 6:
                if not queued[u]:
                    queued[u] = 1
                    heappush(cand, u)
            elif recheck := _RECHECK.get(d):
                for w in adj[u]:
                    if deg[w] in recheck and not queued[w]:
                        queued[w] = 1
                        heappush(cand, w)
            if not dv:
                break
            if dv > 2:
                # an A3 or A4 step: v may classify at its new degree
                queued[v] = 1
                heappush(cand, v)
                break
            if u < v and 0 < d < 3:
                # u is now the least vertex of degree 1-2
                heappush(low, v)
                break
            u = -1
            kind = "A1"


def _escalate(phi: PartialEdgeColoring, u: int, v: int, budget: Optional[SearchBudget]) -> str:
    # T2, then T3, for the uncolored edge uv on which T1 has just failed;
    # returns the tier.  Each search unassigns its edges and colors them and
    # uv in phi's own table; if it fails it assigns them back.  The only use
    # of the oracle, so a run that never escalates never imports it
    from .oracle import EXHAUSTED, SearchBudget, _search

    nbr, k = phi._nbr, phi.k

    def search(edges: list[tuple[int, int]], symmetric: bool, max_nodes: int):
        colors = [phi.unassign(x, y) for x, y in edges]
        found = _search(nbr, sorted(edges + [_canon(u, v)]), k, symmetric, max_nodes)
        if not isinstance(found, dict):
            for (x, y), c in zip(edges, colors):
                phi.assign(x, y, c)
        return found

    # T2 is skipped when the ball holds every colored edge: when none of its
    # rows leaves it, and only then is the whole table counted
    ball = {u, v, *nbr[u].values(), *nbr[v].values()}
    edges = [(x, y) for x in ball for y in nbr[x].values() if x < y and y in ball]
    closed = sum(len(nbr[x]) for x in ball) == 2 * len(edges)
    if not closed or len(edges) < phi.colored_edge_count():
        if isinstance(search(edges, False, BALL_NODES), dict):
            return "T2"
    edges = [(x, y) for x, row in enumerate(nbr) for y in row.values() if x < y]
    found = search(edges, True, (budget or SearchBudget()).max_nodes)
    if found is EXHAUSTED:
        raise ExtensionFailed(f"exhaustive recoloring ran out of budget at edge ({u}, {v})")
    if found is None:
        short = (
            f"no acyclic edge coloring with {k} colors exists for the current "
            f"subgraph (n={phi.graph.n}, m={len(edges) + 1})"
        )
        bound = max(*map(len, nbr), len(nbr[u]) + 1, len(nbr[v]) + 1) + 10
        if k >= bound:
            raise NotPlanarEvidence(f"{short}; the palette bound refutes planarity")
        raise ExtensionFailed(
            f"{short}; the palette is below its Δ+10 = {bound}, so this refutes nothing"
        )
    return "T3"


def extend_at_edge(
    ctx: ExtensionContext, *, budget: Optional[SearchBudget] = None
) -> tuple[PartialEdgeColoring, str]:
    """Color the edge uv, escalating through the tiers; returns (phi, tier).

    Every tier edits the context's coloring in place, and phi is that
    coloring; a tier that fails leaves it as it was.  `budget` bounds T3's
    search (ExtensionFailed when it runs out); T2's is `BALL_NODES`.
    """
    phi, u, v = ctx.phi, ctx.u, ctx.v
    # one step of the first-fit loop; the context holds uv as an uncolored edge
    if phi._extend((u,), (v,), 0, 0)[1] is not None:
        return phi, "T1"
    return phi, _escalate(phi, u, v, budget)


class _TierMismatch(Exception):
    """Re-insertion step i landed on `got`, not on its recorded tier."""


def _reinsert(
    g: Graph,
    us: list[int],
    vertices: list[int],
    tiers: list[Optional[str]],
    record: bool = False,
) -> PartialEdgeColoring:
    # the one re-insertion loop: palette Δ+10, last removal first, the edge
    # from us[i] to vertices[i] extended from u toward v.  tiers[i] is the
    # tier step i must land on, else _TierMismatch (a None never matches);
    # with `record` it is "T1" on entry and the tier an escalated step
    # lands on is written over it.  (A pair per step, kept for the loop,
    # made replay about 20% slower in the garbage collector.)
    #
    # T1 is `phi._extend`, which colors every step from i down until first
    # fit finds no color, or until it has colored the step it is told to
    # stop at: in replay the next step not recorded as "T1", so that a
    # mismatch there is refused before any later step runs.  Only there
    # does control come back here.  Escalation gets phi, u and v, not an
    # ExtensionContext; what the context's guards check holds: phi is made
    # here on g; (1) each (us[i], vertices[i]) is an edge of g, from
    # `_peel(g, ...)` or checked by `replay_trace`'s pass over g's rows;
    # (2) each is re-inserted once, so it is uncolored when reached; (3)
    # the coloring is built only by proper writes, so it stays proper.
    phi = PartialEdgeColoring(g, g.max_degree() + 10)
    # replay stops at each step not recorded as "T1", last first; nearly
    # every trace has none, which `count` finds without a Python loop
    stops = []
    if not record and tiers.count("T1") < len(tiers):
        stops = [j for j, t in enumerate(tiers) if t != "T1"]
    # every tier edits phi in place, so its bound method holds throughout
    extend = phi._extend
    i = len(us) - 1
    while True:
        i, c = extend(us, vertices, i, stops.pop() if stops else -1)
        if i < 0:
            return phi
        tier = "T1" if c is not None else _escalate(phi, us[i], vertices[i], None)
        if tier != tiers[i]:
            if not record:
                raise _TierMismatch(i, tier)
            tiers[i] = tier
        i -= 1


def acolor(g: Graph) -> tuple[PartialEdgeColoring, ReductionTrace]:
    """Acyclic edge coloring of a planar graph with at most Δ+10 colors.

    Peels configuration edges until none remain, then re-inserts them in
    reverse, extending the coloring across each through tiers T1-T3 at
    palette Δ+10 (on every input measured, T1 alone colors every edge).
    The peeling (`_peel`) runs incrementally, in near-linear time, and
    removes the same edges in the same order as calling
    `choose_reduction_edge` and `Graph.remove_edge` in a loop; its far-end
    and vertex lists go straight to re-insertion.  The result is validated
    before it is returned.  On inputs that are not actually planar this
    either still succeeds (the bound is one-sided) or raises
    NotPlanarEvidence.  The trace keeps the far-end, vertex and kind lists
    of the peel and the tiers of re-insertion; it builds its `TraceStep`s,
    with their canonical edges and configurations, only when first read.
    """
    us, vertices, kinds = [], [], []
    _peel(g, us, vertices, kinds)
    tiers = ["T1"] * len(us)
    phi = _reinsert(g, us, vertices, tiers, record=True)
    report = validate_acyclic(g, phi)
    if not report.ok:
        raise AssertionError(f"final coloring failed validation: {report}")
    return phi, ReductionTrace._peeled(g, us, vertices, kinds, tiers)


def replay_trace(g: Graph, trace: ReductionTrace) -> PartialEdgeColoring:
    """Re-run the extension along a recorded trace; returns the coloring.

    The removals must take each edge of the graph once and each extension
    must land on the recorded tier, or the trace does not belong to this
    graph and a ValueError is raised: for a tier, at the first step that
    misses it in re-insertion order, before any later step runs.  A step
    that records no tier (None) misses it too, and its refusal says so.
    (`ReductionTrace` refuses a step whose vertex is off its edge.)  It
    reads the far-end, vertex and tier lists and builds no edge tuple and
    no `Configuration`; a refusal names the edge as the trace's steps do.
    """
    adj, n = g._adj, g.n
    # removed[start[a] + j]: whether the edge from a to adj[a][j] has gone
    start = list(accumulate(map(len, adj), initial=0))
    removed = bytearray(start[-1])
    for i, (a, b) in enumerate(zip(trace._us, trace._vertices)):
        if b < a:
            a, b = b, a
        # a float id such as 1.0 equals an int one but indexes no row
        if type(a) is int and type(b) is int and 0 <= a and b < n:
            row = adj[a]
            j = bisect_left(row, b)
            if j < len(row) and row[j] == b and not removed[start[a] + j]:
                removed[start[a] + j] = 1
                continue
        raise ValueError(f"trace replays removal of missing edge {trace.steps[i].edge}")
    if len(trace) < g.m:
        raise ValueError(f"trace leaves {g.m - len(trace)} edges unremoved")
    tiers = trace._tiers
    try:
        return _reinsert(g, trace._us, trace._vertices, tiers)
    except _TierMismatch as exc:
        i, got = exc.args
        edge = trace.steps[i].edge
        if tiers[i] is None:
            raise ValueError(f"trace step {i} (edge {edge}) records no tier") from None
        raise ValueError(f"trace mismatch at edge {edge}: recorded {tiers[i]}, got {got}") from None
