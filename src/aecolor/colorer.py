"""Constructive acyclic edge coloring with max degree + 10 colors.

The driver peels one configuration edge at a time until no edges remain,
then re-inserts the edges in reverse, extending the coloring across each.
Extension escalates through four tiers:

  T1  pick a color free at both ends that closes no bichromatic cycle
  T2  one local recoloring move (recolor a spoke at the configuration
      vertex with a color of multiplicity <= 1 around its neighbors, or
      swap two spoke colors at either endpoint), then retry T1
  T3  bounded search over move sequences near the edge (depth <= 3,
      edges within distance 2, explicit state budget)
  T4  exhaustive recoloring of the current subgraph over the full palette

Every move is verified against the coloring before it is accepted; the
recoloring scripts are treated as heuristics, not as trusted proofs.  T4
failing exhaustively is a certificate that the palette bound is violated,
which refutes the caller's planarity assertion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator, Optional

from .coloring import (
    PartialEdgeColoring,
    closes_cycle,
    forbidden_from,
    validate_acyclic,
)
from .errors import (
    ExtensionFailed,
    ImproperColoringError,
    MoveRejected,
    NotPlanarEvidence,
)
from .graphs import Graph, _canon
from .oracle import EXHAUSTED, SearchBudget, search_acyclic_coloring
from .scanner import _CAPS, Configuration, classify_vertex

T3_STATE_BUDGET = 100_000
T3_DEPTH = 3


class ExtensionContext:
    """State around one uncolored edge uv during extension.

    v is the configuration vertex whose removal produced the edge; u is the
    neighbor it was removed toward.  The coloring must be proper, and every
    edge of the current subgraph except uv is expected to be colored.
    Derived sets (the free palette, the neighbor multiset) are recomputed
    from the coloring on every access rather than cached, so they stay
    honest across moves.
    """

    __slots__ = ("graph", "phi", "u", "v", "k")

    def __init__(self, graph: Graph, phi: PartialEdgeColoring, u: int, v: int):
        if phi.graph != graph:
            raise ValueError("coloring is bound to a different graph")
        if not graph.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        if phi.color_of(u, v) is not None:
            raise ValueError(f"edge ({u}, {v}) is already colored")
        if phi.violations:
            raise ImproperColoringError("context requires a proper coloring")
        self.graph = graph
        self.phi = phi
        self.u = u
        self.v = v
        self.k = phi.k

    def free_palette(self) -> list[int]:
        """Ascending colors unused at both ends; size recomputed, not bounded on faith."""
        return self.phi.free_colors(self.u, self.v)

    def colored_neighbors(self) -> list[int]:
        """Neighbors of v over colored edges, excluding u, by (degree, id)."""
        out = [
            w
            for w in self.graph.neighbors(self.v)
            if w != self.u and self.phi.color_of(self.v, w) is not None
        ]
        out.sort(key=lambda w: (self.graph.degree(w), w))
        return out

    def neighbor_multiset(self) -> Counter:
        """Color multiplicities over the forbidden sets of every colored
        spoke at v except uv."""
        s: Counter = Counter()
        for w in self.colored_neighbors():
            s.update(forbidden_from(self.phi, self.v, w))
        return s


@dataclass(frozen=True)
class TraceStep:
    edge: tuple[int, int]
    config: Configuration
    tier: str

    def to_json_dict(self) -> dict:
        v = self.config.vertex
        u = self.edge[0] if self.edge[1] == v else self.edge[1]
        # second endpoint is the configuration vertex, so replay can
        # reconstruct the context without re-scanning
        return {"edge": [u, v], "config": self.config.kind, "tier": self.tier}


@dataclass(frozen=True)
class ReductionTrace:
    """Removal-ordered log of (edge, configuration, extension tier)."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def tier_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.tier] = out.get(s.tier, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        return {"steps": [s.to_json_dict() for s in self.steps]}


def choose_reduction_edge(g: Graph) -> tuple[tuple[int, int], Configuration]:
    """Deterministic next edge to peel, with the configuration justifying it.

    A vertex of degree 1 or 2 wins outright (smallest id, edge to its
    smallest neighbor).  Otherwise the scan runs on the graph with all
    2-vertices deleted, mapped back, and returns the edge from the
    configuration vertex to its minimum-(degree, id) neighbor.  Vertices
    isolated at the current stage are skipped: they admit no edge.  This
    is the reference rule; `acolor` peels with `_Reducer`, which yields
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


class _Reducer:
    """The `choose_reduction_edge` + `remove_edge` loop, run incrementally.

    Iterating yields the same (edge, configuration) sequence as that loop
    and mutates the reducer's own adjacency sets, never the graph.  Two
    min-heaps of vertex ids replace the rescan from vertex 0 (the
    smallest-last bookkeeping of Matula & Beck, J. ACM 30, 1983): `low`
    holds every vertex of degree 1-2 and `cand` every vertex of degree
    3-5 that may classify.  Entries go stale as degrees fall and are
    checked again when popped.  The reducer exposes `degree` and
    `neighbors`, so `classify_vertex` runs on it unchanged.
    """

    __slots__ = ("n", "m", "_adj")

    def __init__(self, g: Graph):
        self.n = g.n
        self.m = g.m
        self._adj = [set(g.neighbors(v)) for v in g.vertices()]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Configuration]]:
        adj = self._adj
        # ascending lists are already heaps
        low = [v for v in range(self.n) if 1 <= len(adj[v]) <= 2]
        cand = [v for v in range(self.n) if 3 <= len(adj[v]) <= 5]
        # a class depends only on d(v) and its neighbors' degrees, and a
        # degree that stays above every cap cannot change a cap test
        reach = max(max(caps) for caps in _CAPS.values())
        while self.m:
            while low and not 1 <= len(adj[low[0]]) <= 2:
                heappop(low)
            if low:
                v = heappop(low)
                cfg = classify_vertex(self, v)
                u = min(adj[v])
            else:
                cfg = None
                while cand and cfg is None:
                    v = heappop(cand)
                    if 3 <= len(adj[v]) <= 5:
                        cfg = classify_vertex(self, v)
                if cfg is None:
                    raise NotPlanarEvidence(
                        f"no reducible configuration in a graph with n={self.n}, "
                        f"m={self.m}; a planar graph always has one"
                    )
                u = cfg.neighbors[0][0]
            yield _canon(v, u), cfg
            adj[v].remove(u)
            adj[u].remove(v)
            self.m -= 1
            for x in (v, u):
                d = len(adj[x])
                if 1 <= d <= 2:
                    heappush(low, x)
                elif 3 <= d <= 5:
                    heappush(cand, x)
                if d <= reach:
                    for w in adj[x]:
                        if 3 <= len(adj[w]) <= 5:
                            heappush(cand, w)


def try_free_color(ctx: ExtensionContext) -> Optional[int]:
    """Smallest color unused at both ends of uv that closes no cycle.

    Coloring uv with such a color is proper outright; a bichromatic cycle
    through uv in colors {c, d} would need d at both ends plus an
    alternating path between them ending in d at each side, which is
    exactly the critical-path test, and `closes_cycle` runs it for every d.

    Every color below an endpoint's floor is used there, so the scan
    starts at the larger floor and returns the color a scan from 1 would.
    With `closes_cycle` walking from the endpoint with fewer colors, an
    edge from a hub to a leaf costs O(1) rather than O(d(hub)).
    """
    phi = ctx.phi
    nbr = phi._nbr
    u, v = ctx.u, ctx.v
    nu, nv = nbr[u], nbr[v]
    # a stale floor is still a valid start; it is raised, at the cost of a
    # call, only when its own color has been taken since it was last read
    floor = phi._floor
    fu, fv = floor[u], floor[v]
    if fu in nu:
        fu = phi.floor(u)
    if fv in nv:
        fv = phi.floor(v)
    # T1 nearly always takes the first free color, so scan lazily rather
    # than listing the whole free palette first
    for c in range(fu if fu > fv else fv, ctx.k + 1):
        if c not in nu and c not in nv and not closes_cycle(nbr, u, v, c):
            return c
    return None


def _swap_raw(phi: PartialEdgeColoring, e1, e2, c1, c2) -> None:
    # exchange colors, restoring both edges if properness breaks
    phi.unassign(*e1)
    phi.unassign(*e2)
    try:
        phi.assign(e1[0], e1[1], c2)
    except ImproperColoringError:
        phi.assign(e1[0], e1[1], c1)
        phi.assign(e2[0], e2[1], c2)
        raise
    try:
        phi.assign(e2[0], e2[1], c1)
    except ImproperColoringError:
        phi.unassign(*e1)
        phi.assign(e1[0], e1[1], c1)
        phi.assign(e2[0], e2[1], c2)
        raise


def move_swap_pair(
    ctx: ExtensionContext, e1: tuple[int, int], e2: tuple[int, int]
) -> PartialEdgeColoring:
    """Exchange the colors of two colored edges sharing exactly one endpoint.

    The shared endpoint sees the same color pair afterwards; each far
    endpoint is re-checked, and the exchange is verified to close no
    bichromatic cycle.  On rejection the coloring is rolled back first.
    """
    e1, e2 = _canon(*e1), _canon(*e2)
    c1, c2 = ctx.phi.color_of(*e1), ctx.phi.color_of(*e2)
    if c1 is None or c2 is None:
        raise ValueError("swap requires two colored edges")
    if len(set(e1) & set(e2)) != 1:
        raise ValueError(f"edges {e1} and {e2} must share exactly one endpoint")
    try:
        _swap_raw(ctx.phi, e1, e2, c1, c2)
    except ImproperColoringError as exc:
        raise MoveRejected(f"swap of {e1} and {e2} breaks properness: {exc}") from exc
    nbr = ctx.phi._nbr
    if closes_cycle(nbr, *e1, c2) or closes_cycle(nbr, *e2, c1):
        _swap_raw(ctx.phi, e1, e2, c2, c1)
        raise MoveRejected(f"swap of {e1} and {e2} closes a bichromatic cycle")
    return ctx.phi


def move_recolor_neighbor(
    ctx: ExtensionContext, edge: tuple[int, int], alpha: int
) -> PartialEdgeColoring:
    """Recolor a colored spoke vw at the configuration vertex with alpha.

    alpha must come from the free palette of uv and be absent around w, so
    properness is immediate; acyclicity is still verified by walking the
    alternating paths through the recolored edge, and the move is rolled
    back and rejected if any of them closes.
    """
    edge = _canon(*edge)
    if ctx.v not in edge:
        raise ValueError(f"edge {edge} is not incident to vertex {ctx.v}")
    w = edge[0] if edge[1] == ctx.v else edge[1]
    old = ctx.phi.color_of(*edge)
    if old is None:
        raise ValueError(f"edge {edge} is not colored")
    nbr = ctx.phi._nbr
    if not 1 <= alpha <= ctx.k or alpha in nbr[ctx.u] or alpha in nbr[ctx.v]:
        raise ValueError(f"color {alpha} is not free at both ends of the uncolored edge")
    if alpha in forbidden_from(ctx.phi, ctx.v, w):
        raise ValueError(f"color {alpha} is already present around {w}")
    ctx.phi.recolor(edge[0], edge[1], alpha)
    if closes_cycle(ctx.phi._nbr, edge[0], edge[1], alpha):
        ctx.phi.recolor(edge[0], edge[1], old)
        raise MoveRejected(f"recoloring {edge} to {alpha} closes a bichromatic cycle")
    return ctx.phi


def _finish(ctx: ExtensionContext) -> Optional[int]:
    c = try_free_color(ctx)
    if c is not None:
        ctx.phi.assign(ctx.u, ctx.v, c)
    return c


def _tier2(ctx: ExtensionContext) -> bool:
    phi = ctx.phi
    # recolor one spoke at v with a color of low multiplicity around the
    # neighborhood, smallest candidates first
    s = ctx.neighbor_multiset()
    for w in ctx.colored_neighbors():
        old = phi.color_of(ctx.v, w)
        blocked = forbidden_from(phi, ctx.v, w)
        for alpha in ctx.free_palette():
            if s[alpha] > 1 or alpha in blocked:
                continue
            try:
                move_recolor_neighbor(ctx, (ctx.v, w), alpha)
            except MoveRejected:
                continue
            if _finish(ctx) is not None:
                return True
            phi.recolor(ctx.v, w, old)
    # swap two spokes at either endpoint
    for center in (ctx.v, ctx.u):
        spokes = [
            _canon(center, x)
            for x in ctx.graph.neighbors(center)
            if phi.color_of(center, x) is not None
        ]
        for i in range(len(spokes)):
            for j in range(i + 1, len(spokes)):
                try:
                    move_swap_pair(ctx, spokes[i], spokes[j])
                except MoveRejected:
                    continue
                if _finish(ctx) is not None:
                    return True
                # swap back; the previous state was already verified
                c1 = phi.color_of(*spokes[i])
                c2 = phi.color_of(*spokes[j])
                _swap_raw(phi, spokes[i], spokes[j], c1, c2)
    return False


def _zone_edges(ctx: ExtensionContext) -> list[tuple[int, int]]:
    # colored edges with an endpoint within distance 2 of {u, v}
    dist = {ctx.u: 0, ctx.v: 0}
    frontier = [ctx.u, ctx.v]
    for d in (1, 2):
        nxt = []
        for x in frontier:
            for y in ctx.graph.neighbors(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return sorted(
        e
        for e, _ in ctx.phi.items()
        if e[0] in dist or e[1] in dist
    )


def _tier3(ctx: ExtensionContext, budget: int) -> bool:
    phi = ctx.phi
    zone = _zone_edges(ctx)
    FOUND, DEAD, STOP = 0, 1, 2
    used = 0

    def dfs(depth: int) -> int:
        nonlocal used
        if depth == T3_DEPTH:
            return DEAD
        for e in zone:
            old = phi.color_of(*e)
            for a in phi.free_colors(*e):
                if used >= budget:
                    return STOP
                used += 1
                phi.recolor(e[0], e[1], a)
                if closes_cycle(phi._nbr, e[0], e[1], a):
                    phi.recolor(e[0], e[1], old)
                    continue
                if _finish(ctx) is not None:
                    return FOUND
                res = dfs(depth + 1)
                if res == FOUND:
                    return FOUND
                phi.recolor(e[0], e[1], old)
                if res == STOP:
                    return STOP
        for i in range(len(zone)):
            for j in range(i + 1, len(zone)):
                e1, e2 = zone[i], zone[j]
                if len(set(e1) & set(e2)) != 1:
                    continue
                if used >= budget:
                    return STOP
                used += 1
                try:
                    move_swap_pair(ctx, e1, e2)
                except MoveRejected:
                    continue
                if _finish(ctx) is not None:
                    return FOUND
                res = dfs(depth + 1)
                if res == FOUND:
                    return FOUND
                c1, c2 = phi.color_of(*e1), phi.color_of(*e2)
                _swap_raw(phi, e1, e2, c1, c2)
                if res == STOP:
                    return STOP
        return DEAD

    return dfs(0) == FOUND


def _tier4(ctx: ExtensionContext, budget: Optional[SearchBudget]) -> PartialEdgeColoring:
    colored = [(u, v) for (u, v), _ in ctx.phi.items()]
    sub = Graph(ctx.graph.n, colored + [(ctx.u, ctx.v)])
    found = search_acyclic_coloring(sub, ctx.k, budget or SearchBudget())
    if found is EXHAUSTED:
        raise ExtensionFailed(
            f"exhaustive recoloring ran out of budget at edge ({ctx.u}, {ctx.v})"
        )
    if found is None:
        raise NotPlanarEvidence(
            f"no acyclic edge coloring with {ctx.k} colors exists for the current "
            f"subgraph (n={sub.n}, m={sub.m}); the palette bound refutes planarity"
        )
    return PartialEdgeColoring.from_pairs(
        ctx.graph, ctx.k, [(u, v, c) for (u, v), c in found.items()]
    )


def extend_at_edge(
    ctx: ExtensionContext,
    *,
    max_tier: int = 4,
    t3_budget: int = T3_STATE_BUDGET,
    t4_budget: Optional[SearchBudget] = None,
) -> tuple[PartialEdgeColoring, str]:
    """Color the edge uv, escalating through the tiers; returns (phi, tier).

    Tiers T1 to T3 mutate and return the context's coloring; T4 returns a
    fresh one for the same graph.  A failed tier always restores the
    coloring it started from before the next tier runs.
    """
    if not 1 <= max_tier <= 4:
        raise ValueError(f"max_tier must be in 1..4, got {max_tier}")
    c = _finish(ctx)
    if c is not None:
        return ctx.phi, "T1"
    if max_tier >= 2 and _tier2(ctx):
        return ctx.phi, "T2"
    if max_tier >= 3 and _tier3(ctx, t3_budget):
        return ctx.phi, "T3"
    if max_tier >= 4:
        return _tier4(ctx, t4_budget), "T4"
    raise ExtensionFailed(
        f"edge ({ctx.u}, {ctx.v}) not extendable within tier cap T{max_tier}"
    )


def acolor(
    g: Graph,
    *,
    max_tier: int = 4,
    t3_budget: int = T3_STATE_BUDGET,
    t4_budget: Optional[SearchBudget] = None,
) -> tuple[PartialEdgeColoring, ReductionTrace]:
    """Acyclic edge coloring of a planar graph with at most Δ+10 colors.

    Peels configuration edges until none remain, then re-inserts them in
    reverse, extending the coloring across each.  The peeling runs
    incrementally, in near-linear time, and removes the same edges in the
    same order as calling `choose_reduction_edge` and `Graph.remove_edge`
    in a loop.  The result is validated before it is returned.  On inputs
    that are not actually planar this either still succeeds (the bound is
    one-sided) or raises NotPlanarEvidence.
    """
    k = g.max_degree() + 10
    removals = list(_Reducer(g))
    phi = PartialEdgeColoring(g, k)
    tiers: list[str] = [""] * len(removals)
    for i in range(len(removals) - 1, -1, -1):
        edge, cfg = removals[i]
        v = cfg.vertex
        u = edge[0] if edge[1] == v else edge[1]
        ctx = ExtensionContext(g, phi, u, v)
        phi, tiers[i] = extend_at_edge(
            ctx, max_tier=max_tier, t3_budget=t3_budget, t4_budget=t4_budget
        )
    trace = ReductionTrace(
        tuple(TraceStep(e, c, t) for (e, c), t in zip(removals, tiers))
    )
    if not phi.is_complete():
        raise AssertionError("extension finished with uncolored edges")
    report = validate_acyclic(g, phi)
    if not report.ok:
        raise AssertionError(f"final coloring failed validation: {report}")
    return phi, trace


def replay_trace(
    g: Graph,
    trace: ReductionTrace,
    *,
    max_tier: int = 4,
    t3_budget: int = T3_STATE_BUDGET,
) -> PartialEdgeColoring:
    """Re-run the reduce/extend pipeline along a recorded trace.

    The removals must empty the graph's edge set and every extension must
    land on the recorded tier, otherwise the trace does not belong to this
    graph (or was produced with different settings) and a ValueError is
    raised.  Returns the reproduced coloring.
    """
    remaining = set(g.edge_set())
    for step in trace:
        e = _canon(*step.edge)
        if e not in remaining:
            raise ValueError(f"trace replays removal of missing edge {step.edge}")
        remaining.remove(e)
    if remaining:
        raise ValueError(f"trace leaves {len(remaining)} edges unremoved")
    k = g.max_degree() + 10
    phi = PartialEdgeColoring(g, k)
    for step in reversed(trace.steps):
        v = step.config.vertex
        u = step.edge[0] if step.edge[1] == v else step.edge[1]
        ctx = ExtensionContext(g, phi, u, v)
        phi, tier = extend_at_edge(ctx, max_tier=max_tier, t3_budget=t3_budget)
        if tier != step.tier:
            raise ValueError(
                f"trace mismatch at edge {step.edge}: recorded {step.tier}, got {tier}"
            )
    return phi
