"""Shared builders for the test suite.

The wheel patch builder constructs the one planar neighbourhood where a
discharging rule's arithmetic can be checked in isolation: a hub of the
target degree whose ring vertices are padded with pendant leaves until
they reach prescribed degrees.  Because every face at the hub is a
triangle, the rule classifier sees exactly the configuration the padding
encodes, and the sum of outgoing transfers can be compared against the
hub's initial charge as an exact rational.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
from hypothesis import strategies as st

from aecolor.coloring import CycleWitness, PartialEdgeColoring, alternating_walk
from aecolor.embedding import RotationSystem
from aecolor.families import (
    cycle_graph,
    grid_graph,
    platonic_solids,
    wheel_graph,
)
from aecolor.embedding import generate_apollonian
from aecolor.graphs import Graph


def wheel_patch(ring_degrees: tuple[int, ...]) -> tuple[Graph, RotationSystem]:
    """Hub 0 with ring 1..d, ring vertex j padded to degree ring_degrees[j-1].

    Pendant leaves are inserted between a ring vertex's hub edge and its
    successor edge so the faces meeting the hub stay triangular; the
    pendant half of the patch is irrelevant to the hub's rule.
    """
    d = len(ring_degrees)
    if d < 3 or any(r < 3 for r in ring_degrees):
        raise ValueError("ring needs >= 3 vertices of degree >= 3")
    edges = [(0, j) for j in range(1, d + 1)]
    for j in range(1, d + 1):
        nxt = j % d + 1
        edges.append((min(j, nxt), max(j, nxt)))
    edges = list(dict.fromkeys(edges))
    order: dict[int, list[int]] = {0: list(range(1, d + 1))}
    next_id = d + 1
    for j in range(1, d + 1):
        prev = (j - 2) % d + 1
        nxt = j % d + 1
        pendants = list(range(next_id, next_id + ring_degrees[j - 1] - 3))
        next_id += len(pendants)
        for p in pendants:
            edges.append((j, p))
            order[p] = [j]
        order[j] = [0, prev] + pendants + [nxt]
    g = Graph(next_id, edges)
    rot = RotationSystem([order[v] for v in range(next_id)])
    return g, rot


def random_proper_coloring(
    g: Graph, k: int, rng: random.Random
) -> PartialEdgeColoring | None:
    """Greedy proper edge coloring over a shuffled edge order, or None.

    Properness only; bichromatic cycles are allowed, which is the point:
    the path and cycle predicates under test must cope with arbitrary
    proper colorings, not just acyclic ones.
    """
    phi = PartialEdgeColoring(g, k)
    edges = g.edges()
    rng.shuffle(edges)
    for u, v in edges:
        free = phi.free_colors(u, v)
        if not free:
            return None
        phi.assign(u, v, rng.choice(free))
    return phi


def all_pairs_bichromatic_cycle(phi: PartialEdgeColoring) -> CycleWitness | None:
    """Reference cycle scan: every pair of colors present, lexicographically.

    For each pair (a, b), a < b, it walks from each vertex with both colors
    in ascending order, via its a-edge, and returns the first walk that
    closes.  Only the 2-core of the colored edges is scanned.  Its O(k * m)
    walks are what `find_bichromatic_cycle` avoids; its first witness is
    what that function must return.
    """
    nbr = phi._nbr
    deg = [len(d) for d in nbr]
    in_core = [d >= 2 for d in deg]
    stack = [v for v, d in enumerate(deg) if d == 1]
    while stack:
        for w in nbr[stack.pop()].values():
            if in_core[w]:
                deg[w] -= 1
                if deg[w] <= 1:
                    in_core[w] = False
                    stack.append(w)
    by_color: dict[int, list[int]] = {}
    for (u, v), c in phi.items():
        if in_core[u] and in_core[v]:
            by_color.setdefault(c, []).append(u)
            by_color.setdefault(c, []).append(v)
    present = sorted(by_color)
    for c in present:
        by_color[c] = sorted(set(by_color[c]))
    for i, a in enumerate(present):
        for b in present[i + 1:]:
            visited: set[int] = set()
            for s in by_color[a]:
                if s in visited or b not in nbr[s]:
                    continue
                seq, closed = alternating_walk(nbr, s, a, b)
                visited.update(seq)
                if closed:
                    return CycleWitness(tuple(seq), (a, b))
    return None


def first_fit_free_color(phi: PartialEdgeColoring, u: int, v: int) -> int | None:
    """Reference T1 scan: the smallest color in 1..k free at u and v that
    closes no two-colored cycle through uv.

    It scans from 1, ignoring the skip maps, and tests each color d at u,
    walking from u whatever the endpoints' color counts.  These are the
    O(d(hub)) per edge costs that `PartialEdgeColoring._first_fit` avoids;
    its color is what that method must return.
    """
    nbr = phi._nbr
    nu, nv = nbr[u], nbr[v]
    for c in range(1, phi.k + 1):
        if c in nu or c in nv:
            continue
        if not any(
            d != c and d in nv and alternating_walk(nbr, u, d, c)[0][-1] == v
            for d in nu
        ):
            return c
    return None


def assert_skip_maps_exact(phi: PartialEdgeColoring) -> None:
    """Every skip entry c -> c2 passes only colors used at its vertex."""
    for v, jump in phi._skip.items():
        for c, c2 in jump.items():
            assert c < c2 and all(x in phi._nbr[v] for x in range(c, c2))


def all_proper_colorings(g: Graph, k: int):
    """Yield every proper edge coloring of g with colors 1..k."""
    edges = g.edges()
    for combo in itertools.product(range(1, k + 1), repeat=len(edges)):
        phi = PartialEdgeColoring(g, k)
        ok = True
        for (u, v), c in zip(edges, combo):
            if c in phi._nbr[u] or c in phi._nbr[v]:
                ok = False
                break
            phi.assign(u, v, c)
        if ok:
            yield phi


def all_trees(max_n: int) -> list[Graph]:
    """Every tree on 1..max_n vertices, one per isomorphism class."""
    out = [Graph(1, [])]
    for n in range(2, max_n + 1):
        for t in nx.nonisomorphic_trees(n):
            out.append(Graph(n, list(t.edges())))
    return out


def corpus_graphs() -> list[tuple[str, Graph]]:
    """The planar corpus: trees, cycles, wheels, grids <= 12 vertices,
    platonic solids, Apollonian triangulations at four sizes x five seeds."""
    out: list[tuple[str, Graph]] = []
    for i, t in enumerate(all_trees(12)):
        out.append((f"tree[{i}]n{t.n}", t))
    for n in range(3, 13):
        out.append((f"C{n}", cycle_graph(n)))
    for rim in range(3, 12):
        out.append((f"W{rim}", wheel_graph(rim)))
    for rows, cols in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]:
        out.append((f"grid{rows}x{cols}", grid_graph(rows, cols)))
    for name, (g, _) in platonic_solids().items():
        out.append((name, g))
    for n in (10, 50, 200, 1000):
        for seed in range(5):
            g, _ = generate_apollonian(n, seed)
            out.append((f"apollonian{n}s{seed}", g))
    return out


@st.composite
def small_graphs(draw, max_n: int = 8, max_m: int | None = None) -> Graph:
    """Random simple graph strategy for property tests."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=0,
                 max_size=len(possible) if max_m is None else min(max_m, len(possible)))
    ) if possible else []
    return Graph(n, edges)


def embedded_corpus() -> list[tuple[str, Graph, RotationSystem]]:
    """Connected embedded graphs: the solids plus Apollonian samples."""
    from aecolor.families import triakis_tetrahedron, triangle_embedded

    out = [(name, g, rot) for name, (g, rot) in platonic_solids().items()]
    g, rot = triangle_embedded()
    out.append(("triangle", g, rot))
    g, rot = triakis_tetrahedron()
    out.append(("triakis", g, rot))
    for n in (10, 50, 200):
        for seed in range(3):
            g, rot = generate_apollonian(n, seed)
            out.append((f"apollonian{n}s{seed}", g, rot))
    return out
