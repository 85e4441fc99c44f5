"""Exhaustive ground truth for acyclic edge colorability at desk scale.

Backtracking over edges with properness pruning, incremental bichromatic-
cycle detection, and color symmetry breaking (the i-th newly introduced
color is at most i).  Intended for graphs up to roughly 15 edges; beyond
that the search budget turns results into the explicit EXHAUSTED outcome,
never a silent wrong answer.

The module also houses the independent brute-force cycle enumerator the
test suite compares the bichromatic-cycle scan against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .coloring import closes_cycle
from .graphs import Graph


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 200_000_000
    wall_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")


class Exhausted:
    """Budget ran out before the search decided.  Not an answer.

    Truthiness is forbidden so a timeout can never silently pass for a
    boolean result; compare with `is EXHAUSTED`.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        raise TypeError("Exhausted is not a boolean answer; compare with `is EXHAUSTED`")

    def __repr__(self):
        return "EXHAUSTED"


EXHAUSTED = Exhausted()


def search_acyclic_coloring(
    g: Graph, k: int, budget: Optional[SearchBudget] = None
) -> Union[dict[tuple[int, int], int], None, Exhausted]:
    """Exact search for an acyclic edge k-coloring.

    Returns an edge -> color dict, None when provably impossible, or
    EXHAUSTED when the budget ran out first.
    """
    if k < 0:
        raise ValueError(f"palette size must be nonnegative, got {k}")
    if g.m == 0:
        return {}
    if k == 0:
        return None
    budget = budget or SearchBudget()
    max_nodes = budget.max_nodes
    deadline = None if budget.wall_seconds is None else time.monotonic() + budget.wall_seconds
    # descending endpoint degree sum, then edge id (the sort is stable):
    # strongest pruning first
    deg = g.degree
    edges = sorted(g.edges(), key=lambda e: -(deg(e[0]) + deg(e[1])))
    # the color -> neighbor table of PartialEdgeColoring, kept here so the
    # loop skips its edge and palette checks
    nbr: list[dict[int, int]] = [{} for _ in range(g.n)]
    # depth-first over edges in order, colors ascending, with an explicit
    # stack: `assigned` holds the colors on the path so far and used[i] is
    # the largest color among the first i edges.  Every color tried counts
    # one node, free or not.
    assigned: list[int] = []
    used = [0]
    nodes = 0
    c = 1
    while True:
        idx = len(assigned)
        if idx == len(edges):
            return dict(zip(edges, assigned))
        u, v = edges[idx]
        nu, nv = nbr[u], nbr[v]
        cap = min(k, used[idx] + 1)
        while c <= cap:
            nodes += 1
            if nodes > max_nodes:
                return EXHAUSTED
            if deadline is not None and not nodes & 2047 and time.monotonic() > deadline:
                return EXHAUSTED
            if c not in nu and c not in nv and not closes_cycle(nbr, u, v, c):
                break
            c += 1
        if c <= cap:
            nu[c] = v
            nv[c] = u
            assigned.append(c)
            used.append(max(used[idx], c))
            c = 1
            continue
        # every color failed here: undo the previous edge, try its next
        if idx == 0:
            return None
        used.pop()
        c = assigned.pop()
        u, v = edges[idx - 1]
        del nbr[u][c]
        del nbr[v][c]
        c += 1


def is_acyclically_k_colorable(
    g: Graph, k: int, budget: Optional[SearchBudget] = None
) -> Union[bool, Exhausted]:
    """Exact decision; EXHAUSTED (never a bool) when the budget ran out."""
    if k < 1:
        raise ValueError(f"palette size must be >= 1, got {k}")
    found = search_acyclic_coloring(g, k, budget)
    if found is EXHAUSTED:
        return EXHAUSTED
    return found is not None


def exact_chi_a(
    g: Graph, budget: Optional[SearchBudget] = None
) -> Union[int, Exhausted]:
    """Smallest palette admitting an acyclic edge coloring.

    Searched upward from the trivial lower bound max degree; all-distinct
    colors are always acyclic, so the search stops by k = m.
    """
    if g.m == 0:
        return 0
    for k in range(max(g.max_degree(), 1), g.m + 1):
        res = is_acyclically_k_colorable(g, k, budget)
        if res is EXHAUSTED:
            return EXHAUSTED
        if res:
            return k
    raise AssertionError("unreachable: m distinct colors are always acyclic")


def enumerate_cycles(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Every simple cycle, as an edge set, by brute force over edge subsets.

    Exponential in m by design: this is the independent oracle the
    bichromatic-cycle scan is validated against, so it shares no code with it.
    """
    edges = g.edges()
    if len(edges) > 20:
        raise ValueError(f"cycle enumeration is exponential; m={len(edges)} is too big")
    cycles = []
    for size in range(3, len(edges) + 1):
        for subset in combinations(edges, size):
            deg: dict[int, int] = {}
            for u, v in subset:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            # connectivity: walk the subset from any vertex
            adj: dict[int, list[int]] = {v: [] for v in deg}
            for u, v in subset:
                adj[u].append(v)
                adj[v].append(u)
            start = next(iter(deg))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(deg):
                cycles.append(frozenset(subset))
    return cycles


def bichromatic_cycle_exists_brute(
    g: Graph,
    coloring: dict[tuple[int, int], int],
    cycles: Optional[list[frozenset[tuple[int, int]]]] = None,
) -> bool:
    """Reference implementation: some fully colored cycle uses exactly 2 colors."""
    if cycles is None:
        cycles = enumerate_cycles(g)
    for cyc in cycles:
        colors = {coloring.get(e) for e in cyc}
        if None not in colors and len(colors) == 2:
            return True
    return False
