"""Exhaustive ground truth for acyclic edge colorability at desk scale.

Backtracking over edges with properness pruning, incremental bichromatic-
cycle detection, and color symmetry breaking (the i-th newly introduced
color is at most i) when no edge is pre-colored.  A palette below `_lower_bound` (Δ, and the forest
bound of each component) is refused before the search counts a node.
What the bound does not settle is searched exhaustively, in time that can
grow exponentially with m; a budget of search nodes turns an unfinished
search into the explicit EXHAUSTED outcome, never a silent wrong answer.

The module also houses the independent brute-force cycle enumerator the
test suite compares the bichromatic-cycle scan against.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .coloring import closes_cycle
from .graphs import Graph


class SearchBudget(NamedTuple("SearchBudget", [("max_nodes", int)])):
    """A cap on the search nodes one search may count; it must be positive."""

    __slots__ = ()

    def __new__(cls, max_nodes: int = 200_000_000):
        if max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        return tuple.__new__(cls, (max_nodes,))


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


def _lower_bound(g: Graph) -> int:
    """The least palette that an acyclic edge coloring of g could use.

    It is max(Δ, ⌈2m(H)/(n(H)−1)⌉ over the components H with at least 2
    vertices).  Any two color classes of an acyclic coloring form a forest,
    so on H each pair of classes holds at most n(H)−1 edges; summed over
    the k(k−1)/2 pairs, (k−1)·m(H) ≤ k(k−1)/2·(n(H)−1).  That needs a
    pair, k ≥ 2, which Δ ≥ 2 forces.  A matching (Δ ≤ 1) takes Δ colors.
    """
    delta = g.max_degree()
    if delta <= 1:
        return delta
    bound = delta
    for comp in g.connected_components():
        if len(comp) > 1:
            degree_sum = sum(g.degree(v) for v in comp)
            bound = max(bound, -(-degree_sum // (len(comp) - 1)))
    return bound


def search_acyclic_coloring(
    g: Graph,
    k: int,
    budget: Optional[SearchBudget] = None,
    fixed: Optional[dict[tuple[int, int], int]] = None,
) -> Union[dict[tuple[int, int], int], None, Exhausted]:
    """Exact search for an acyclic edge k-coloring.

    Returns an edge -> color dict, None when provably impossible, or
    EXHAUSTED when the budget ran out first.  A k below `_lower_bound(g)`
    is None at once, before any node is counted.

    `fixed` maps pre-colored edges outside g, on g's vertices, to their
    colors; they must form a proper acyclic coloring.  They are in the
    color table from the start, so every cycle test sees them, and they
    keep their colors and are not in the result.  Fixed colors are not
    interchangeable, so the symmetry cap applies only when `fixed` is
    empty.  An id outside 0..n-1, a self-loop, a bool, float or color outside
    1..k, an edge of g or a clash at an end in `fixed` is refused (ValueError),
    and so is a negative k; a bool or other non-int k is refused (TypeError).
    """
    if type(k) is not int:
        raise TypeError(f"palette size {k!r} is not an int")
    if k < 0:
        raise ValueError(f"palette size must be nonnegative, got {k}")
    if g.m == 0:
        return {}
    if k < _lower_bound(g):
        return None
    max_nodes = (budget or SearchBudget()).max_nodes
    # descending endpoint degree sum, then edge id (the sort is stable):
    # strongest pruning first
    deg = g.degree
    edges = sorted(g.edges(), key=lambda e: -(deg(e[0]) + deg(e[1])))
    # the color -> neighbor table of PartialEdgeColoring, kept here so the
    # loop skips its edge and palette checks
    nbr: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (a, b), c in (fixed or {}).items():
        if a == b or not (0 <= a < g.n and 0 <= b < g.n):
            raise ValueError(f"fixed edge ({a}, {b}) needs two distinct vertices in 0..{g.n - 1}")
        if type(c) is not int or not 1 <= c <= k:
            raise ValueError(f"fixed edge ({a}, {b}): color {c} outside palette [1..{k}]")
        if g.has_edge(a, b) or c in nbr[a] or c in nbr[b]:
            raise ValueError(f"fixed edge ({a}, {b}) is an edge of g or clashes at an end")
        nbr[a][c] = b
        nbr[b][c] = a
    # depth-first over edges in order, colors ascending, with an explicit
    # stack: `assigned` holds the colors on the path so far and used[i] is
    # the largest color among the first i edges.  With fixed edges every
    # used[i] is k, which lifts the cap without a test in the loop.  Every
    # color tried counts one node, free or not.
    assigned: list[int] = []
    used = [k if fixed else 0]
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

    Searched upward from `_lower_bound(g)`, so a graph whose index is that
    bound is settled by one search that finds a coloring; all-distinct
    colors are always acyclic, so the search stops by k = m.
    """
    if g.m == 0:
        return 0
    for k in range(_lower_bound(g), g.m + 1):
        res = is_acyclically_k_colorable(g, k, budget)
        if res is EXHAUSTED:
            return EXHAUSTED
        if res:
            return k
    raise AssertionError("unreachable: m distinct colors are always acyclic")


def enumerate_cycles(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Every simple cycle, as an edge set, sorted by (size, sorted edges).

    Each cycle is found from its least vertex s, by extending paths from s
    through vertices above s until the path's end is adjacent to s.  Both
    directions of a cycle close; the one whose second vertex is below its
    last is kept.  The work grows with the number of paths, exponentially
    in m on dense graphs, so m is capped at 20.  This is the independent
    oracle the bichromatic-cycle scan is validated against, so it shares
    no code with it.
    """
    if g.m > 20:
        raise ValueError(f"cycle enumeration is exponential; m={g.m} is too big")
    nbrs = [g.neighbors(v) for v in g.vertices()]
    cycles: list[frozenset[tuple[int, int]]] = []

    def extend(path: list[int]) -> None:
        s, x = path[0], path[-1]
        for y in nbrs[x]:
            if y == s:
                if len(path) > 2 and path[1] < x:
                    ring = path + [s]
                    cycles.append(frozenset(
                        (a, b) if a < b else (b, a) for a, b in zip(ring, ring[1:])
                    ))
            elif y > s and y not in path:
                path.append(y)
                extend(path)
                path.pop()

    for s in g.vertices():
        extend([s])
    cycles.sort(key=lambda c: (len(c), sorted(c)))
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
