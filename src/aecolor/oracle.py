"""Exhaustive ground truth for acyclic edge colorability at desk scale.

One search core, `_search`, colors a list of edges in place in a color ->
neighbor table, by backtracking with properness pruning, incremental
bichromatic-cycle detection, and color symmetry breaking (the i-th newly
introduced color is at most i) when the table starts empty.  The oracle
runs it on a fresh table, the colorer's T2 and T3 on the coloring's own.
A palette below `_lower_bound` (Δ, and the forest bound of each component)
is refused before the search counts a node.  What the bound does not
settle is searched exhaustively, in time that can grow exponentially with
m; a budget of search nodes turns an unfinished search into the explicit
EXHAUSTED outcome, never a silent wrong answer.

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


def _lower_bound(edges: list[tuple[int, int]]) -> int:
    """The least palette that an acyclic edge coloring of the edges could use.

    It is max(Δ, ⌈2m(H)/(n(H)−1)⌉ over the components H of the graph the
    edges form).  Any two color classes of an acyclic coloring form a
    forest, so on H each pair of classes holds at most n(H)−1 edges; summed
    over the k(k−1)/2 pairs, (k−1)·m(H) ≤ k(k−1)/2·(n(H)−1).  That needs a
    pair, k ≥ 2, which Δ ≥ 2 forces.  A matching (Δ ≤ 1) takes Δ colors.
    """
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    bound = max(map(len, adj.values()), default=0)
    if bound <= 1:
        return bound
    unseen = set(adj)
    while unseen:
        comp = [unseen.pop()]
        degree_sum = 0
        for x in comp:
            degree_sum += len(adj[x])
            for y in adj[x]:
                if y in unseen:
                    unseen.remove(y)
                    comp.append(y)
        bound = max(bound, -(-degree_sum // (len(comp) - 1)))
    return bound


def _search(
    nbr: list[dict[int, int]], edges: list[tuple[int, int]], k: int, symmetric: bool, max_nodes: int
) -> Union[dict[tuple[int, int], int], None, Exhausted]:
    """Color the uncolored `edges` (u < v, distinct, in id order) in place
    in the color -> neighbor table `nbr`; the edges in it keep their colors.

    Returns the edge -> color dict in search order, None when no coloring
    exists, or EXHAUSTED once more than `max_nodes` colors were tried; on
    None or EXHAUSTED the table is as it was found.  A k below
    `_lower_bound(edges)` is None before any node is counted.  `symmetric`
    says the table starts empty, so the symmetry cap may apply.
    """
    if k < _lower_bound(edges):
        return None
    # strongest pruning first: by degree sum within the edges, then (stably) id
    deg: dict[int, int] = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    edges = sorted(edges, key=lambda e: -(deg[e[0]] + deg[e[1]]))
    # depth-first over edges in order, colors ascending, with an explicit
    # stack: `assigned` holds the colors on the path so far and used[i] is
    # the largest color among the first i edges.  Without the cap every
    # used[i] is k, which lifts it without a test in the loop.  Every color
    # tried counts one node, free or not.
    assigned: list[int] = []
    used = [0 if symmetric else k]
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
                for (u, v), c in zip(edges, assigned):
                    del nbr[u][c], nbr[v][c]
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
        del nbr[u][c], nbr[v][c]
        c += 1


def search_acyclic_coloring(
    g: Graph, k: int, budget: Optional[SearchBudget] = None
) -> Union[dict[tuple[int, int], int], None, Exhausted]:
    """Exact search for an acyclic edge k-coloring: `_search` on a fresh table.

    Returns an edge -> color dict, None when provably impossible (at once,
    before any node is counted, for a k below `_lower_bound`), or EXHAUSTED
    when the budget ran out first.  A negative k is refused (ValueError),
    and a bool or other non-int k (TypeError).
    """
    if type(k) is not int:
        raise TypeError(f"palette size {k!r} is not an int")
    if k < 0:
        raise ValueError(f"palette size must be nonnegative, got {k}")
    max_nodes = (budget or SearchBudget()).max_nodes
    return _search([{} for _ in range(g.n)], g.edges(), k, True, max_nodes)


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

    Searched upward from `_lower_bound`, so a graph whose index is that
    bound is settled by one search that finds a coloring; all-distinct
    colors are always acyclic, so the search stops by k = m.
    """
    if g.m == 0:
        return 0
    for k in range(_lower_bound(g.edges()), g.m + 1):
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
