"""Partial proper edge colorings and the alternating-path machinery.

A coloring lives on the full graph; uncolored edges are first-class (the
whole extension procedure reasons about colorings of G minus one edge).
Its one store is a per-vertex color -> neighbor dict, which answers
membership and alternating-walk steps in O(1).  Every other read is made
from it: the color of one edge by a scan of the shorter of its two rows,
and iteration in edge order by one pass over the rows and a sort.

Extension's first tier, first fit, is one loop, `PartialEdgeColoring._extend`,
over a run of re-insertion steps; its skip maps and `_path_end`'s jump
table change no answer.  Validation is one pass, `_scan`, which finds the
least two-colored cycle and the largest color together.

All of it takes O(n + m) memory whatever the palette size and color values.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ImproperColoringError
from .graphs import Graph, _canon

Color = int


class PartialEdgeColoring:
    """Proper partial edge coloring over palette [1..k].

    The palette size k is a nonnegative int: a negative one is refused
    (ValueError), and a bool, float or other non-int one (TypeError).

    `assign` rejects any color clash, and the first-fit loop `_extend`
    writes unchecked only a color it has just found free at both ends of
    an edge its caller holds uncolored, so instances are proper by
    construction.  The only way to hold an improper coloring is a
    non-strict write of rows (`from_pairs(strict=False)`, or the CLI's
    document load through `_write`), which records the clashing edges in
    `violations` and keeps them out of the traversal table; validators
    report them, everything else refuses to run via them.

    A vertex at which a first-fit scan meets two used colors in a row gets
    a skip map, `_skip[v]`: an entry c -> c2 says every color in [c, c2) is
    used at v.  `_extend` follows and compresses it, so once a hub's map
    holds a run of used colors a scan passes the run in one jump, not step
    by step.  Keys are used colors only, so v's map holds at most d(v)
    entries; `unassign` drops the maps of both ends.

    `_ends` holds jump pointers along two-colored paths for `_extend`'s
    cycle test; `_path_end`, its only reader and writer, says why they hold.
    """

    __slots__ = ("graph", "k", "_nbr", "_skip", "_ends", "violations")

    def __init__(self, graph: Graph, k: int):
        if type(k) is not int:
            raise TypeError(f"palette size {k!r} is not an int")
        if k < 0:
            raise ValueError(f"palette size must be nonnegative, got {k}")
        self.graph = graph
        self.k = k
        self._nbr: list[dict[Color, int]] = [{} for _ in range(graph.n)]
        self._skip: dict[int, dict[Color, Color]] = {}
        self._ends: dict[tuple[int, Color, Color], tuple[int, Color]] = {}
        self.violations: list[tuple[int, int, int]] = []

    @classmethod
    def from_pairs(
        cls,
        graph: Graph,
        k: int,
        pairs: Iterable[tuple[int, int, Optional[int]]],
        strict: bool = True,
    ) -> "PartialEdgeColoring":
        """A coloring of graph with the colored (u, v, color) rows; a color
        of None leaves the edge uncolored.

        Each row gets `assign`'s checks, in its order and with its
        messages; with `strict=False` a row whose color is already at u or
        v goes to `violations`, in row order, and leaves the edge uncolored.
        """
        phi = cls(graph, k)
        phi._write(pairs, strict)
        return phi

    def assign(self, u: int, v: int, c: Color) -> None:
        """Color the uncolored edge uv with c: the public, checked write.

        Refuses a non-edge, a color outside 1..k or an edge already colored
        (ValueError), a bool, float or other non-int color (TypeError) and
        a color already at u, then at v (ImproperColoringError).
        """
        if c is None:
            raise TypeError("assign needs a color; unassign uncolors an edge")
        self._write(((u, v, c),), True)

    def _write(
        self,
        rows: Iterable[tuple[int, int, Optional[int]]],
        strict: bool,
        edges_checked: bool = False,
    ) -> None:
        # the one checked row loop, behind `assign`, `from_pairs` and the
        # CLI's document load; a row colored None is skipped.  The checks
        # run in the order non-edge, int, palette, already colored, properness.
        # With `edges_checked` the caller vouches that the rows are edges of
        # the graph, each given once, with int colors, as the CLI's
        # type-checked rows are, and the edge and int checks are skipped
        has_edge = self.graph.has_edge
        check = not edges_checked
        nbr = self._nbr
        k = self.k
        for u, v, c in rows:
            if c is None:
                continue
            if check and not has_edge(u, v):
                raise ValueError(f"({u},{v}) is not an edge")
            if check and type(c) is not int:
                raise TypeError(f"color {c!r} is not an int")
            if not 1 <= c <= k:
                raise ValueError(f"color {c} outside palette [1..{k}]")
            if check and self.color_of(u, v) is not None:
                raise ValueError(f"edge {_canon(u, v)} already colored; unassign first")
            nu = nbr[u]
            nv = nbr[v]
            if c in nu:
                clash = u
            elif c in nv:
                clash = v
            else:
                nu[c] = v
                nv[c] = u
                continue
            if strict:
                raise ImproperColoringError(f"color {c} already at vertex {clash}")
            self.violations.append((u, v, c))

    def unassign(self, u: int, v: int) -> Color:
        c = self.color_of(u, v)
        if c is None:
            raise ValueError(f"edge {_canon(u, v)} is not colored")
        del self._nbr[u][c]
        del self._nbr[v][c]
        skip = self._skip
        if skip:
            skip.pop(u, None)
            skip.pop(v, None)
        self._ends.clear()
        return c

    def color_of(self, u: int, v: int) -> Optional[Color]:
        # a scan of the shorter row; an id outside 0..n-1 is never an index
        nbr = self._nbr
        if not (0 <= u < len(nbr) and 0 <= v < len(nbr)):
            return None
        if len(nbr[v]) < len(nbr[u]):
            u, v = v, u
        return next((c for c, w in nbr[u].items() if w == v), None)

    def _extend(
        self,
        us: Sequence[int],
        vertices: Sequence[int],
        i: int,
        stop: int,
    ) -> tuple[int, Optional[Color]]:
        """First fit, extension's first tier, on re-insertion steps i, i-1, ..., 0.

        Step j colors the edge from us[j] to vertices[j], which the caller
        holds uncolored, with the smallest color free at both ends that
        closes no two-colored cycle, written unchecked.  Returns (-1, None)
        after step 0; (j, None) at a step j where no color fits, left
        uncolored; and (stop, c) once step `stop` is colored c, before any
        later step runs.

        A cycle through uv in colors {c, d} needs d at both ends and a
        {c, d}-path between them: the critical-path test, run for each d
        from the end with fewer colors as `closes_cycle` runs it, but
        walking through `_path_end`.  The scan starts at 1.  A color used
        at an endpoint sends it, through that endpoint's skip map, past the
        whole run of used colors there; a color that closes a cycle sends
        it one step on.  Neither aid changes the color a plain scan from 1
        would find.
        """
        nbr, skip, ends, k = self._nbr, self._skip, self._ends, self.k
        path_end = _path_end
        while i >= 0:
            u = us[i]
            v = vertices[i]
            nu = nbr[u]
            nv = nbr[v]
            c = 1
            while c <= k:
                if c in nu:
                    x, row = u, nu
                elif c in nv:
                    x, row = v, nv
                else:
                    # the cycle test: c is free at both ends, so d != c
                    if len(nv) < len(nu):
                        s, t = v, u
                        ns, nt = nv, nu
                    else:
                        s, t = u, v
                        ns, nt = nu, nv
                    for d in ns:
                        if d in nt and path_end(nbr, ends, s, d, c) == t:
                            break
                    else:
                        break  # no d closes a cycle: c fits
                    c += 1
                    continue
                # c is used at x; a run of used colors above it is passed
                # through x's skip map, made here on first use, and each
                # color passed then points past the run (path compression,
                # Tarjan, J. ACM 22, 1975)
                c += 1
                if c in row:
                    jump = skip.get(x)
                    if jump is None:
                        jump = skip[x] = {}
                    passed = [c]
                    c = jump.get(c, c + 1)
                    while c in row:
                        passed.append(c)
                        c = jump.get(c, c + 1)
                    for p in passed:
                        jump[p] = c
            else:  # the palette ran out
                return i, None
            nu[c] = v
            nv[c] = u
            if i == stop:
                return i, c
            i -= 1
        return -1, None

    def is_complete(self) -> bool:
        return self.colored_edge_count() == self.graph.m

    def colored_edge_count(self) -> int:
        return sum(map(len, self._nbr)) // 2  # each edge is in both its rows

    def items(self) -> list[tuple[tuple[int, int], Color]]:
        # ((u, v), color), u < v, in edge order: each edge is read at its
        # lower end, and sorting on the distinct edges alone is enough
        pairs = [((u, w), c) for u, row in enumerate(self._nbr) for c, w in row.items() if u < w]
        pairs.sort(key=itemgetter(0))
        return pairs

    def _edge_rows(self) -> Iterator[tuple[int, int, Optional[Color]]]:
        # (u, v, color or None) for every edge u < v of the graph, in edge
        # order; each row is inverted once, so a hub costs its degree, not
        # its square
        for u, (row, adj) in enumerate(zip(self._nbr, self.graph._adj)):
            if adj and adj[-1] > u:  # adj is sorted
                color = {w: c for c, w in row.items()}.get
                for v in adj:
                    if u < v:
                        yield u, v, color(v)

    def max_color_used(self) -> int:
        return max(map(max, filter(None, self._nbr)), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialEdgeColoring)
            and self.k == other.k
            and self.graph == other.graph
            and self._nbr == other._nbr
        )

    def __repr__(self) -> str:
        m = self.graph.m
        return f"PartialEdgeColoring(k={self.k}, colored={self.colored_edge_count()}/{m})"


class CycleWitness(NamedTuple):
    vertices: tuple[int, ...]
    colors: tuple[Color, Color]


class BichromaticPath(NamedTuple):
    vertices: tuple[int, ...]
    colors: tuple[Color, Color]
    edge_colors: tuple[Color, ...]
    cycle: bool


class ValidationReport(NamedTuple):
    all_edges_colored: bool
    is_proper: bool
    cycle: Optional[CycleWitness]
    max_color: int

    @property
    def ok(self) -> bool:
        return self.all_edges_colored and self.is_proper and self.cycle is None


def _check_graph(g: Graph, phi: PartialEdgeColoring) -> None:
    # the queries read phi's rows alone, so for any other g they would
    # answer for phi's graph
    if phi.graph != g:
        raise ValueError("coloring is bound to a different graph")


def _check_pair(phi: PartialEdgeColoring, alpha: Color, beta: Color) -> None:
    if alpha == beta:
        raise ValueError(f"colors must differ, got {alpha} twice")
    for c in (alpha, beta):
        if not 1 <= c <= phi.k:
            raise ValueError(f"color {c} outside palette [1..{phi.k}]")


def alternating_walk(
    nbr: list[dict[Color, int]], start: int, first: Color, second: Color
) -> tuple[list[int], bool]:
    """Vertices of the maximal walk from `start` taking a `first`-colored
    edge, then `second`, then `first`, and so on; and whether it closed.

    `nbr[v]` maps each color at v to the neighbor across that edge.  On a
    proper table the walk can only revisit `start`, so it stops there
    (closed: `start` lies on a two-colored cycle) or where the next color
    is missing.  The closing edge back to `start` is not repeated in the
    returned vertices.
    """
    seq = [start]
    want, other = first, second
    w = nbr[start].get(want)
    while w is not None:
        if w == start:
            return seq, True
        seq.append(w)
        want, other = other, want
        w = nbr[w].get(want)
    return seq, False


# `_path_end` records a jump only when the walk took one or walked at least
# this many steps.  A record costs an entry in a table that every later
# walk probes step by step, which short walks do not repay: `acolor` on
# Apollonian graphs (n = 1000, 1250, 2000) ran about 7% slower at 0 and
# about 2% slower at 4 than at 16.  Of the 22 300 walks T1 makes on nine
# Apollonian graphs (n = 1000-3000) only 8 pass 16.  A wheel needs its rim
# walk recorded.
_CACHE_MIN_WALK = 16


def _path_end(nbr: list[dict[Color, int]], ends: dict, u: int, d: Color, c: Color) -> int:
    """The far end of the {d, c}-path from u, which lacks c, out by its
    d-edge.

    `ends[(x, a, b)] == (f, e)` says that the {a, b}-walk leaving x by its
    b-edge (arriving by a, or with a absent at x) was last seen stopped at
    f, where e was absent.  Between two `unassign`s a two-colored path only
    grows at its ends, so the stretch from x to f is still there and the
    walk goes on from f by e: a jump skips only what the plain walk would
    walk, and the answer is the same.  At each vertex the walk pops the
    entry for its direction and takes it; a walk that jumped, or walked at
    least `_CACHE_MIN_WALK` steps, records its end from u.  Popping what it
    takes keeps the table to the jumps still worth having, and the table
    starts again empty before it would pass 2n entries, so it takes O(n)
    memory.  `_extend` is its only caller.
    """
    x, a, b = u, c, d
    steps = 0
    jumped = False
    while True:
        hop = ends.pop((x, a, b), None) if ends else None
        if hop is None:
            w = nbr[x].get(b)
            if w is None:
                break
            x, a, b = w, b, a
            steps += 1
        else:
            x, b = hop
            a = d if b == c else c
            jumped = True
    if jumped or steps >= _CACHE_MIN_WALK:
        if len(ends) >= 2 * len(nbr):
            ends.clear()
        ends[u, c, d] = x, b
    return x


def closes_cycle(nbr: list[dict[Color, int]], u: int, v: int, c: Color) -> bool:
    """Whether the edge uv in color c lies on a {c, d}-cycle for some d.

    Such a cycle needs d at both ends and a d, c, ..., d walk from u that
    reaches v.  With uv uncolored and c free at both ends, that walk is the
    whole alternating walk from u and must end at v, which it does just
    when the one from v ends at u.  With uv already colored c, the walk
    ends at v exactly when uv's {c, d}-component is a cycle.  So the answer
    is symmetric in u and v, as is the set of candidates d, the colors
    other than c at both ends, and the loop runs over the colors of the
    endpoint with fewer of them: a leaf next to a hub costs O(1), not
    O(d(hub)).
    """
    if len(nbr[v]) < len(nbr[u]):
        u, v = v, u
    nv = nbr[v]
    for d in nbr[u]:
        if d == c or d not in nv:
            continue
        if alternating_walk(nbr, u, d, c)[0][-1] == v:
            return True
    return False


def maximal_bichromatic_path(
    g: Graph, phi: PartialEdgeColoring, v: int, alpha: Color, beta: Color
) -> Optional[BichromaticPath]:
    """The unique maximal (alpha, beta)-alternating path through v.

    Properness gives each vertex at most one incident edge per color, so
    the walk is deterministic.  A closed walk is reported with cycle=True.
    Absent when v touches neither color.
    """
    _check_graph(g, phi)
    _check_pair(phi, alpha, beta)
    g._check(v)
    path, closed = alternating_walk(phi._nbr, v, alpha, beta)
    if closed:
        first, n_edges = alpha, len(path)
    else:
        # v is on no cycle, so walking the other way cannot close either
        back, _ = alternating_walk(phi._nbr, v, beta, alpha)
        if len(path) == 1 and len(back) == 1:
            return None
        # the back walk's edges run beta, alpha, ...; its last one opens the path
        first = alpha if len(back) % 2 else beta
        path = back[::-1] + path[1:]
        n_edges = len(path) - 1
    pair = (first, beta if first == alpha else alpha)
    edge_colors = tuple(pair[i % 2] for i in range(n_edges))
    return BichromaticPath(tuple(path), (alpha, beta), edge_colors, closed)


def exists_critical_path(
    g: Graph, phi: PartialEdgeColoring, alpha: Color, beta: Color, u: int, v: int
) -> bool:
    """True iff the maximal (alpha, beta)-path from u's alpha-edge ends at v
    via an alpha-edge.  Such a path is exactly what makes coloring the edge
    uv with beta close a bichromatic cycle."""
    _check_graph(g, phi)
    _check_pair(phi, alpha, beta)
    g._check(u)
    g._check(v)
    if u == v:
        raise ValueError("critical path endpoints must differ")
    # a maximal path STARTS at u only if u is an endpoint, i.e. has no
    # beta-edge; without this the relation would not be symmetric in u, v
    if beta in phi._nbr[u]:
        return False
    # alpha is the last color exactly when the walk has an even vertex count
    seq, closed = alternating_walk(phi._nbr, u, alpha, beta)
    return not closed and seq[-1] == v and len(seq) % 2 == 0


def find_bichromatic_cycle(g: Graph, phi: PartialEdgeColoring) -> Optional[CycleWitness]:
    """A cycle whose edges use exactly two colors, or None.

    The witness is fixed by a rule, not by the search: among all
    two-colored cycles take the smallest color pair (a, b), a < b, then the
    lowest vertex on any {a, b}-cycle, and walk the cycle from that vertex
    via its a-edge.

    The search removes the vertices of the colored edges one by one and
    calls a vertex's edges to vertices still present its forward edges.
    The first vertex of a cycle to be removed has both of its cycle edges
    forward, so walking from each vertex only the color pairs on its
    forward edges meets every two-colored cycle, in any removal order.  The
    order is a degeneracy order (Matula & Beck, J. ACM 30, 1983), made by
    a peel with a rising threshold (Batagelj & Zaversnik, 2003): a vertex
    with at most t neighbors left may go, and t rises to the least degree
    left only when none may.  t never exceeds the degeneracy, so a planar
    graph has at most 5 forward edges per vertex, hence at most 10 pairs,
    and any graph at most degeneracy * m / 2 pairs in all.

    A pair (a, b) is walked only if both of v's edges in it lead on: v's
    a-neighbor has a b-edge whose far end has an a-edge, and v's b-neighbor
    has an a-edge whose far end has a b-edge.  An {a, b}-cycle through v
    has at least 4 vertices and meets both.  Without the first the walk
    stops open within 3 vertices, where `covered` would gain no vertex
    worth keeping; without the second v's {a, b}-component is a path, so
    the walk cannot close, however long it runs.  The pass also yields
    the largest color: each colored edge is forward from exactly one end.
    """
    _check_graph(g, phi)
    if phi.violations:
        raise ImproperColoringError(f"coloring has {len(phi.violations)} properness violations")
    return _scan(phi._nbr)[0]


def _scan(nbr: list[dict[Color, int]]) -> tuple[Optional[CycleWitness], int]:
    # `find_bichromatic_cycle`'s search; it takes the largest color on the way
    deg = list(map(len, nbr))
    removed = bytearray(len(nbr))
    rest = [v for v, d in enumerate(deg) if d]
    t = 1
    stack = [v for v in rest if deg[v] == 1]
    best: Optional[tuple[Color, Color]] = None
    top = 0
    # for each pair (a, b), vertices that an open {a, b}-walk has passed:
    # their two-colored component is a path, so no walk from them closes
    covered: defaultdict[tuple[Color, Color], set[int]] = defaultdict(set)
    # deg[v] counts v's neighbors not yet removed; v is stacked when it
    # falls to the threshold t, so it leaves with at most t forward edges
    while True:
        while stack:
            v = stack.pop()
            removed[v] = 1
            row = nbr[v]
            if deg[v] < 2:  # at most one forward edge: no pair to walk
                for c, w in row.items():
                    if not removed[w]:
                        if c > top:
                            top = c
                        deg[w] -= 1
                        if deg[w] == t:
                            stack.append(w)
                continue
            fwd = []
            for c, w in row.items():
                if not removed[w]:
                    fwd.append(c)
                    deg[w] -= 1
                    if deg[w] == t:
                        stack.append(w)
            fwd.sort()
            if fwd[-1] > top:
                top = fwd[-1]
            # pairs come in rising order: none after one at best can beat it
            for a, b in combinations(fwd, 2):
                x = nbr[row[a]].get(b)  # the walk's third vertex, if any
                if x is None or a not in nbr[x]:
                    continue
                y = nbr[row[b]].get(a)  # the same from v's b-edge
                if y is None or b not in nbr[y]:
                    continue
                if best is not None and (a, b) >= best:
                    break
                seen = covered[a, b]
                if v in seen:
                    continue
                seq, closed = alternating_walk(nbr, v, a, b)
                if closed:
                    best = (a, b)
                    break
                # only a vertex with a and b both forward is looked up here,
                # so the whole walk can go in: v is gone, seq[1]'s a-edge
                # leads to v and seq[-1] misses a or b
                seen.update(seq)
        rest = [v for v in rest if not removed[v]]
        if not rest:
            break
        t = min(map(deg.__getitem__, rest))
        stack = [v for v in rest if deg[v] == t]
    if best is None:
        return None, top
    # the witness rule: the lowest vertex on an {a, b}-cycle, via its a-edge
    a, b = best
    visited: set[int] = set()
    for s in range(len(nbr)):
        if s in visited or a not in nbr[s] or b not in nbr[s]:
            continue
        seq, closed = alternating_walk(nbr, s, a, b)
        if closed:
            return CycleWitness(tuple(seq), best), top
        visited.update(seq)
    raise AssertionError(f"no {best}-cycle on the second pass")


def validate_acyclic(g: Graph, phi: PartialEdgeColoring) -> ValidationReport:
    """Full acyclicity report: completeness, properness, cycle witness, max
    color; one scan gives a proper coloring's cycle and largest color."""
    _check_graph(g, phi)
    cycle, top = (None, phi.max_color_used()) if phi.violations else _scan(phi._nbr)
    return ValidationReport(phi.is_complete(), not phi.violations, cycle, top)
