"""Simple undirected graphs with dense integer vertex ids.

A graph keeps one edge store: each vertex's neighbors as a sorted tuple.
`edges()` reads the canonical pairs off those rows in order, and
`has_edge` scans the shorter of its two rows, so it costs O(min degree).
Graphs are immutable values: `remove_edge` returns a new graph that
copies only the tuple of rows and rewrites the two rows it touches, so the
reference reduction loop (`choose_reduction_edge` then `remove_edge`)
costs O(n + degree) per step; the colorer peels on its own mutable
adjacency sets instead and never changes a `Graph`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from .errors import EdgeListParseError

Edge = tuple[int, int]

# The largest vertex count `parse_edge_list` accepts.  A graph takes memory
# for every vertex the header declares, edges or not, so the header alone
# must not decide how much memory a parse takes.
MAX_VERTICES = 1_000_000


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph on vertices 0..n-1, stored as sorted
    neighbor rows alone.

    The constructor is the one check of untrusted edge rows: it takes them
    in the order given and refuses the first that is out of range, a
    self-loop or a duplicate in either orientation (ValueError).  Rows that
    are already sorted, simple and symmetric by construction go through
    `Graph._trusted` unchecked; its callers are `remove_edge`, the
    triangulation builder `embedding._stack` and the generated families
    in `families`.
    """

    __slots__ = ("_n", "_m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        # the repeat check needs a set while the rows arrive; it keys each
        # edge by one int, min * n + max, and is dropped once they are in
        seen: set[int] = set()
        add = seen.add
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u < v:
                key = u * n + v
            elif u > v:
                key = v * n + u
            else:
                raise ValueError(f"self-loop at vertex {u}")
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._n = n
        self._m = len(seen)
        del seen
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @classmethod
    def _trusted(cls, n: int, m: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """The graph with n vertices, m edges and neighbor rows adj, taken
        as given: each row sorted, free of its own vertex and of repeats,
        and v in adj[u] exactly when u in adj[v]."""
        g = object.__new__(cls)
        g._n = n
        g._m = m
        g._adj = adj
        return g

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> list[Edge]:
        """Canonical edge list: sorted (min, max) pairs."""
        return [(u, v) for u, row in enumerate(self._adj) for v in row if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge, by a scan of the shorter of the two rows;
        False for an id outside 0..n-1, which is never read as an index."""
        n = self._n
        if not (0 <= u < n and 0 <= v < n):
            return False
        a = self._adj[u]
        b = self._adj[v]
        return v in a if len(a) <= len(b) else u in b

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not in graph")
        # the reduce loop strips one edge per step, so skip revalidation
        # and patch the two adjacency rows instead of rebuilding
        adj = list(self._adj)
        adj[u] = tuple(x for x in adj[u] if x != v)
        adj[v] = tuple(x for x in adj[v] if x != u)
        return Graph._trusted(self._n, self._m - 1, tuple(adj))

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self._n
        comps = []
        for s in range(self._n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in self._adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self._n <= 1 or len(self.connected_components()) == 1

    def _check(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range for n={self._n}")

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Graph)
            and self._n == other._n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` / `u v` edge-list format, 0-based ids.

    Raises EdgeListParseError with a 1-based line number on any defect,
    including duplicate edges and self-loops, and on a header n above
    MAX_VERTICES.  This parse checks the header and each row's tokens and
    range; `Graph` checks the rows for self-loops and repeats, and its
    refusal is raised here at the line of the row it refused.
    """
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise EdgeListParseError("missing header line `n m`", idx + 1)
    header = lines[idx].split()
    if len(header) != 2:
        raise EdgeListParseError(f"expected header `n m`, got {lines[idx].strip()!r}", idx + 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError(f"non-integer header fields {lines[idx].strip()!r}", idx + 1) from None
    if n < 0 or m < 0:
        raise EdgeListParseError("n and m must be nonnegative", idx + 1)
    if n > MAX_VERTICES:
        raise EdgeListParseError(
            f"header declares n={n}, above the limit of {MAX_VERTICES} vertices", idx + 1
        )

    lineno = idx + 1
    # `int` makes a new object per token; the graph's rows keep the ids
    # they are given, so each row yields the one shared object per id
    ids = list(range(n))

    def rows():
        # yields each row to `Graph` and keeps `lineno` at the row it yielded
        nonlocal lineno
        for lineno in range(idx + 2, len(lines) + 1):
            raw = lines[lineno - 1]
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise EdgeListParseError(f"expected `u v`, got {raw.strip()!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(f"non-integer vertex ids {raw.strip()!r}", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListParseError(f"vertex id out of range in ({u},{v})", lineno)
            yield ids[u], ids[v]

    try:
        g = Graph(n, rows())
    except EdgeListParseError:
        raise
    except ValueError as exc:
        raise EdgeListParseError(str(exc), lineno) from None
    if g.m != m:
        raise EdgeListParseError(f"header declares m={m} but {g.m} edges were given", lineno)
    return g


def _edge_list_lines(g: Graph) -> Iterator[str]:
    """The lines of `format_edge_list(g)` without their newlines: the
    header `n m`, then each edge `u v` with u < v, in `edges()` order."""
    yield f"{g.n} {g.m}"
    for u, row in enumerate(g._adj):
        # a row is sorted, so its neighbors above u are a suffix
        for v in row[bisect_right(row, u):]:
            yield f"{u} {v}"


def format_edge_list(g: Graph) -> str:
    return "\n".join(_edge_list_lines(g)) + "\n"
