"""Simple undirected graphs with dense integer vertex ids.

Graphs are immutable values: mutating operations return new graphs.
`remove_edge` copies the adjacency rows and the edge set, so the reference
reduction loop (`choose_reduction_edge` then `remove_edge`) costs O(n + m)
per step; the colorer peels on its own mutable adjacency sets instead and
never changes a `Graph`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EdgeListParseError

Edge = tuple[int, int]

# The largest vertex count `parse_edge_list` accepts.  A graph takes memory
# for every vertex the header declares, edges or not, so the header alone
# must not decide how much memory a parse takes.
MAX_VERTICES = 1_000_000


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    The constructor checks the edges in the order given and refuses the
    first that is out of range, a self-loop or a duplicate (ValueError).
    """

    __slots__ = ("_n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        canon: set[Edge] = set()
        add = canon.add
        # every graph is built here, one row per edge, so the canonical
        # form is made inline rather than by a `_canon` call
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u < v:
                e = (u, v)
            elif u > v:
                e = (v, u)
            else:
                raise ValueError(f"self-loop at vertex {u}")
            if e in canon:
                raise ValueError(f"duplicate edge ({u},{v})")
            add(e)
            adj[u].append(v)
            adj[v].append(u)
        self._n = n
        self._edges = frozenset(canon)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> list[Edge]:
        """Canonical edge list: sorted (min, max) pairs."""
        return sorted(self._edges)

    def edge_set(self) -> frozenset[Edge]:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return _canon(u, v) in self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def remove_edge(self, u: int, v: int) -> "Graph":
        e = _canon(u, v)
        if e not in self._edges:
            raise ValueError(f"edge ({u},{v}) not in graph")
        # the reduce loop strips one edge per step, so skip revalidation
        # and patch the two adjacency rows instead of rebuilding
        g = object.__new__(Graph)
        g._n = self._n
        g._edges = self._edges - {e}
        adj = list(self._adj)
        adj[u] = tuple(x for x in adj[u] if x != v)
        adj[v] = tuple(x for x in adj[v] if x != u)
        g._adj = tuple(adj)
        return g

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
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` / `u v` edge-list format, 0-based ids.

    Raises EdgeListParseError with a 1-based line number on any defect,
    including duplicate edges and self-loops, and on a header n above
    MAX_VERTICES.
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

    edges: list[Edge] = []
    canon: set[Edge] = set()
    lineno = idx + 1
    for raw in lines[idx + 1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected `u v`, got {raw.strip()!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex ids {raw.strip()!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"vertex id out of range in ({u},{v})", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
        e = _canon(u, v)
        if e in canon:
            raise EdgeListParseError(f"duplicate edge ({u},{v})", lineno)
        canon.add(e)
        edges.append(e)
    if len(edges) != m:
        raise EdgeListParseError(f"header declares m={m} but {len(edges)} edges were given", lineno)
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
