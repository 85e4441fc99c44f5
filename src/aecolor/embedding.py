"""Rotation systems, face traversal, and triangulation generation.

Embeddings are inputs or generator outputs, never computed from an abstract
graph.  A rotation system fixes the cyclic neighbor order at each vertex;
faces arise from dart traversal: the dart after (u, v) is (v, w) where w is
the successor of u in the rotation at v.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .errors import InvalidRotationError, NonPlanarEmbeddingError
from .graphs import Graph

Dart = tuple[int, int]


class RotationSystem:
    """Per-vertex cyclic neighbor order (clockwise by convention).

    A repeated neighbor is refused when the system is built.  The
    successor index, one neighbor -> next neighbor dict per vertex, is
    built on the first `successor` call, so a rotation that is only
    formatted never pays for it.
    """

    __slots__ = ("_order", "_succ")

    def __init__(self, order: Iterable[Sequence[int]]):
        self._order = tuple(tuple(nbrs) for nbrs in order)
        for v, nbrs in enumerate(self._order):
            if len(set(nbrs)) != len(nbrs):
                raise InvalidRotationError(f"repeated neighbor in rotation at {v}")
        self._succ: Optional[tuple[dict[int, int], ...]] = None

    @property
    def n(self) -> int:
        return len(self._order)

    def order(self, v: int) -> tuple[int, ...]:
        return self._order[v]

    def successor(self, v: int, u: int) -> int:
        """The neighbor after u in the cyclic order at v."""
        succ = self._succ
        if succ is None:
            succ = self._succ = tuple(dict(zip(r, r[1:] + r[:1])) for r in self._order)
        try:
            return succ[v][u]
        except KeyError:
            raise InvalidRotationError(f"{u} is not in the rotation at {v}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, RotationSystem) and self._order == other._order

    def __repr__(self) -> str:
        return f"RotationSystem(n={self.n})"


class FaceSet:
    """All faces of an embedding, each a closed dart walk."""

    __slots__ = ("faces", "_darts_into")

    def __init__(self, faces: tuple[tuple[Dart, ...], ...]):
        self.faces = faces
        self._darts_into: Optional[dict[int, list[tuple[int, int]]]] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, FaceSet) and self.faces == other.faces

    def __hash__(self) -> int:
        return hash(self.faces)

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self):
        return iter(self.faces)

    def lengths(self) -> list[int]:
        return [len(f) for f in self.faces]

    def all_triangles(self) -> bool:
        return all(len(f) == 3 for f in self.faces)

    @property
    def darts_into(self) -> dict[int, list[tuple[int, int]]]:
        """Vertex v -> (face index, position) of every dart (x, v) into v,
        in face order.  Built once per face set, on first use."""
        index = self._darts_into
        if index is None:
            index = self._darts_into = {}
            for fi, walk in enumerate(self.faces):
                for i, (_, y) in enumerate(walk):
                    index.setdefault(y, []).append((fi, i))
        return index


def _validate_rotation(g: Graph, rot: RotationSystem) -> None:
    if rot.n != g.n:
        raise InvalidRotationError(f"rotation covers {rot.n} vertices, graph has {g.n}")
    for v in g.vertices():
        if tuple(sorted(rot.order(v))) != g.neighbors(v):
            raise InvalidRotationError(
                f"rotation at {v} is not a permutation of its neighbors"
            )


def trace_faces(g: Graph, rot: RotationSystem) -> FaceSet:
    """Partition all 2m darts into face walks and assert genus 0.

    Requires a connected graph with at least one edge, since the Euler
    count n - m + f = 2 is only meaningful there.  A count other than 2
    raises NonPlanarEmbeddingError: the rotation embeds g on a higher-genus
    surface.
    """
    _validate_rotation(g, rot)
    if g.m == 0:
        raise ValueError("face tracing needs at least one edge")
    if not g.is_connected():
        raise ValueError("face tracing requires a connected graph")

    # each face starts at its smallest dart and faces come in order of it;
    # the rows are sorted, so reading them in order gives the darts sorted
    darts = [(u, v) for u, row in enumerate(g._adj) for v in row]
    seen: set[Dart] = set()
    faces: list[tuple[Dart, ...]] = []
    for start in darts:
        if start in seen:
            continue
        walk = [start]
        seen.add(start)
        u, v = start
        while True:
            nxt = (v, rot.successor(v, u))
            if nxt == start:
                break
            walk.append(nxt)
            seen.add(nxt)
            u, v = nxt
        faces.append(tuple(walk))

    fs = FaceSet(tuple(faces))
    assert sum(fs.lengths()) == 2 * g.m
    euler = g.n - g.m + len(fs)
    if euler != 2:
        raise NonPlanarEmbeddingError(
            f"Euler count n-m+f = {g.n}-{g.m}+{len(fs)} = {euler}, expected 2"
        )
    return fs


# Live faces are held in blocks of about this many, so that a pick scans the
# block lengths and pops inside one block instead of shifting every later
# face.  Timed on the face store alone at n = 10**6, 2**14 took 9.3 s against
# 13.5 s at 2**13 and 8.6 s at 2**15: fewer blocks to scan trade against
# longer pops.  A graph on up to 8195 vertices keeps one block.
_BLOCK = 1 << 14


def _stack(n: int, ranks: Iterable[int]) -> tuple[Graph, RotationSystem]:
    """Grow a triangle to n vertices by inserting w = 3, ..., n-1 in turn,
    each into the ranks[w-3]-th live face.

    Faces are oriented corner triples (a, b, c) standing for the dart walk
    a->b->c->a, ranked in creation order: the triangle's two faces are
    (0, 1, 2) and (0, 2, 1), and inserting w into (a, b, c) removes it and
    creates (a, b, w), (b, c, w), (c, a, w) last, in that order.  Before
    the j-th insertion (from 0) there are 2 + 2j live faces, and a rank
    must be below that.  The insertion splices w into the rotations at a,
    b and c so every face walk stays a triangle.
    """
    rots: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
    edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
    tail: list[tuple[int, int, int]] = [(0, 1, 2), (0, 2, 1)]
    blocks = [tail]
    for w, k in zip(range(3, n), ranks):
        for block in blocks:
            size = len(block)
            if k < size:
                break
            k -= size
        a, b, c = block.pop(k)
        rots.append([b, a, c])
        r = rots[a]
        r.insert(r.index(c) + 1, w)
        r = rots[b]
        r.insert(r.index(a) + 1, w)
        r = rots[c]
        r.insert(r.index(b) + 1, w)
        edges += ((a, w), (b, w), (c, w))
        if len(tail) >= _BLOCK:
            tail = []
            blocks.append(tail)
        tail += ((a, b, w), (b, c, w), (c, a, w))
    # the graph build sets the peak memory, so the faces go first: at
    # n = 10**6 that lowers the peak RSS of `gen` from 1013 to 891 MB
    for block in blocks:
        block.clear()
    return Graph(n, edges), RotationSystem(rots)


def generate_apollonian(n: int, seed: int) -> tuple[Graph, RotationSystem]:
    """Random stacked triangulation on n vertices; m = 3n - 6.

    Starts from a triangle and repeatedly inserts a vertex inside a
    uniformly chosen face.  What keeps the graph and rotation of a fixed
    (n, seed) the same whatever stores the faces: before the j-th
    insertion there are 2 + 2j live faces, it draws k = randrange(2 + 2j),
    and it inserts into the k-th live face in creation order (see
    `_stack`).
    """
    if n < 3:
        raise ValueError(f"triangulations need n >= 3, got {n}")
    rng = random.Random(seed)
    return _stack(n, map(rng.randrange, range(2, 2 * n - 4, 2)))


def parse_rotation(text: str, g: Graph) -> RotationSystem:
    """Parse the `v: u1 u2 ... ud` rotation file format against g."""
    order: list[list[int] | None] = [None] * g.n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise InvalidRotationError(f"line {lineno}: expected `v: u1 u2 ...`")
        try:
            v = int(head)
            nbrs = [int(tok) for tok in rest.split()]
        except ValueError:
            raise InvalidRotationError(f"line {lineno}: non-integer id") from None
        if not (0 <= v < g.n):
            raise InvalidRotationError(f"line {lineno}: vertex {v} out of range")
        if order[v] is not None:
            raise InvalidRotationError(f"line {lineno}: vertex {v} listed twice")
        order[v] = nbrs
    rot = RotationSystem([o if o is not None else [] for o in order])
    _validate_rotation(g, rot)
    return rot


def format_rotation(rot: RotationSystem) -> str:
    lines = [f"{v}: " + " ".join(map(str, rot.order(v))) for v in range(rot.n)]
    return "\n".join(lines) + "\n"
