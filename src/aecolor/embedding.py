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
    """Per-vertex cyclic neighbor order (clockwise by convention)."""

    __slots__ = ("_order", "_succ")

    def __init__(self, order: Iterable[Sequence[int]]):
        self._order = tuple(tuple(nbrs) for nbrs in order)
        succ = []
        for v, nbrs in enumerate(self._order):
            if len(set(nbrs)) != len(nbrs):
                raise InvalidRotationError(f"repeated neighbor in rotation at {v}")
            d = len(nbrs)
            succ.append({nbrs[i]: nbrs[(i + 1) % d] for i in range(d)})
        self._succ = tuple(succ)

    @property
    def n(self) -> int:
        return len(self._order)

    def order(self, v: int) -> tuple[int, ...]:
        return self._order[v]

    def successor(self, v: int, u: int) -> int:
        """The neighbor after u in the cyclic order at v."""
        try:
            return self._succ[v][u]
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

    # each face starts at its smallest dart and faces come in order of it,
    # so one sorted pass over the darts finds the starts in O(m log m)
    darts = sorted(d for u, v in g.edges() for d in ((u, v), (v, u)))
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


class _Stacker:
    """Grows a triangulation by inserting vertices into triangular faces.

    Faces are kept as oriented corner triples (a, b, c) standing for the
    dart walk a->b->c->a.  Inserting w into (a, b, c) splits it into
    (a, b, w), (b, c, w), (c, a, w) and splices w into the three rotations
    so every face walk stays a triangle.
    """

    def __init__(self):
        self.rotations: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
        self.edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
        self.faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 2, 1)]

    def insert_at(self, face_index: int) -> int:
        a, b, c = self.faces.pop(face_index)
        w = len(self.rotations)
        self.rotations.append([b, a, c])
        ra, rb, rc = self.rotations[a], self.rotations[b], self.rotations[c]
        ra.insert(ra.index(c) + 1, w)
        rb.insert(rb.index(a) + 1, w)
        rc.insert(rc.index(b) + 1, w)
        self.edges += [(a, w), (b, w), (c, w)]
        self.faces += [(a, b, w), (b, c, w), (c, a, w)]
        return w

    def insert_into(self, face: tuple[int, int, int]) -> int:
        return self.insert_at(self.faces.index(face))

    def build(self) -> tuple[Graph, RotationSystem]:
        n = len(self.rotations)
        return Graph(n, self.edges), RotationSystem(self.rotations)


def generate_apollonian(n: int, seed: int) -> tuple[Graph, RotationSystem]:
    """Random stacked triangulation on n vertices; m = 3n - 6.

    Starts from a triangle and repeatedly inserts a vertex inside a
    uniformly chosen face.  Deterministic for fixed (n, seed).
    """
    if n < 3:
        raise ValueError(f"triangulations need n >= 3, got {n}")
    rng = random.Random(seed)
    st = _Stacker()
    for _ in range(n - 3):
        st.insert_at(rng.randrange(len(st.faces)))
    return st.build()


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
