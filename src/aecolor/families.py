"""Standard graph families used by the CLI examples and the test corpus.

Each family knows its neighbor rows: it builds each vertex's row sorted,
free of repeats and symmetric by construction, and returns
`Graph._trusted`, so no generated graph pays the repeat check of the
checked constructor `Graph(n, edges)`.  The solids' rotations go through
`RotationSystem._trusted` the same way, each a permutation of its row.
Since neither trusted constructor checks its input, each family checks
its own size arguments: a non-int size raises TypeError and a size below
the family's least one raises ValueError.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import index

from .embedding import RotationSystem, _stack
from .graphs import Graph

PHI = (1 + math.sqrt(5)) / 2


def _size(x: int, least: int, what: str) -> int:
    """x as a plain int, refused when it is below least."""
    x = index(x)
    if x < least:
        raise ValueError(f"{what} >= {least}, got {x}")
    return x


def path_graph(n: int) -> Graph:
    n = _size(n, 0, "paths need n")
    if n < 2:
        return Graph._trusted(n, 0, ((),) * n)
    # the middle rows are (i - 1, i + 1) for i = 1..n-2
    adj = ((1,), *zip(range(n - 2), range(2, n)), (n - 2,))
    return Graph._trusted(n, n - 1, adj)


def cycle_graph(n: int) -> Graph:
    n = _size(n, 3, "cycles need n")
    adj = ((1, n - 1), *zip(range(n - 2), range(2, n)), (0, n - 2))
    return Graph._trusted(n, n, adj)


def complete_graph(n: int) -> Graph:
    n = _size(n, 0, "complete graphs need n")
    ids = tuple(range(n))
    return Graph._trusted(n, n * (n - 1) // 2, tuple(ids[:v] + ids[v + 1:] for v in ids))


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to leaves 1..leaves."""
    leaves = _size(leaves, 0, "stars need leaves")
    # the leaves share one row tuple, so a leaf costs no row of its own
    adj = (tuple(range(1, leaves + 1)), *repeat((0,), leaves))
    return Graph._trusted(leaves + 1, leaves, adj)


def wheel_graph(rim: int) -> Graph:
    """Hub 0 joined to a rim cycle 1..rim."""
    # a 2-rim would repeat an edge
    rim = _size(rim, 3, "wheels need rim")
    # rim vertex v's row is (0, v - 1, v + 1), with rim and 1 for the ends
    adj = (
        tuple(range(1, rim + 1)),
        (0, 2, rim),
        *zip(repeat(0), range(1, rim - 1), range(3, rim + 1)),
        (0, 1, rim - 1),
    )
    return Graph._trusted(rim + 1, 2 * rim, adj)


def grid_graph(rows: int, cols: int) -> Graph:
    """Vertex r * cols + c at row r, column c, joined to the vertices
    beside it in its row and its column."""
    rows = _size(rows, 0, "grids need rows")
    cols = _size(cols, 0, "grids need cols")
    adj = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            # above, left, right, below: ascending ids
            row = []
            if r:
                row.append(v - cols)
            if c:
                row.append(v - 1)
            if c + 1 < cols:
                row.append(v + 1)
            if r + 1 < rows:
                row.append(v + cols)
            adj.append(tuple(row))
    m = rows * (cols - 1) + (rows - 1) * cols if rows and cols else 0
    return Graph._trusted(rows * cols, m, tuple(adj))


def _rotation_from_coordinates(
    coords: list[tuple[float, float, float]], g: Graph
) -> RotationSystem:
    """Neighbor order by angle in the tangent plane at each vertex.

    For a convex polyhedron centered at the origin this yields a consistent
    orientation, hence a genus-0 rotation system; trace_faces asserts it.
    Each vertex's order is a permutation of its row, so the rotation is
    built unchecked.
    """

    def sub(p, q):
        return (p[0] - q[0], p[1] - q[1], p[2] - q[2])

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    def cross(p, q):
        return (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )

    def scale(p, s):
        return (p[0] * s, p[1] * s, p[2] * s)

    def unit(p):
        return scale(p, 1.0 / math.sqrt(dot(p, p)))

    order = []
    for v in g.vertices():
        p = coords[v]
        nrm = unit(p)
        ref = sub(coords[g.neighbors(v)[0]], p)
        e1 = unit(sub(ref, scale(nrm, dot(ref, nrm))))
        e2 = cross(nrm, e1)
        angles = []
        for u in g.neighbors(v):
            w = sub(coords[u], p)
            angles.append((math.atan2(dot(w, e2), dot(w, e1)), u))
        order.append(tuple(u for _, u in sorted(angles)))
    return RotationSystem._trusted(tuple(order))


def _solid_from_coordinates(
    coords: list[tuple[float, float, float]],
) -> tuple[Graph, RotationSystem]:
    # the edges join the vertex pairs at the least pairwise distance, so
    # each row lists, in id order, the vertices at that distance from its
    # own; the squared distance is the same float read from either end
    n = len(coords)
    d2 = [[sum((a - b) * (a - b) for a, b in zip(p, q)) for q in coords] for p in coords]
    cut = min(d2[i][j] for i in range(n) for j in range(i + 1, n)) * (1 + 1e-9)
    adj = tuple(tuple(j for j in range(n) if j != i and d2[i][j] < cut) for i in range(n))
    g = Graph._trusted(n, sum(map(len, adj)) // 2, adj)
    return g, _rotation_from_coordinates(coords, g)


def tetrahedron() -> tuple[Graph, RotationSystem]:
    return _solid_from_coordinates(
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    )


def cube() -> tuple[Graph, RotationSystem]:
    coords = [
        (float(1 - 2 * (i & 1)), float(1 - 2 * ((i >> 1) & 1)), float(1 - 2 * (i >> 2)))
        for i in range(8)
    ]
    return _solid_from_coordinates(coords)


def octahedron() -> tuple[Graph, RotationSystem]:
    return _solid_from_coordinates(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def icosahedron() -> tuple[Graph, RotationSystem]:
    coords = []
    for a in (1.0, -1.0):
        for b in (PHI, -PHI):
            coords += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return _solid_from_coordinates(coords)


def dodecahedron() -> tuple[Graph, RotationSystem]:
    coords = [
        (float(x), float(y), float(z))
        for x in (1, -1)
        for y in (1, -1)
        for z in (1, -1)
    ]
    inv = 1 / PHI
    for a in (inv, -inv):
        for b in (PHI, -PHI):
            coords += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return _solid_from_coordinates(coords)


PLATONIC = {
    "tetrahedron": tetrahedron,
    "cube": cube,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "dodecahedron": dodecahedron,
}


def platonic_solids() -> dict[str, tuple[Graph, RotationSystem]]:
    return {name: build() for name, build in PLATONIC.items()}


def triakis_tetrahedron() -> tuple[Graph, RotationSystem]:
    """K4 with one vertex stacked into each of its four faces.

    Every vertex has degree 3 or 6, so no discharging-rule precondition can
    fail; used to exercise a full clean discharging pass.
    """
    # rank 0 is the oldest live face: the first insertion makes K4 out of
    # the triangle, and each of the next four fills the oldest of K4's faces
    return _stack(8, [0] * 5)


def triangle_embedded() -> tuple[Graph, RotationSystem]:
    return cycle_graph(3), RotationSystem._trusted(((1, 2), (2, 0), (0, 1)))


__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "wheel_graph",
    "grid_graph",
    "tetrahedron",
    "cube",
    "octahedron",
    "icosahedron",
    "dodecahedron",
    "PLATONIC",
    "platonic_solids",
    "triakis_tetrahedron",
    "triangle_embedded",
]
