"""Standard graph families used by the CLI examples and the test corpus."""

from __future__ import annotations

import math

from .embedding import RotationSystem, _stack, trace_faces
from .graphs import Graph

PHI = (1 + math.sqrt(5)) / 2


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycles need n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to leaves 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel_graph(rim: int) -> Graph:
    """Hub 0 joined to a rim cycle 1..rim."""
    if rim < 3:
        raise ValueError(f"wheels need rim >= 3, got {rim}")
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def _rotation_from_coordinates(
    coords: list[tuple[float, float, float]], g: Graph
) -> RotationSystem:
    """Neighbor order by angle in the tangent plane at each vertex.

    For a convex polyhedron centered at the origin this yields a consistent
    orientation, hence a genus-0 rotation system; trace_faces asserts it.
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
        order.append([u for _, u in sorted(angles)])
    return RotationSystem(order)


def _solid_from_coordinates(
    coords: list[tuple[float, float, float]],
) -> tuple[Graph, RotationSystem]:
    # Edges = vertex pairs at the minimum pairwise distance.
    n = len(coords)
    d2 = {}
    for i in range(n):
        for j in range(i + 1, n):
            diff = tuple(a - b for a, b in zip(coords[i], coords[j]))
            d2[(i, j)] = sum(x * x for x in diff)
    mind = min(d2.values())
    edges = [e for e, dist in d2.items() if dist < mind * (1 + 1e-9)]
    g = Graph(n, edges)
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
    g = cycle_graph(3)
    return g, RotationSystem([[1, 2], [2, 0], [0, 1]])


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
