"""Shared builders for the test suite.

The wheel patch builder constructs the one planar neighbourhood where a
discharging rule's arithmetic can be checked in isolation: a hub of the
target degree whose ring vertices are padded with pendant leaves until
they reach prescribed degrees.  Because every face at the hub is a
triangle, the rule classifier sees exactly the configuration the padding
encodes, and the sum of outgoing transfers can be compared against the
hub's initial charge as an exact rational.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
from hypothesis import strategies as st

from aecolor.coloring import CycleWitness, PartialEdgeColoring, alternating_walk
from aecolor.embedding import FaceSet, RotationSystem
from aecolor.families import (
    cube,
    cycle_graph,
    grid_graph,
    icosahedron,
    octahedron,
    platonic_solids,
    wheel_graph,
)
from aecolor.embedding import generate_apollonian
from aecolor.graphs import Graph
from aecolor.oracle import SearchBudget, search_acyclic_coloring


def wheel_patch(ring_degrees: tuple[int, ...]) -> tuple[Graph, RotationSystem]:
    """Hub 0 with ring 1..d, ring vertex j padded to degree ring_degrees[j-1].

    Pendant leaves are inserted between a ring vertex's hub edge and its
    successor edge so the faces meeting the hub stay triangular; the
    pendant half of the patch is irrelevant to the hub's rule.
    """
    d = len(ring_degrees)
    if d < 3 or any(r < 3 for r in ring_degrees):
        raise ValueError("ring needs >= 3 vertices of degree >= 3")
    edges = [(0, j) for j in range(1, d + 1)]
    for j in range(1, d + 1):
        nxt = j % d + 1
        edges.append((min(j, nxt), max(j, nxt)))
    edges = list(dict.fromkeys(edges))
    order: dict[int, list[int]] = {0: list(range(1, d + 1))}
    next_id = d + 1
    for j in range(1, d + 1):
        prev = (j - 2) % d + 1
        nxt = j % d + 1
        pendants = list(range(next_id, next_id + ring_degrees[j - 1] - 3))
        next_id += len(pendants)
        for p in pendants:
            edges.append((j, p))
            order[p] = [j]
        order[j] = [0, prev] + pendants + [nxt]
    g = Graph(next_id, edges)
    rot = RotationSystem([order[v] for v in range(next_id)])
    return g, rot


def random_proper_coloring(
    g: Graph, k: int, rng: random.Random
) -> PartialEdgeColoring | None:
    """Greedy proper edge coloring over a shuffled edge order, or None.

    Properness only; bichromatic cycles are allowed, which is the point:
    the path and cycle predicates under test must cope with arbitrary
    proper colorings, not just acyclic ones.
    """
    phi = PartialEdgeColoring(g, k)
    edges = g.edges()
    rng.shuffle(edges)
    for u, v in edges:
        free = free_colors(phi, u, v)
        if not free:
            return None
        phi.assign(u, v, rng.choice(free))
    return phi


def free_colors(phi: PartialEdgeColoring, x: int, y: int) -> list[int]:
    """Ascending colors in 1..k absent at both x and y."""
    return [c for c in range(1, phi.k + 1) if c not in phi._nbr[x] and c not in phi._nbr[y]]


def all_pairs_bichromatic_cycle(phi: PartialEdgeColoring) -> CycleWitness | None:
    """Reference cycle scan: every pair of colors present, lexicographically.

    For each pair (a, b), a < b, it walks from each vertex with both colors
    in ascending order, via its a-edge, and returns the first walk that
    closes.  Only the 2-core of the colored edges is scanned.  Its O(k * m)
    walks are what `find_bichromatic_cycle` avoids; its first witness is
    what that function must return.
    """
    nbr = phi._nbr
    deg = [len(d) for d in nbr]
    in_core = [d >= 2 for d in deg]
    stack = [v for v, d in enumerate(deg) if d == 1]
    while stack:
        for w in nbr[stack.pop()].values():
            if in_core[w]:
                deg[w] -= 1
                if deg[w] <= 1:
                    in_core[w] = False
                    stack.append(w)
    by_color: dict[int, list[int]] = {}
    for (u, v), c in phi.items():
        if in_core[u] and in_core[v]:
            by_color.setdefault(c, []).append(u)
            by_color.setdefault(c, []).append(v)
    present = sorted(by_color)
    for c in present:
        by_color[c] = sorted(set(by_color[c]))
    for i, a in enumerate(present):
        for b in present[i + 1:]:
            visited: set[int] = set()
            for s in by_color[a]:
                if s in visited or b not in nbr[s]:
                    continue
                seq, closed = alternating_walk(nbr, s, a, b)
                visited.update(seq)
                if closed:
                    return CycleWitness(tuple(seq), (a, b))
    return None


def first_fit_free_color(phi: PartialEdgeColoring, u: int, v: int) -> int | None:
    """Reference T1 scan: the smallest color in 1..k free at u and v that
    closes no two-colored cycle through uv.

    It scans from 1, ignoring the skip maps, and tests each color d at u,
    walking from u whatever the endpoints' color counts.  These are the
    O(d(hub)) per edge costs that the first-fit loop
    `PartialEdgeColoring._extend` avoids; its color is what that loop must
    find (see `first_fit`).
    """
    nbr = phi._nbr
    nu, nv = nbr[u], nbr[v]
    for c in range(1, phi.k + 1):
        if c in nu or c in nv:
            continue
        if not any(
            d != c and d in nv and alternating_walk(nbr, u, d, c)[0][-1] == v
            for d in nu
        ):
            return c
    return None


def first_fit(phi: PartialEdgeColoring, u: int, v: int) -> int | None:
    """T1's color for the uncolored edge uv, or None, leaving uv uncolored.

    It runs the first-fit loop as a one-step re-insertion and then deletes
    the two row entries the loop wrote, its last act: the skip maps and
    the jump table stay as the scan left them, which `unassign` would drop.
    """
    c = phi._extend((u,), (v,), 0, 0)[1]
    if c is not None:
        del phi._nbr[u][c], phi._nbr[v][c]
    return c


def assert_skip_maps_exact(phi: PartialEdgeColoring) -> None:
    """Every skip entry c -> c2 passes only colors used at its vertex."""
    for v, jump in phi._skip.items():
        for c, c2 in jump.items():
            assert c < c2 and all(x in phi._nbr[v] for x in range(c, c2))


def all_proper_colorings(g: Graph, k: int):
    """Yield every proper edge coloring of g with colors 1..k."""
    edges = g.edges()
    for combo in itertools.product(range(1, k + 1), repeat=len(edges)):
        phi = PartialEdgeColoring(g, k)
        ok = True
        for (u, v), c in zip(edges, combo):
            if c in phi._nbr[u] or c in phi._nbr[v]:
                ok = False
                break
            phi.assign(u, v, c)
        if ok:
            yield phi


def subset_enumerate_cycles(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Reference cycle enumerator: every edge subset, by size and then in
    `combinations` order over the sorted edges, that is 2-regular and
    connected.  Exponential in m; `enumerate_cycles` must return its list,
    in its order."""
    edges = g.edges()
    cycles = []
    for size in range(3, len(edges) + 1):
        for subset in itertools.combinations(edges, size):
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


def extension_graphs():
    yield "octahedron", octahedron()[0]
    yield "icosahedron", icosahedron()[0]
    yield "cube", cube()[0]
    for rim in range(4, 9):
        yield f"W{rim}", wheel_graph(rim)
    for rows, cols in [(3, 3), (3, 4)]:
        yield f"grid{rows}x{cols}", grid_graph(rows, cols)
    for n in (8, 9, 10):
        for seed in range(3):
            yield f"apollonian{n}s{seed}", generate_apollonian(n, seed)[0]


def extension_cases():
    """(name, g, k, e, phi) for each edge e of each extension fixture and
    each palette k in Δ..Δ+3 at which the searcher colors g - e; phi is
    that coloring, on g.  At Δ+10 only T1 ever fires, so these are the
    cases on which the escalation tiers run."""
    for name, g in extension_graphs():
        for k in range(g.max_degree(), g.max_degree() + 4):
            for e in g.edges():
                w = search_acyclic_coloring(
                    g.remove_edge(*e), k, SearchBudget(max_nodes=200_000)
                )
                if isinstance(w, dict):
                    triples = [(u, v, c) for (u, v), c in w.items()]
                    yield name, g, k, e, PartialEdgeColoring.from_pairs(g, k, triples)


def all_trees(max_n: int) -> list[Graph]:
    """Every tree on 1..max_n vertices, one per isomorphism class."""
    out = [Graph(1, [])]
    for n in range(2, max_n + 1):
        for t in nx.nonisomorphic_trees(n):
            out.append(Graph(n, list(t.edges())))
    return out


def corpus_graphs() -> list[tuple[str, Graph]]:
    """The planar corpus: trees, cycles, wheels, grids <= 12 vertices,
    platonic solids, Apollonian triangulations at four sizes x five seeds."""
    out: list[tuple[str, Graph]] = []
    for i, t in enumerate(all_trees(12)):
        out.append((f"tree[{i}]n{t.n}", t))
    for n in range(3, 13):
        out.append((f"C{n}", cycle_graph(n)))
    for rim in range(3, 12):
        out.append((f"W{rim}", wheel_graph(rim)))
    for rows, cols in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]:
        out.append((f"grid{rows}x{cols}", grid_graph(rows, cols)))
    for name, (g, _) in platonic_solids().items():
        out.append((name, g))
    for n in (10, 50, 200, 1000):
        for seed in range(5):
            g, _ = generate_apollonian(n, seed)
            out.append((f"apollonian{n}s{seed}", g))
    return out


@st.composite
def small_graphs(draw, max_n: int = 8, max_m: int | None = None) -> Graph:
    """Random simple graph strategy for property tests."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=0,
                 max_size=len(possible) if max_m is None else min(max_m, len(possible)))
    ) if possible else []
    return Graph(n, edges)


def embedded_corpus() -> list[tuple[str, Graph, RotationSystem]]:
    """Connected embedded graphs: the solids plus Apollonian samples."""
    from aecolor.families import triakis_tetrahedron, triangle_embedded

    out = [(name, g, rot) for name, (g, rot) in platonic_solids().items()]
    g, rot = triangle_embedded()
    out.append(("triangle", g, rot))
    g, rot = triakis_tetrahedron()
    out.append(("triakis", g, rot))
    for n in (10, 50, 200):
        for seed in range(3):
            g, rot = generate_apollonian(n, seed)
            out.append((f"apollonian{n}s{seed}", g, rot))
    return out


class ReferenceStacker:
    """The flat-list stacking loop: the live faces in one list, in creation
    order.  A pick pops from that list, which shifts every later face, and
    inserting w into (a, b, c) appends (a, b, w), (b, c, w), (c, a, w)."""

    def __init__(self):
        self.rotations: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
        self.edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
        self.faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 2, 1)]

    def insert_at(self, face_index: int) -> None:
        a, b, c = self.faces.pop(face_index)
        w = len(self.rotations)
        self.rotations.append([b, a, c])
        ra, rb, rc = self.rotations[a], self.rotations[b], self.rotations[c]
        ra.insert(ra.index(c) + 1, w)
        rb.insert(rb.index(a) + 1, w)
        rc.insert(rc.index(b) + 1, w)
        self.edges += [(a, w), (b, w), (c, w)]
        self.faces += [(a, b, w), (b, c, w), (c, a, w)]

    def insert_into(self, face: tuple[int, int, int]) -> None:
        self.insert_at(self.faces.index(face))

    def build(self) -> tuple[Graph, RotationSystem]:
        return Graph(len(self.rotations), self.edges), RotationSystem(self.rotations)


def reference_apollonian(n: int, seed: int) -> tuple[Graph, RotationSystem]:
    """`generate_apollonian` on the flat face list: the same draws, each
    picking the same face."""
    rng = random.Random(seed)
    st = ReferenceStacker()
    for _ in range(n - 3):
        st.insert_at(rng.randrange(len(st.faces)))
    return st.build()


def reference_triakis_tetrahedron() -> tuple[Graph, RotationSystem]:
    """K4 out of the triangle, then one vertex into each of K4's faces."""
    st = ReferenceStacker()
    st.insert_at(0)
    for face in list(st.faces):
        st.insert_into(face)
    return st.build()


def reference_faces(g: Graph, rot: RotationSystem) -> FaceSet:
    """The face walks of `trace_faces`, each started at its least dart and
    in order of it, with every successor read off the rotation's order by
    position instead of from its successor index."""
    def successor(v: int, u: int) -> int:
        order = rot.order(v)
        return order[(order.index(u) + 1) % len(order)]

    seen: set[tuple[int, int]] = set()
    faces = []
    for start in sorted(d for u, v in g.edges() for d in ((u, v), (v, u))):
        if start in seen:
            continue
        walk = [start]
        u, v = start
        while (v, successor(v, u)) != start:
            u, v = v, successor(v, u)
            walk.append((u, v))
        seen.update(walk)
        faces.append(tuple(walk))
    return FaceSet(tuple(faces))


def reference_corners(faces, n: int) -> list[list]:
    """Every vertex's corners, one full pass over the faces: vertex v gets
    its d(v) vertex-face incidences in face order, as `_corners_at` must
    read them through the face set's dart index."""
    from aecolor.discharge import _Corner

    corners: list[list] = [[] for _ in range(n)]
    for fi, walk in enumerate(faces):
        L = len(walk)
        for i, (x, y) in enumerate(walk):
            z = walk[(i + 1) % L][1]
            corners[y].append(_Corner(fi, x, z))
    return corners


# --- the reference edge-list parse ----------------------------------------
#
# `parse_edge_list` checks a row's tokens and range and leaves self-loops
# and repeats to `Graph`.  This is the parse it must agree with: it makes
# every row check itself, with its own set, before `reference_graph`
# checks the rows again.


def reference_parse_edge_list(text: str) -> Graph:
    from aecolor.errors import EdgeListParseError
    from aecolor.graphs import MAX_VERTICES, _canon

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
    edges: list[tuple[int, int]] = []
    canon: set[tuple[int, int]] = set()
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
    return reference_graph(n, edges)


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list texts on a small graph, rows in any order and either
    orientation, with blank lines anywhere; now and then a header m off by
    one, or a row that is a repeat in either orientation, a self-loop, out
    of range or not two integers."""
    n = draw(st.integers(min_value=0, max_value=7))
    possible = list(itertools.combinations(range(n), 2))
    rows = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    rows = [(v, u) if draw(st.booleans()) else (u, v) for u, v in rows]
    good = list(rows)
    rows = [f"{u} {v}" for u, v in rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["repeat", "reverse", "self-loop", "range", "token"]))
        if kind in ("repeat", "reverse") and good:
            u, v = draw(st.sampled_from(good))
            row = f"{u} {v}" if kind == "repeat" else f"{v} {u}"
        elif kind == "self-loop" and n:
            x = draw(st.integers(0, n - 1))
            row = f"{x} {x}"
        elif kind == "range":
            row = f"{draw(st.integers(-2, n + 2))} {n + draw(st.integers(0, 2))}"
        else:
            row = draw(st.sampled_from(["0 x", "1", "0 1 2", "1.0 2", "- 3"]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    m = len(rows) + draw(st.sampled_from([0] * 4 + [-1, 1]))
    lines = [f"{n} {max(m, 0)}"] + rows
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


# --- the reference load path for coloring documents ----------------------
#
# `cli.coloring_from_json` and `aecolor verify` share one loader that reads
# a document in one pass per row.  What follows is the plain path it must
# agree with, step by step: every field through one type check, the ids
# ranked, the graph's rows through the general edge loop with `_canon`, and
# every color through `PartialEdgeColoring.assign`.


def _json_int(x, key: str) -> int:
    from aecolor.cli import _UsageError

    if type(x) is not int:
        raise _UsageError(
            f"malformed coloring document: {key} must be an integer, "
            f"got {type(x).__name__}"
        )
    return x


def reference_rows(doc: dict) -> tuple[int, list[tuple[int, int, int | None]]]:
    """The palette size and the (u, v, color) rows, every field checked."""
    from aecolor.cli import _UsageError

    try:
        k = _json_int(doc["k"], "k")
        triples = []
        for row in doc["edges"]:
            u, v = _json_int(row["u"], "u"), _json_int(row["v"], "v")
            c = row["color"]
            triples.append((u, v, None if c is None else _json_int(c, "color")))
    except KeyError as exc:
        raise _UsageError(f"malformed coloring document: missing key {exc}") from exc
    except TypeError as exc:
        raise _UsageError(f"malformed coloring document: {exc}") from exc
    return k, triples


def reference_graph(n: int, edges) -> Graph:
    """A `Graph` built by the general edge loop, one `_canon` per row."""
    from aecolor.graphs import _canon

    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = _canon(u, v)
        if e in canon:
            raise ValueError(f"duplicate edge ({u},{v})")
        canon.add(e)
        adj[u].append(v)
        adj[v].append(u)
    g = object.__new__(Graph)
    g._n = n
    g._m = len(canon)
    g._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    return g


def reference_coloring(g: Graph, k: int, triples) -> PartialEdgeColoring:
    """Every color through `assign`; clashes collected in `violations`."""
    from aecolor.errors import ImproperColoringError

    phi = PartialEdgeColoring(g, k)
    for u, v, c in triples:
        if c is None:
            continue
        try:
            phi.assign(u, v, c)
        except ImproperColoringError:
            phi.violations.append((u, v, c))
    return phi


def reference_ranked(triples):
    """The document's ids ascending, and the rows on their ranks; rows no
    graph accepts are refused in the document's own ids."""
    seen: set[tuple[int, int]] = set()
    for u, v, _ in triples:
        if u < 0 or v < 0:
            raise ValueError(f"edge ({u},{v}) has a negative vertex id")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(e)
    ids = sorted({x for e in seen for x in e})
    rank = {x: i for i, x in enumerate(ids)}
    return ids, [(rank[u], rank[v], c) for u, v, c in triples]


def reference_load(doc: dict) -> tuple[list[int], Graph, PartialEdgeColoring]:
    """The ids, graph and coloring of doc, on the ranks of its ids."""
    k, triples = reference_rows(doc)
    ids, ranked = reference_ranked(triples)
    g = reference_graph(len(ids), [(u, v) for u, v, _ in ranked])
    return ids, g, reference_coloring(g, k, ranked)


def reference_coloring_from_json(doc: dict) -> tuple[Graph, PartialEdgeColoring]:
    _, g, phi = reference_load(doc)
    return g, phi


def reference_verify(doc: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `aecolor verify` in JSON format on doc."""
    import json

    from aecolor.cli import SCHEMA, _UsageError
    from aecolor.coloring import validate_acyclic

    try:
        ids, g, phi = reference_load(doc)
    except (_UsageError, ValueError) as exc:
        return 1, "", f"aecolor: {exc}\n"
    if phi.violations:
        code = 2
        body: dict = {
            "status": "improper",
            "violations": [
                {"u": ids[u], "v": ids[v], "color": c} for u, v, c in phi.violations
            ],
        }
    else:
        report = validate_acyclic(g, phi)
        if report.cycle is not None:
            code = 3
            body = {
                "status": "cycle",
                "cycle": {
                    "vertices": [ids[x] for x in report.cycle.vertices],
                    "colors": list(report.cycle.colors),
                },
            }
        elif not report.all_edges_colored:
            code = 4
            body = {"status": "incomplete", "colored": phi.colored_edge_count(), "edges": g.m}
        else:
            code = 0
            body = {"status": "acyclic", "max_color": report.max_color}
    return code, json.dumps({"schema": SCHEMA, **body}, indent=2) + "\n", ""


@st.composite
def coloring_documents(draw) -> dict:
    """Coloring documents on a small simple graph: sparse ids, rows in any
    order and either orientation, and colors mostly free at both ends, so
    that two-colored cycles form, but some clashing and some missing; now
    and then one row out of the palette, with a negative id, a self-loop
    or a repeated edge."""
    n = draw(st.integers(min_value=1, max_value=9))
    possible = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    pairs = [e for e, kept in zip(possible, keep) if kept]
    ids = draw(st.lists(st.integers(0, 3000), min_size=n, max_size=n, unique=True))
    k = draw(st.integers(min_value=0, max_value=6))
    used: list[set[int]] = [set() for _ in range(n)]
    rows = []
    for a, b in pairs:
        kind = draw(st.sampled_from(["free"] * 6 + ["any", "none"]))
        free = [c for c in range(1, k + 1) if c not in used[a] and c not in used[b]]
        if kind == "any" and k:
            c = draw(st.integers(1, k))
        elif kind == "free" and free:
            c = draw(st.sampled_from(free))
        else:
            c = None
        if c is not None:
            used[a].add(c)
            used[b].add(c)
        u, v = ids[a], ids[b]
        if draw(st.booleans()):
            u, v = v, u
        rows.append([u, v, c])
    rows = draw(st.permutations(rows))
    defect = draw(st.sampled_from([None] * 6 + ["palette", "negative", "self-loop", "repeat"]))
    if rows and defect is not None:
        i = draw(st.integers(0, len(rows) - 1))
        u, v, c = rows[i]
        if defect == "palette":
            rows[i] = [u, v, draw(st.sampled_from([0, k + 1, -4]))]
        elif defect == "negative":
            rows[i] = [-1 - u, v, c]
        elif defect == "self-loop":
            rows[i] = [u, u, c]
        else:
            rows.insert(draw(st.integers(0, len(rows))), [v, u, c])
    return {
        "schema": "aecolor/1",
        "k": k,
        "edges": [{"u": u, "v": v, "color": c} for u, v, c in rows],
    }
