import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecolor import coloring
from aecolor.coloring import (
    CycleWitness,
    PartialEdgeColoring,
    alternating_walk,
    closes_cycle,
    exists_critical_path,
    find_bichromatic_cycle,
    maximal_bichromatic_path,
    validate_acyclic,
)
from aecolor.colorer import acolor
from aecolor.embedding import generate_apollonian
from aecolor.errors import ImproperColoringError
from aecolor.families import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    wheel_graph,
)
from aecolor.graphs import Graph
from aecolor.oracle import enumerate_cycles

from support import (
    all_pairs_bichromatic_cycle,
    assert_skip_maps_exact,
    first_fit,
    free_colors,
    random_proper_coloring,
    small_graphs,
)


def colored(g, k, triples, strict=True):
    return PartialEdgeColoring.from_pairs(g, k, triples, strict=strict)


class TestPartialColoring:
    def test_tracks_properness_violations(self):
        g = path_graph(3)
        phi = colored(g, 3, [(0, 1, 1), (1, 2, 1)], strict=False)
        assert phi.violations == [(1, 2, 1)]

    def test_strict_rejects_improper(self):
        with pytest.raises(ImproperColoringError):
            colored(path_graph(3), 3, [(0, 1, 1), (1, 2, 1)])

    def test_repr(self):
        phi = PartialEdgeColoring(cycle_graph(4), 3)
        assert repr(phi) == "PartialEdgeColoring(k=3, colored=0/4)"
        phi.assign(2, 1, 3)
        assert repr(phi) == "PartialEdgeColoring(k=3, colored=1/4)"

    def test_assign_unassign_round_trip(self):
        g = path_graph(2)
        phi = PartialEdgeColoring(g, 2)
        phi.assign(0, 1, 2)
        assert phi.color_of(0, 1) == 2
        assert phi.unassign(0, 1) == 2
        assert phi.color_of(0, 1) is None

    def test_refused_assign_keeps_the_coloring(self):
        g = path_graph(3)
        phi = colored(g, 3, [(0, 1, 1)])
        with pytest.raises(ImproperColoringError):
            phi.assign(1, 2, 1)
        with pytest.raises(ValueError):
            phi.assign(1, 2, 4)
        with pytest.raises(ValueError):
            phi.assign(0, 1, 2)
        assert phi.items() == [((0, 1), 1)]
        assert phi._nbr == [{1: 1}, {1: 0}, {}]

    def test_rejects_out_of_palette(self):
        phi = PartialEdgeColoring(path_graph(2), 2)
        with pytest.raises(ValueError):
            phi.assign(0, 1, 3)
        with pytest.raises(TypeError):
            phi.assign(0, 1, None)

    @pytest.mark.parametrize(
        "row, error",
        [
            ((0, 2, 1), ValueError),
            ((1, 2, 4), ValueError),
            ((1, 0, 2), ValueError),
            ((1, 2, 1), ImproperColoringError),
            ((1, 2, 2), ImproperColoringError),
            ((1, 2, True), TypeError),
            ((1, 2, 2.5), TypeError),
            ((1, 2, 2.0), TypeError),
        ],
        ids=[
            "non-edge",
            "palette",
            "already-colored",
            "clash-at-u",
            "clash-at-v",
            "bool-color",
            "float-color",
            "integral-float-color",
        ],
    )
    def test_assign_and_strict_rows_refuse_alike(self, row, error):
        # the one checked write: the same defect gives the same exception
        # and message whether it comes through `assign` or a row
        g = path_graph(4)
        base = [(0, 1, 1), (2, 3, 2)]
        with pytest.raises(error) as by_assign:
            colored(g, 3, base).assign(*row)
        with pytest.raises(error) as by_row:
            colored(g, 3, base + [row])
        assert type(by_assign.value) is type(by_row.value)
        assert str(by_assign.value) == str(by_row.value)

    @pytest.mark.parametrize("k", [True, 2.5])
    def test_palette_size_must_be_an_int(self, k):
        # a bool palette would reach the document as "k": true, which the
        # verifier refuses
        with pytest.raises(TypeError, match=f"^palette size {k!r} is not an int$"):
            PartialEdgeColoring(path_graph(2), k)

    def test_off_range_edge_is_not_read_as_an_index(self):
        # the rows are the only store, and nbr[-1] is the last vertex's row:
        # on the triangle a wrapped lookup of (-1, 0) would read (2, 0)
        triples = [(0, 1, 1), (1, 2, 2), (0, 2, 3)]
        phi = colored(cycle_graph(3), 3, triples)
        for x, y in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
            assert phi.color_of(x, y) is None
        with pytest.raises(ValueError) as exc:
            phi.unassign(-1, 0)
        assert str(exc.value) == "edge (-1, 0) is not colored"
        assert phi == colored(cycle_graph(3), 3, triples)

    def test_assign_at_a_hub_is_linear(self):
        # `assign` asks `color_of` whether the edge is already colored, and
        # that must scan the shorter row: scanning the hub's would cost
        # Theta(n^2) probes over a star's spokes.  Half the spokes are given
        # hub first and half leaf first, so neither argument order may be
        # scanned whatever the degrees.  Probes are membership tests, `get`
        # lookups and iterated entries; it reads 2.0 n
        n = 2000
        probes = 0

        class CountingRow(dict):
            __slots__ = ()

            def __contains__(self, c):
                nonlocal probes
                probes += 1
                return dict.__contains__(self, c)

            def get(self, c, default=None):
                nonlocal probes
                probes += 1
                return dict.get(self, c, default)

            def items(self):
                nonlocal probes
                for item in dict.items(self):
                    probes += 1
                    yield item

        phi = PartialEdgeColoring(star_graph(n), n)
        phi._nbr = [CountingRow() for _ in range(n + 1)]
        for j in range(1, n + 1):
            if j % 2:
                phi.assign(0, j, j)
            else:
                phi.assign(j, 0, j)
        assert phi.colored_edge_count() == n
        assert probes <= 3 * n

    def test_completeness_flag(self):
        g = path_graph(3)
        phi = colored(g, 3, [(0, 1, 1)])
        assert not phi.is_complete()
        phi.assign(1, 2, 2)
        assert phi.is_complete()


class TestMaximalBichromaticPath:
    def p4(self, c_ab=1, c_bc=2, c_cd=1, k=3):
        g = path_graph(4)
        return g, colored(g, k, [(0, 1, c_ab), (1, 2, c_bc), (2, 3, c_cd)])

    def test_whole_path_from_interior(self):
        g, phi = self.p4()
        p = maximal_bichromatic_path(g, phi, 1, 1, 2)
        assert p.vertices in ((0, 1, 2, 3), (3, 2, 1, 0)) and not p.cycle
        assert p.edge_colors == (1, 2, 1)

    def test_absent_when_colors_not_present(self):
        g, phi = self.p4()
        assert maximal_bichromatic_path(g, phi, 0, 2, 3) is None

    def test_c4_reports_cycle(self):
        g = cycle_graph(4)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
        for v in g.vertices():
            p = maximal_bichromatic_path(g, phi, v, 1, 2)
            assert p.cycle and set(p.vertices) == {0, 1, 2, 3}

    def test_equal_colors_rejected(self):
        g, phi = self.p4()
        with pytest.raises(ValueError):
            maximal_bichromatic_path(g, phi, 0, 1, 1)

    @pytest.mark.parametrize("pair", [(1, 4), (0, 2), (4, 1)])
    def test_colors_outside_the_palette_rejected(self, pair):
        # either color of the pair outside 1..k is refused, by both queries
        g, phi = self.p4()
        bad = 4 if 4 in pair else 0
        message = f"^color {bad} outside palette \\[1..3\\]$"
        with pytest.raises(ValueError, match=message):
            maximal_bichromatic_path(g, phi, 0, *pair)
        with pytest.raises(ValueError, match=message):
            exists_critical_path(g, phi, *pair, 0, 3)

    @given(small_graphs(max_n=7), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_same_path_from_every_vertex(self, g, seed):
        # each vertex lies on at most one maximal (a,b)-path, so
        # traversal from any vertex of the path reproduces the vertex set
        phi = random_proper_coloring(g, 5, random.Random(seed))
        if phi is None:
            return
        seen = sorted(set(c for _, c in phi.items()))
        for i, a in enumerate(seen):
            for b in seen[i + 1:]:
                for v in g.vertices():
                    p = maximal_bichromatic_path(g, phi, v, a, b)
                    if p is None:
                        continue
                    for w in p.vertices:
                        q = maximal_bichromatic_path(g, phi, w, a, b)
                        assert set(q.vertices) == set(p.vertices)


class TestExistsCriticalPath:
    def p4(self, c_cd=1):
        g = path_graph(4)
        return g, colored(g, 3, [(0, 1, 1), (1, 2, 2), (2, 3, c_cd)])

    def test_alternating_path_found(self):
        g, phi = self.p4()
        assert exists_critical_path(g, phi, 1, 2, 0, 3) is True

    def test_broken_tail_rejected(self):
        g, phi = self.p4(c_cd=3)
        assert exists_critical_path(g, phi, 1, 2, 0, 3) is False

    def test_missing_start_edge_rejected(self):
        g, phi = self.p4()
        assert exists_critical_path(g, phi, 2, 1, 0, 3) is False

    def test_symmetric_in_endpoints(self):
        g, phi = self.p4()
        assert exists_critical_path(g, phi, 1, 2, 3, 0) is True

    def test_interior_start_is_not_an_endpoint(self):
        # path 4-0-1-2-3-5 colored 2,1,2,1,2 is (2,1)-critical from 4 to 5;
        # vertex 0 has a 2-edge too, but sits inside the path, so no
        # critical path starts there
        g = Graph(6, [(4, 0), (0, 1), (1, 2), (2, 3), (3, 5)])
        phi = colored(g, 3, [(4, 0, 2), (0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 5, 2)])
        assert exists_critical_path(g, phi, 2, 1, 4, 5) is True
        assert exists_critical_path(g, phi, 2, 1, 5, 4) is True
        assert exists_critical_path(g, phi, 2, 1, 0, 5) is False
        assert exists_critical_path(g, phi, 2, 1, 5, 0) is False

    def test_equal_endpoints_rejected(self):
        g, phi = self.p4()
        with pytest.raises(ValueError):
            exists_critical_path(g, phi, 1, 2, 0, 0)

    @pytest.mark.parametrize("u, v", [(-4, 3), (0, -1), (4, 0), (0, 4)])
    def test_endpoint_out_of_range_rejected(self, u, v):
        # a negative id must not wrap round to a vertex at the end
        g, phi = self.p4()
        with pytest.raises(ValueError, match="out of range"):
            exists_critical_path(g, phi, 1, 2, u, v)

    @given(small_graphs(max_n=7), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, g, seed):
        rng = random.Random(seed)
        phi = random_proper_coloring(g, 5, rng)
        if phi is None or g.n < 2:
            return
        for _ in range(10):
            u, v = rng.sample(range(g.n), 2)
            a, b = rng.sample(range(1, 6), 2)
            assert exists_critical_path(g, phi, a, b, u, v) == exists_critical_path(
                g, phi, a, b, v, u
            )


def on_two_colored_cycle(phi, cycles, e):
    """Whether some fully colored cycle through e uses exactly two colors."""
    for cyc in cycles:
        colors = {phi.color_of(*f) for f in cyc}
        if e in cyc and None not in colors and len(colors) == 2:
            return True
    return False


class TestClosesCycle:
    @given(small_graphs(max_n=7, max_m=12), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_cycle_enumeration(self, g, seed):
        # for a colored edge, and for an uncolored edge before and after it
        # takes each free color, the answer is whether some two-colored
        # cycle runs through the edge
        rng = random.Random(seed)
        phi = random_proper_coloring(g, 5, rng)
        if phi is None or g.m == 0:
            return
        cycles = enumerate_cycles(g)

        for (x, y), c in phi.items():
            assert closes_cycle(phi._nbr, x, y, c) == on_two_colored_cycle(
                phi, cycles, (x, y)
            )
        x, y = rng.choice(g.edges())
        phi.unassign(x, y)
        for c in free_colors(phi, x, y):
            before = closes_cycle(phi._nbr, x, y, c)
            phi.assign(x, y, c)
            assert before == on_two_colored_cycle(phi, cycles, (x, y))
            assert before == closes_cycle(phi._nbr, y, x, c)
            phi.unassign(x, y)

    @given(
        st.sampled_from(["star", "wheel", "wheel-leaves"]),
        st.integers(3, 7),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_hub_shapes_agree_both_ways(self, family, size, seed):
        # partial colorings around a hub, where one endpoint of an edge has
        # many more colors than the other, so the endpoint swap happens in
        # both argument orders; both orders must match the enumeration
        rng = random.Random(seed)
        if family == "star":
            g = star_graph(size)
        elif family == "wheel":
            g = wheel_graph(size)
        else:  # a pendant leaf on each of two rim vertices
            w = wheel_graph(size)
            g = Graph(w.n + 2, w.edges() + [(1, w.n), (2, w.n + 1)])
        k = rng.randint(g.max_degree(), 2 * g.max_degree() - 1)
        phi = random_proper_coloring(g, k, rng)
        if phi is None:
            return
        for e in rng.sample(g.edges(), rng.randint(0, g.m // 2)):
            phi.unassign(*e)
        cycles = enumerate_cycles(g)

        nbr = phi._nbr
        for (x, y), c in phi.items():
            want = on_two_colored_cycle(phi, cycles, (x, y))
            assert closes_cycle(nbr, x, y, c) == want == closes_cycle(nbr, y, x, c)
        for x, y in g.edges():
            if phi.color_of(x, y) is not None:
                continue
            for c in free_colors(phi, x, y):
                before = closes_cycle(nbr, x, y, c)
                assert before == closes_cycle(nbr, y, x, c)
                phi.assign(x, y, c)
                assert before == on_two_colored_cycle(phi, cycles, (x, y))
                phi.unassign(x, y)


class TestExtensionAids:
    """The skip maps and the jump table under random edits.

    With the recording threshold at 0 every walk that `_path_end` makes
    records a jump, so later walks take many; at 16, the shipped value,
    only long walks and walks that jumped do.
    """

    @staticmethod
    def check(phi, rng):
        nbr, k = phi._nbr, phi.k
        comparisons = 0
        # the walk through the table ends where the plain walk does, from
        # either end of an uncolored edge and for every color it could
        # take (this also fills the table)
        open_edges = [e for e in phi.graph.edges() if phi.color_of(*e) is None]
        for x, y in rng.sample(open_edges, min(4, len(open_edges))):
            for c in range(1, k + 1):
                if c in nbr[x] or c in nbr[y]:
                    continue
                for s in (x, y):
                    for d in nbr[s]:
                        raw = alternating_walk(nbr, s, d, c)[0][-1]
                        assert coloring._path_end(nbr, phi._ends, s, d, c) == raw
                        comparisons += 1
        # every jump is a stretch of the plain walk: the walk from x by its
        # b-edge passes f and leaves f by e, or stops there lacking e
        for (x, a, b), (f, e) in phi._ends.items():
            assert a != b and e in (a, b) and f != x
            seq, _ = alternating_walk(nbr, x, b, a)
            assert f in seq
            assert e == (b if seq.index(f) % 2 == 0 else a)
            comparisons += 1
        assert len(phi._ends) <= 2 * phi.graph.n
        assert_skip_maps_exact(phi)
        return comparisons

    @given(
        st.sampled_from(["wheel", "cycle", "grid", "apollonian"]),
        st.integers(0, 3),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_edits_keep_both_exact(self, family, slack, seed):
        # the same edits at threshold 0 and at the shipped threshold
        for min_walk in (0, coloring._CACHE_MIN_WALK):
            self.run_edits(family, slack, seed, min_walk)

    def run_edits(self, family, slack, seed, min_walk):
        rng = random.Random(seed)
        g = {
            "wheel": lambda: wheel_graph(rng.randint(3, 40)),
            "cycle": lambda: cycle_graph(rng.randint(3, 40)),
            "grid": lambda: grid_graph(rng.randint(2, 7), rng.randint(2, 7)),
            "apollonian": lambda: generate_apollonian(rng.randint(4, 40), seed)[0],
        }[family]()
        phi = PartialEdgeColoring(g, g.max_degree() + slack)
        # a plain edge -> color dict beside the rows, which are the only store
        mirror: dict = {}
        comparisons = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coloring, "_CACHE_MIN_WALK", min_walk)
            for _ in range(2 * g.m):
                colored_edges = [e for e, _ in phi.items()]
                open_edges = [e for e in g.edges() if phi.color_of(*e) is None]
                op = rng.random()
                if open_edges and op < 0.7:
                    x, y = rng.choice(open_edges)
                    free = free_colors(phi, x, y)
                    # mostly T1's color, so paths grow as in `acolor`
                    c = first_fit(phi, x, y)
                    if op >= 0.55 or c is None:
                        c = rng.choice(free or [None])
                    if c is not None:
                        phi.assign(x, y, c)
                        mirror[x, y] = c
                elif colored_edges and op < 0.85:
                    e = rng.choice(colored_edges)
                    assert phi.unassign(*e) == mirror.pop(e)
                elif colored_edges:
                    x, y = rng.choice(colored_edges)
                    free = free_colors(phi, x, y)
                    if free:
                        phi.unassign(x, y)
                        mirror[x, y] = rng.choice(free)
                        phi.assign(x, y, mirror[x, y])
                self.check_mirror(phi, mirror)
                comparisons += self.check(phi, rng)
        assert comparisons > 0

    @staticmethod
    def check_mirror(phi, mirror):
        g = phi.graph
        assert phi.items() == sorted(mirror.items())
        for x, y in g.edges():
            assert phi.color_of(x, y) == phi.color_of(y, x) == mirror.get((x, y))
        assert phi.colored_edge_count() == len(mirror)
        assert phi.is_complete() == (len(mirror) == g.m)
        assert phi.max_color_used() == max(mirror.values(), default=0)
        rows = [(x, y, c) for (x, y), c in mirror.items()]
        assert phi == PartialEdgeColoring.from_pairs(g, phi.k, rows)
        if rows:
            assert phi != PartialEdgeColoring.from_pairs(g, phi.k, rows[1:])


class TestFindBichromaticCycle:
    def test_alternating_c4_found(self):
        g = cycle_graph(4)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
        w = find_bichromatic_cycle(g, phi)
        assert w is not None and w.colors == (1, 2)
        assert w.vertices == (0, 1, 2, 3)

    def test_pendant_trees_leave_the_witness_alone(self):
        # alternating C4 3-5-6-8 with {1, 2}-colored trees hung on 3 and 6;
        # the trees hold smaller ids and are peeled before the scan
        g = Graph(11, [(3, 5), (5, 6), (6, 8), (3, 8), (0, 1), (1, 2), (2, 3),
                       (4, 6), (4, 7), (4, 9), (7, 10)])
        phi = colored(
            g, 3,
            [(3, 5, 1), (5, 6, 2), (6, 8, 1), (3, 8, 2), (0, 1, 1), (1, 2, 2),
             (2, 3, 3), (4, 6, 3), (4, 7, 1), (4, 9, 2), (7, 10, 2)],
        )
        assert find_bichromatic_cycle(g, phi) == CycleWitness((3, 5, 6, 8), (1, 2))

    def test_three_colors_no_cycle(self):
        g = cycle_graph(4)
        phi = colored(g, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 3)])
        assert find_bichromatic_cycle(g, phi) is None

    def test_k4_matching_coloring_fails(self):
        # the 1-factorization: each pair of perfect matchings is a 4-cycle
        g = complete_graph(4)
        phi = colored(
            g, 3,
            [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3), (1, 2, 3)],
        )
        w = find_bichromatic_cycle(g, phi)
        assert w is not None and len(w.vertices) == 4

    def test_improper_input_rejected(self):
        g = path_graph(3)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 1)], strict=False)
        with pytest.raises(ImproperColoringError):
            find_bichromatic_cycle(g, phi)

    def test_deterministic_witness(self):
        g = complete_graph(4)
        phi = colored(
            g, 3,
            [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3), (1, 2, 3)],
        )
        assert find_bichromatic_cycle(g, phi) == find_bichromatic_cycle(g, phi)

    def test_partial_coloring_allowed(self):
        g = cycle_graph(5)
        phi = colored(g, 3, [(0, 1, 1), (1, 2, 2)])
        assert find_bichromatic_cycle(g, phi) is None

    @given(
        st.sampled_from(["apollonian", "grid", "wheel", "complete"]),
        st.integers(0, 10**6),
        st.integers(0, 12),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_witness_as_all_pairs_scan(self, family, seed, trees, partial):
        # the reference walks every color pair in the 2-core; the witness
        # rule makes the two scans agree, not just on whether a cycle exists
        rng = random.Random(seed)
        if family == "apollonian":
            g = generate_apollonian(rng.randint(4, 60), rng.randrange(100))[0]
        elif family == "grid":
            g = grid_graph(rng.randint(2, 7), rng.randint(2, 7))
        elif family == "wheel":
            g = wheel_graph(rng.randint(3, 30))
        else:
            g = complete_graph(rng.randint(4, 8))
        # pendant trees hung on random vertices, on new, higher ids
        edges = g.edges()
        for x in range(g.n, g.n + trees):
            edges.append((rng.randrange(x), x))
        g = Graph(g.n + trees, edges)
        phi = random_proper_coloring(g, g.max_degree() + rng.randint(0, 2), rng)
        if phi is None:
            return
        if partial:
            for (u, v), _ in phi.items():
                if rng.random() < 0.15:
                    phi.unassign(u, v)
        assert find_bichromatic_cycle(g, phi) == all_pairs_bichromatic_cycle(phi)

    @pytest.mark.parametrize(
        "g, least, share",
        [
            (wheel_graph(800), 0, 0.0),
            (generate_apollonian(1000, 0)[0], 1, 0.35),
            (grid_graph(60, 60), 1, 0.1),
        ],
        ids=["wheel800", "apollonian1000", "grid60x60"],
    )
    def test_walks_stay_linear_in_n(self, g, least, share, monkeypatch):
        # a planar graph has at most 10 forward color pairs per vertex; the
        # all-pairs scan made about 330k pair checks on this wheel.  Pairs
        # whose walk would stop within 3 vertices from either of v's two
        # edges are skipped, which leaves no walk here (801 without the
        # skip, 2 with it on the first edge alone) and 301 on the
        # Apollonian graph (2876 without, 621 with it on the first edge
        # alone, 444 without the `a not in nbr[x]` half of its look-ahead).
        # The grid takes 158 walks, and 3319 without the `covered` sets.  So
        # at least `least` and at most share * n walks are allowed: a floor
        # of 1 shows the counting hook is live
        phi, _ = acolor(g)
        walks = 0
        walk = coloring.alternating_walk

        def counting(*args):
            nonlocal walks
            walks += 1
            return walk(*args)

        monkeypatch.setattr(coloring, "alternating_walk", counting)
        assert validate_acyclic(g, phi).ok
        assert least <= walks <= share * g.n


class TestValidateAcyclic:
    def test_tree_coloring_passes(self):
        g = star_graph(4)
        phi = colored(g, 4, [(0, i, i) for i in range(1, 5)])
        rep = validate_acyclic(g, phi)
        assert rep.ok and rep.max_color == 4

    def test_alternating_cycle_fails_with_witness(self):
        g = cycle_graph(4)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
        rep = validate_acyclic(g, phi)
        assert not rep.ok and rep.cycle is not None

    def test_three_color_c4_passes(self):
        g = cycle_graph(4)
        phi = colored(g, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 3)])
        rep = validate_acyclic(g, phi)
        assert rep.ok and rep.max_color == 3

    def test_incomplete_reported(self):
        g = path_graph(3)
        phi = colored(g, 2, [(0, 1, 1)])
        rep = validate_acyclic(g, phi)
        assert not rep.all_edges_colored and not rep.ok

    def test_improper_reported(self):
        g = path_graph(3)
        phi = colored(g, 2, [(0, 1, 1), (1, 2, 1)], strict=False)
        rep = validate_acyclic(g, phi)
        assert not rep.is_proper and not rep.ok

    def test_ok_iff_parts(self):
        g = cycle_graph(4)
        phi = colored(g, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 3)])
        rep = validate_acyclic(g, phi)
        assert rep.ok == (
            rep.all_edges_colored and rep.is_proper and rep.cycle is None
        )

    def test_refuses_a_graph_that_is_not_the_colorings(self):
        # the queries read the coloring's rows alone: asked about a path,
        # a 2-colored C4 would report the cycle (0, 1, 2, 3), which needs
        # the edge (0, 3) the path lacks
        phi = colored(cycle_graph(4), 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
        other = path_graph(4)
        for query in (
            lambda g: validate_acyclic(g, phi),
            lambda g: find_bichromatic_cycle(g, phi),
            lambda g: maximal_bichromatic_path(g, phi, 0, 1, 2),
            lambda g: exists_critical_path(g, phi, 1, 2, 0, 3),
        ):
            with pytest.raises(ValueError, match="bound to a different graph"):
                query(other)
            query(cycle_graph(4))  # an equal graph is the coloring's graph

    @given(
        st.sampled_from(["apollonian", "grid", "wheel", "complete", "forest", "matching"]),
        st.sampled_from(["complete", "partial", "improper"]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_scan_gives_the_cycle_and_the_largest_color(self, family, fill, seed):
        # the cycle scan takes the largest color from each vertex's forward
        # colors: it must equal a pass over every colored edge, also where
        # a vertex leaves with at most one forward edge (forests and
        # matchings), and its witness must be the all-pairs scan's.  An
        # improper coloring is not scanned
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        if family == "apollonian":
            g = generate_apollonian(rng.randint(4, 60), rng.randrange(100))[0]
        elif family == "grid":
            g = grid_graph(rng.randint(2, 7), rng.randint(2, 7))
        elif family == "wheel":
            g = wheel_graph(rng.randint(3, 30))
        elif family == "complete":
            g = complete_graph(rng.randint(3, 8))
        elif family == "forest":
            g = Graph(n, [(rng.randrange(x), x) for x in range(1, n) if rng.random() < 0.8])
        else:
            ids = rng.sample(range(n), n)
            g = Graph(n, [(ids[i], ids[i + 1]) for i in range(0, n - 1, 2)])
        k = g.max_degree() + rng.randint(0, 3)
        used = [set() for _ in range(g.n)]
        rows = []
        for u, v in rng.sample(g.edges(), g.m):
            free = [c for c in range(1, k + 1) if c not in used[u] and c not in used[v]]
            if fill == "improper" and rng.random() < 0.2:
                c = rng.randint(1, k)
            elif not free or (fill == "partial" and rng.random() < 0.3):
                continue
            else:
                c = rng.choice(free)
            used[u].add(c)
            used[v].add(c)
            rows.append((u, v, c))
        phi = PartialEdgeColoring.from_pairs(g, k, rows, strict=False)
        rep = validate_acyclic(g, phi)
        assert rep.max_color == max((c for _, c in phi.items()), default=0)
        assert rep.all_edges_colored == (phi.colored_edge_count() == g.m)
        assert rep.is_proper == (not phi.violations)
        if phi.violations:
            assert rep.cycle is None
            with pytest.raises(ImproperColoringError):
                find_bichromatic_cycle(g, phi)
        else:
            assert rep.cycle == find_bichromatic_cycle(g, phi) == all_pairs_bichromatic_cycle(phi)
