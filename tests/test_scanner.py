import pytest

from aecolor.errors import NotPlanarEvidence
from aecolor.families import (
    complete_graph,
    cycle_graph,
    icosahedron,
    octahedron,
    path_graph,
    star_graph,
    wheel_graph,
)
from aecolor.graphs import Graph
from aecolor.scanner import (
    Configuration,
    classify_vertex,
    find_configuration,
)


class TestClassifyVertex:
    def test_cycle_vertex_is_a1(self):
        g = cycle_graph(5)
        for v in g.vertices():
            assert classify_vertex(g, v).kind == "A1"

    def test_k4_vertex_is_a2(self):
        g = complete_graph(4)
        cfg = classify_vertex(g, 0)
        assert cfg.kind == "A2"
        assert cfg.neighbors == ((1, 3), (2, 3), (3, 3))

    def test_octahedron_vertex_is_a3(self):
        g, _ = octahedron()
        cfg = classify_vertex(g, 0)
        assert cfg.kind == "A3" and cfg.vertex == 0

    def test_icosahedron_vertex_is_a4(self):
        g, _ = icosahedron()
        for v in g.vertices():
            assert classify_vertex(g, v).kind == "A4"

    def test_kind_order_is_monotone(self):
        # degree 2 always reports A1, never a higher kind
        g = path_graph(3)
        assert classify_vertex(g, 1).kind == "A1"

    def test_hub_of_big_wheel_matches_nothing(self):
        g = wheel_graph(11)
        assert classify_vertex(g, 0) is None

    def test_degree3_with_heavy_neighbors_matches_nothing(self):
        # 3-vertex whose every neighbor has degree 12
        hub_edges = []
        n = 3 + 3 * 12 - 2 * 3  # 0 + three 12-vertices + pendants
        g = 0
        center = 0
        heavies = [1, 2, 3]
        edges = [(center, h) for h in heavies]
        nxt = 4
        for h in heavies:
            for _ in range(11):
                edges.append((h, nxt))
                nxt += 1
        g = Graph(nxt, edges)
        assert g.degree(1) == 12
        assert classify_vertex(g, center) is None

    def test_neighbors_sorted_by_degree_then_id(self):
        # vertex 0 adjacent to a leaf (degree 1), a 2-vertex, and a 3-vertex
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 4), (3, 5)])
        cfg = classify_vertex(g, 0)
        assert cfg.kind == "A2"
        assert cfg.neighbors == ((1, 1), (2, 2), (3, 3))


class TestFindConfiguration:
    def test_smallest_vertex_wins(self):
        g = cycle_graph(6)
        assert find_configuration(g).vertex == 0

    def test_k5_is_reported_not_refuted(self):
        # one-sided check: K5 still has an A3 vertex pattern
        cfg = find_configuration(complete_graph(5))
        assert cfg.kind == "A3"

    def test_k6_matches_a4(self):
        cfg = find_configuration(complete_graph(6))
        assert cfg.kind == "A4"

    def test_k7_refuted(self):
        with pytest.raises(NotPlanarEvidence):
            find_configuration(complete_graph(7))

    def test_null_graph_is_not_refuted(self):
        # no vertex can qualify, yet the null graph is planar
        with pytest.raises(ValueError, match="no vertices"):
            find_configuration(Graph(0, []))

    def test_star_leaf_beats_center(self):
        # center has degree 8, so the smallest qualifying vertex is leaf 1
        cfg = find_configuration(star_graph(8))
        assert cfg.kind == "A1" and cfg.vertex == 1

    def test_corpus_always_succeeds(self, corpus):
        for name, g in corpus:
            cfg = find_configuration(g)
            assert isinstance(cfg, Configuration), name

    def test_json_shape(self):
        cfg = find_configuration(complete_graph(4))
        d = cfg.to_json_dict()
        assert d["kind"] == "A2" and d["v"] == 0
        assert d["neighbors"][0] == {"v": 1, "d": 3}

