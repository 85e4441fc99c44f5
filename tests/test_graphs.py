import tracemalloc

import pytest
from hypothesis import given, settings

from aecolor import graphs
from aecolor.embedding import generate_apollonian
from aecolor.errors import EdgeListParseError
from aecolor.families import complete_graph, cycle_graph, path_graph, star_graph
from aecolor.graphs import Graph, format_edge_list, parse_edge_list

from support import edge_list_texts, reference_parse_edge_list, small_graphs


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        for u in g.vertices():
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_equality_ignores_edge_order(self):
        assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(1, 2), (1, 0)])

    @given(small_graphs())
    def test_handshake(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m

    @given(small_graphs())
    def test_neighbor_symmetry(self, g):
        for u, v in g.edges():
            assert v in g.neighbors(u) and u in g.neighbors(v)


class TestHasEdge:
    @pytest.mark.parametrize(
        "u, v", [(-1, 0), (0, -1), (-1, 2), (-2, -1), (-1, -1), (4, 0), (0, 4), (4, 3), (9, 9)]
    )
    def test_ids_out_of_range(self, u, v):
        # on the 4-cycle a negative id must not wrap round to row 3 or 2,
        # each of which has an edge to the other id
        assert not cycle_graph(4).has_edge(u, v)

    def test_no_edge_from_a_vertex_to_itself(self):
        g = complete_graph(4)
        assert not any(g.has_edge(v, v) for v in g.vertices())

    @given(small_graphs())
    def test_matches_the_edge_list(self, g):
        edges = set(g.edges())
        for u in g.vertices():
            for v in g.vertices():
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)


class TestMemory:
    def test_graph_keeps_under_60_bytes_per_edge(self):
        # one store, the sorted neighbor rows: about 28 B per edge on
        # Python 3.11, against 119 with a frozenset of edge pairs beside it
        g, _ = generate_apollonian(10_000, seed=11)
        rows = g.edges()
        tracemalloc.start()
        try:
            h = Graph(g.n, rows)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h == g
        assert kept / g.m < 60

    def test_parse_peaks_under_340_bytes_per_edge(self):
        # about 235 B per edge on Python 3.11, against 451 when the parse
        # checked the rows with a set of its own before `Graph` checked
        # them again and the rows kept an int object per token
        g, _ = generate_apollonian(30_000, seed=11)
        text = format_edge_list(g)
        tracemalloc.start()
        try:
            h = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h == g
        assert peak / g.m < 340


class TestDegree:
    def test_cycle_is_two_regular(self):
        g = cycle_graph(3)
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_k4_is_three_regular(self):
        g = complete_graph(4)
        assert all(g.degree(v) == 3 for v in g.vertices())

    def test_star_center(self):
        assert star_graph(6).degree(0) == 6

    def test_invalid_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            cycle_graph(3).degree(3)
        with pytest.raises(ValueError, match="out of range"):
            cycle_graph(3).degree(-1)


class TestRemoveEdge:
    def test_k4_minus_edge_degrees(self):
        g = complete_graph(4).remove_edge(0, 1)
        assert g.m == 5
        assert sorted(g.degree(v) for v in g.vertices()) == [2, 2, 3, 3]

    def test_c3_becomes_path(self):
        g = cycle_graph(3).remove_edge(0, 1)
        assert g.m == 2 and sorted(g.degree(v) for v in g.vertices()) == [1, 1, 2]

    def test_single_edge_to_isolated(self):
        g = Graph(2, [(0, 1)]).remove_edge(0, 1)
        assert g.m == 0 and g.n == 2

    def test_absent_edge_rejected(self):
        with pytest.raises(ValueError, match="not in graph"):
            path_graph(3).remove_edge(0, 2)

    @given(small_graphs())
    def test_remove_then_add_round_trips(self, g):
        for u, v in g.edges():
            h = g.remove_edge(u, v)
            assert Graph(h.n, h.edges() + [(u, v)]) == g

    @given(small_graphs())
    def test_remove_leaves_other_adjacency_untouched(self, g):
        for u, v in g.edges():
            h = g.remove_edge(u, v)
            for x in g.vertices():
                expect = set(g.neighbors(x)) - ({v} if x == u else {u} if x == v else set())
                assert set(h.neighbors(x)) == expect


class TestComponents:
    def test_disjoint_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert g.connected_components() == [[0, 1, 2], [3, 4, 5]]
        assert not g.is_connected()

    def test_isolated_vertices_count(self):
        assert len(Graph(3, []).connected_components()) == 3

    def test_empty_graph_connected(self):
        assert Graph(0, []).is_connected()


class TestEdgeListFormat:
    def test_round_trip(self):
        g = complete_graph(4)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parses_blank_lines(self):
        assert parse_edge_list("\n2 1\n\n0 1\n\n") == Graph(2, [(0, 1)])

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n  \n", "line 3: missing header line `n m`"),
            ("3\n", "line 1: expected header `n m`, got '3'"),
            ("\n3 2 1\n0 1\n", "line 2: expected header `n m`, got '3 2 1'"),
            ("3 x\n", "line 1: non-integer header fields '3 x'"),
            ("3 1.0\n0 1\n", "line 1: non-integer header fields '3 1.0'"),
            ("-1 0\n", "line 1: n and m must be nonnegative"),
            ("\n3 -1\n", "line 2: n and m must be nonnegative"),
        ],
        ids=["blank", "one-field", "three-fields", "word", "float", "negative-n", "negative-m"],
    )
    def test_header_refusals(self, text, message):
        with pytest.raises(EdgeListParseError) as ei:
            parse_edge_list(text)
        assert str(ei.value) == message

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(EdgeListParseError) as ei:
            parse_edge_list("3 2\n0 1\n1 0\n")
        assert ei.value.line == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError) as ei:
            parse_edge_list("3 1\n2 2\n")
        assert ei.value.line == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListParseError, match="m=2"):
            parse_edge_list("3 2\n0 1\n")

    def test_out_of_range_id(self):
        with pytest.raises(EdgeListParseError, match="out of range"):
            parse_edge_list("2 1\n0 5\n")

    def test_header_n_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
        assert parse_edge_list("5 1\n0 4\n").n == 5
        with pytest.raises(EdgeListParseError, match="limit of 5 vertices") as ei:
            parse_edge_list("\n6 0\n")
        assert ei.value.line == 2

    @given(small_graphs())
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


def parse_outcome(parse, text):
    """The graph parsed from text with its edge count, or the refusal's
    type, line and message."""
    try:
        g = parse(text)
        return g, g.m
    except EdgeListParseError as exc:
        return type(exc), exc.line, str(exc)


class TestParseEquivalence:
    """`parse_edge_list` leaves self-loops and repeats to `Graph`; it must
    agree with the reference in tests/support.py, which checks every row
    itself before the graph checks them again."""

    @given(edge_list_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(
            reference_parse_edge_list, text
        )

    @pytest.mark.parametrize(
        "text",
        [
            "3 2\n0 1\n\n1 0\n0 x\n",
            "3 3\n0 1\n0 1\n0 5\n",
            "3 2\n\n2 2\n0 1\n",
            "3 2\n0 1\n1 2\n0 2\n\n\n",
            "\n\n3 1\n",
        ],
        ids=["repeat-before-bad-token", "repeat-before-range", "self-loop-after-blank",
             "m-too-low-trailing-blanks", "no-rows"],
    )
    def test_first_defect_and_its_line(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(
            reference_parse_edge_list, text
        )
