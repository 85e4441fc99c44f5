from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings

from aecolor.colorer import acolor
from aecolor.coloring import PartialEdgeColoring, validate_acyclic
from aecolor.families import (
    complete_graph,
    cube,
    cycle_graph,
    grid_graph,
    icosahedron,
    octahedron,
    path_graph,
    star_graph,
)
from aecolor.graphs import Graph
from aecolor.oracle import (
    EXHAUSTED,
    SearchBudget,
    _lower_bound,
    _search,
    bichromatic_cycle_exists_brute,
    enumerate_cycles,
    exact_chi_a,
    is_acyclically_k_colorable,
    search_acyclic_coloring,
)
from support import all_trees, small_graphs, subset_enumerate_cycles


def as_coloring(g, k, witness):
    return PartialEdgeColoring.from_pairs(
        g, k, [(u, v, c) for (u, v), c in witness.items()]
    )


class TestDecision:
    def test_c4_two_colors_impossible(self):
        assert is_acyclically_k_colorable(cycle_graph(4), 2) is False

    def test_c4_three_colors_possible(self):
        assert is_acyclically_k_colorable(cycle_graph(4), 3) is True

    def test_k4_four_colors_impossible(self):
        # any proper 4-coloring of K4's 6 edges contains two perfect
        # matchings, whose union is an alternating 4-cycle
        assert is_acyclically_k_colorable(complete_graph(4), 4) is False

    def test_k4_five_colors_possible(self):
        assert is_acyclically_k_colorable(complete_graph(4), 5) is True

    def test_monotone_in_k(self):
        g = cycle_graph(5)
        results = [is_acyclically_k_colorable(g, k) for k in range(1, 7)]
        first_true = results.index(True)
        assert all(results[first_true:])

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            is_acyclically_k_colorable(cycle_graph(3), 0)

    def test_negative_palette_size_refused(self):
        with pytest.raises(ValueError, match="^palette size must be nonnegative, got -1$"):
            search_acyclic_coloring(path_graph(3), -1)

    @pytest.mark.parametrize("k", [True, 2.5])
    def test_palette_size_must_be_an_int(self, k):
        with pytest.raises(TypeError, match=f"^palette size {k!r} is not an int$"):
            search_acyclic_coloring(path_graph(3), k)

    def test_witness_is_valid(self):
        g = complete_graph(4)
        w = search_acyclic_coloring(g, 5)
        assert w is not None
        rep = validate_acyclic(g, as_coloring(g, 5, w))
        assert rep.ok and rep.max_color <= 5

    def test_witness_symmetry_breaking(self):
        # the first edge in search order, the middle one by its degree sum,
        # always gets color 1
        w = search_acyclic_coloring(path_graph(4), 3)
        assert w[(1, 2)] == 1

    def test_edgeless_graph(self):
        assert search_acyclic_coloring(Graph(3, []), 1) == {}
        assert is_acyclically_k_colorable(Graph(3, []), 1) is True


class TestExactChiA:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles_need_three(self, n):
        assert exact_chi_a(cycle_graph(n)) == 3

    def test_k4_is_five(self):
        assert exact_chi_a(complete_graph(4)) == 5

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_stars_need_exactly_n(self, n):
        assert exact_chi_a(star_graph(n)) == n

    def test_paths_need_two(self):
        assert exact_chi_a(path_graph(5)) == 2

    def test_trees_need_delta(self):
        # spider: three legs of length 2 from a center
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert exact_chi_a(g) == 3

    def test_edgeless_is_zero(self):
        assert exact_chi_a(Graph(4, [])) == 0

    def test_octahedron_is_six(self):
        g, _ = octahedron()
        assert exact_chi_a(g) == 6

    def test_lower_bound_delta(self):
        for g in (complete_graph(4), star_graph(6), cycle_graph(7)):
            assert exact_chi_a(g) >= g.max_degree()


class TestLowerBound:
    @pytest.mark.parametrize(
        "g", [complete_graph(2), Graph(4, [(0, 1), (2, 3)])], ids=["K2", "2K2"]
    )
    def test_matching_needs_one(self, g):
        assert _lower_bound(g.edges()) == 1
        assert is_acyclically_k_colorable(g, 1) is True

    def test_largest_component_bound_wins(self):
        # K2 plus a triangle: Δ = 2, the triangle's 2·3/2 = 3
        assert _lower_bound(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]).edges()) == 3

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles_give_three(self, n):
        assert _lower_bound(cycle_graph(n).edges()) == 3

    def test_trees_give_delta_or_two(self):
        # from 2 edges on; K2 is a matching
        for t in all_trees(8):
            if t.m > 1:
                assert _lower_bound(t.edges()) == max(t.max_degree(), 2)

    def test_k4_gives_four(self):
        assert _lower_bound(complete_graph(4).edges()) == 4

    def test_icosahedron_gives_six(self):
        # Δ = 5, but ⌈2·30/11⌉ = 6
        g, _ = icosahedron()
        assert _lower_bound(g.edges()) == 6

    def test_isolated_vertices_are_ignored(self):
        assert _lower_bound(Graph(6, [(0, 1), (1, 2), (0, 2)]).edges()) == 3

    def test_reads_only_the_edges(self):
        # no vertex count: a triangle and a path on large ids cost their edges
        big = 10**9
        assert _lower_bound([(big, big + 1), (big + 1, big + 2), (big, big + 2)]) == 3
        assert _lower_bound([(big, big + 1), (big + 1, big + 2)]) == 2
        assert _lower_bound([]) == 0

    def test_below_the_bound_costs_no_node(self):
        g, _ = icosahedron()
        assert is_acyclically_k_colorable(g, 5, SearchBudget(max_nodes=1)) is False

    def test_bound_that_does_not_settle_still_searches(self):
        # K4's bound is 4 and its index 5: proving k = 4 infeasible takes nodes
        out = is_acyclically_k_colorable(complete_graph(4), 4, SearchBudget(max_nodes=1))
        assert out is EXHAUSTED


class TestBudget:
    def test_exhaustion_is_not_false(self):
        g = complete_graph(6)
        out = is_acyclically_k_colorable(g, 6, SearchBudget(max_nodes=50))
        assert out is EXHAUSTED
        with pytest.raises(TypeError):
            bool(out)

    def test_exhaustion_propagates_from_chi_a(self):
        out = exact_chi_a(complete_graph(6), SearchBudget(max_nodes=50))
        assert out is EXHAUSTED

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(-1)

    def test_budget_is_an_immutable_value(self):
        budget = SearchBudget(max_nodes=50)
        assert budget == SearchBudget(50) and hash(budget) == hash(SearchBudget(50))
        assert budget != SearchBudget(51)
        assert repr(budget) == "SearchBudget(max_nodes=50)"
        assert SearchBudget().max_nodes == 200_000_000
        with pytest.raises(AttributeError):
            budget.max_nodes = 1

    def test_symmetry_cap_keeps_an_infeasible_search_small(self):
        # the octahedron is infeasible at k = 5 (χ'a = 6); the search proves
        # it in 1035 nodes, and without the cap (cap = k) it needs 64k-128k
        g, _ = octahedron()
        assert is_acyclically_k_colorable(g, 5, SearchBudget(max_nodes=2000)) is False

    def test_generous_budget_still_exact(self):
        assert exact_chi_a(complete_graph(4), SearchBudget(max_nodes=10**7)) == 5


def table(n, colored):
    """A color -> neighbor table on n vertices holding the colored edges."""
    nbr = [{} for _ in range(n)]
    for (a, b), c in colored.items():
        nbr[a][c] = b
        nbr[b][c] = a
    return nbr


class TestFixedEdges:
    """The search core on a table that already holds colored edges: they
    keep their colors, every cycle test sees them, and they are not in the
    result."""

    def test_fixed_edges_keep_their_colors(self):
        # C4 with two edges in the table; the search completes the other two
        fixed = {(0, 1): 1, (1, 2): 2}
        nbr = table(4, fixed)
        found = _search(nbr, [(0, 3), (2, 3)], 3, False, 100)
        assert set(found) == {(2, 3), (0, 3)}
        assert nbr == table(4, {**fixed, **found})
        g = cycle_graph(4)
        assert validate_acyclic(g, as_coloring(g, 3, {**fixed, **found})).ok

    def test_cycle_tests_see_fixed_edges(self):
        # color 2 on (0, 3) is free at both ends but closes a 1-2 cycle
        # through the three edges in the table
        fixed = {(0, 1): 1, (1, 2): 2, (2, 3): 1}
        assert _search(table(4, fixed), [(0, 3)], 3, False, 100) == {(0, 3): 3}
        nbr = table(4, fixed)
        assert _search(nbr, [(0, 3)], 2, False, 100) is None
        assert nbr == table(4, fixed)

    def test_no_color_left_is_none(self):
        # the table's edges take both colors at the hub
        fixed = {(0, 1): 1, (0, 2): 2}
        nbr = table(4, fixed)
        assert _search(nbr, [(0, 3)], 2, False, 100) is None
        assert nbr == table(4, fixed)

    def test_symmetry_cap_is_off(self):
        # the only completion colors the first free edge 3, above
        # largest-used + 1 = 1, which the cap, sound only on an empty
        # table, would refuse
        fixed = {(0, 1): 1, (0, 2): 2}
        assert _search(table(4, fixed), [(0, 3)], 3, False, 100) == {(0, 3): 3}
        assert _search(table(4, fixed), [(0, 3)], 3, True, 100) is None

    def test_exhausted_search_unwinds_its_path(self):
        # the budget runs out two edges deep into the path 0-1-2-3 at k = 2,
        # which has a coloring; the table is left as it was found
        fixed = {(3, 4): 1}
        nbr = table(5, fixed)
        assert _search(nbr, [(0, 1), (1, 2), (2, 3)], 2, False, 3) is EXHAUSTED
        assert nbr == table(5, fixed)
        assert _search(nbr, [(0, 1), (1, 2), (2, 3)], 2, False, 100) == {
            (1, 2): 1, (2, 3): 2, (0, 1): 2
        }


class TestEnumerateCycles:
    def test_k4_has_seven_cycles(self):
        # 4 triangles + 3 quadrilaterals
        cycles = enumerate_cycles(complete_graph(4))
        assert len(cycles) == 7
        assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]

    def test_tree_has_none(self):
        assert enumerate_cycles(star_graph(5)) == []

    def test_cycle_graph_has_one(self):
        assert len(enumerate_cycles(cycle_graph(6))) == 1

    def test_too_large_rejected(self):
        assert len(enumerate_cycles(octahedron()[0])) == 63  # 12 edges fine
        with pytest.raises(ValueError):
            enumerate_cycles(complete_graph(7))

    @pytest.mark.parametrize(
        "g, count",
        [
            (complete_graph(5), 37),
            (complete_graph(6), 197),
            (cube()[0], 28),
            (grid_graph(3, 3), 13),
        ],
        ids=["K5", "K6", "cube", "grid3x3"],
    )
    def test_cycle_counts(self, g, count):
        assert len(enumerate_cycles(g)) == count

    @given(small_graphs(max_n=8, max_m=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_enumeration(self, g):
        assert enumerate_cycles(g) == subset_enumerate_cycles(g)


class TestBruteCycleCheck:
    def test_agrees_on_alternating_square(self):
        g = cycle_graph(4)
        w = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        assert bichromatic_cycle_exists_brute(g, w) is True

    def test_agrees_on_three_colors(self):
        g = cycle_graph(4)
        w = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 3}
        assert bichromatic_cycle_exists_brute(g, w) is False

    def test_precomputed_cycles_accepted(self):
        g = complete_graph(4)
        cycles = enumerate_cycles(g)
        w = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
        assert bichromatic_cycle_exists_brute(g, w, cycles) is True


class TestAtlasCensus:
    """Every connected planar graph with an edge in networkx's graph atlas
    (Read and Wilson, all graphs on up to 7 vertices): 774 of them."""

    def test_bounds_and_sandwich(self):
        graphs = [
            Graph(h.number_of_nodes(), list(h.edges()))
            for h in nx.graph_atlas_g()
            if h.number_of_edges() and nx.is_connected(h) and nx.check_planarity(h)[0]
        ]
        assert len(graphs) == 774
        above_delta, above_chi = Counter(), Counter()
        for g in graphs:
            chi = exact_chi_a(g)
            used = validate_acyclic(g, acolor(g)[0]).max_color
            delta = g.max_degree()
            assert _lower_bound(g.edges()) <= chi <= used <= delta + 10
            above_delta[chi - delta] += 1
            above_chi[used - chi] += 1
        assert above_delta == {0: 668, 1: 104, 2: 2}
        assert above_chi == {0: 546, 1: 227, 2: 1}
