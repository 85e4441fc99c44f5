import time

import pytest

from aecolor.coloring import PartialEdgeColoring, validate_acyclic
from aecolor.families import (
    complete_graph,
    cycle_graph,
    grid_graph,
    octahedron,
    path_graph,
    star_graph,
)
from aecolor.graphs import Graph
from aecolor.oracle import (
    EXHAUSTED,
    SearchBudget,
    bichromatic_cycle_exists_brute,
    enumerate_cycles,
    exact_chi_a,
    is_acyclically_k_colorable,
    search_acyclic_coloring,
)


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
            SearchBudget(max_nodes=10, wall_seconds=-1.0)

    def test_wall_clock_budget_exhausts(self):
        # a node budget far out of reach, so only the deadline can stop it
        budget = SearchBudget(max_nodes=10**9, wall_seconds=0.2)
        start = time.monotonic()
        assert search_acyclic_coloring(grid_graph(10, 10), 4, budget) is EXHAUSTED
        assert time.monotonic() - start < 5

    def test_generous_budget_still_exact(self):
        assert exact_chi_a(complete_graph(4), SearchBudget(max_nodes=10**7)) == 5


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
        g, _ = octahedron()  # 12 edges fine; force the guard with K7
        with pytest.raises(ValueError):
            enumerate_cycles(complete_graph(7))


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
