"""Exact outputs of the alternating walk and the bichromatic cycle scan."""

from aecolor.coloring import PartialEdgeColoring, find_bichromatic_cycle
from aecolor.families import cycle_graph


def test_first_cycle_witness_on_alternating_square():
    g = cycle_graph(4)
    phi = PartialEdgeColoring.from_pairs(
        g, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)]
    )
    w = find_bichromatic_cycle(g, phi)
    assert w is not None
    assert w.colors == (1, 2)
    assert w.vertices == (0, 1, 2, 3)


def test_walk_end_no_first_edge():
    g = cycle_graph(3)
    phi = PartialEdgeColoring.from_pairs(g, 3, [(0, 1, 1)])
    # with no first-colored edge the walk is empty and has no last color
    assert phi.walk_end(2, 3, 1) == (2, -1, False)
