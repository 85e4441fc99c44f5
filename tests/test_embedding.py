import pytest

from aecolor import embedding
from aecolor.embedding import (
    FaceSet,
    RotationSystem,
    format_rotation,
    generate_apollonian,
    parse_rotation,
    trace_faces,
)
from aecolor.errors import InvalidRotationError, NonPlanarEmbeddingError
from aecolor.families import (
    PLATONIC,
    complete_graph,
    cube,
    cycle_graph,
    dodecahedron,
    icosahedron,
    octahedron,
    tetrahedron,
    triakis_tetrahedron,
    triangle_embedded,
)
from aecolor.graphs import Graph, format_edge_list

from support import (
    reference_apollonian,
    reference_faces,
    reference_triakis_tetrahedron,
)


def as_text(graph_and_rotation) -> tuple[str, str]:
    g, rot = graph_and_rotation
    return format_edge_list(g), format_rotation(rot)


class TestTraceFaces:
    def test_triangle_two_faces(self):
        g, rot = triangle_embedded()
        faces = trace_faces(g, rot)
        assert faces.lengths() == [3, 3]

    def test_tetrahedron_four_triangles(self):
        g, rot = tetrahedron()
        faces = trace_faces(g, rot)
        assert len(faces) == 4 and faces.all_triangles()

    def test_cube_six_quadrilaterals(self):
        g, rot = cube()
        faces = trace_faces(g, rot)
        assert sorted(faces.lengths()) == [4] * 6
        assert g.n - g.m + len(faces) == 2

    def test_dart_sum_is_twice_edges(self):
        for g, rot in (tetrahedron(), cube(), octahedron(), icosahedron(), dodecahedron()):
            faces = trace_faces(g, rot)
            assert sum(faces.lengths()) == 2 * g.m

    def test_dart_coverage_exact(self):
        g, rot = octahedron()
        darts = [d for f in trace_faces(g, rot) for d in f]
        assert len(darts) == len(set(darts)) == 2 * g.m
        assert set(darts) == {(u, v) for u, v in g.edges()} | {(v, u) for u, v in g.edges()}

    def test_deterministic(self):
        g, rot = icosahedron()
        assert trace_faces(g, rot) == trace_faces(g, rot)

    def test_faces_ordered_by_smallest_dart(self, embedded):
        # each face starts at its smallest dart and those starts ascend,
        # the order in which repeatedly taking the least unvisited dart
        # finds the faces
        for _, g, rot in embedded:
            faces = list(trace_faces(g, rot))
            firsts = [f[0] for f in faces]
            assert all(f[0] == min(f) for f in faces)
            assert all(a < b for a, b in zip(firsts, firsts[1:]))

    def test_rotation_graph_mismatch(self):
        g = cycle_graph(3)
        with pytest.raises(InvalidRotationError):
            trace_faces(g, RotationSystem([[1, 2], [0, 2], [0]]))

    def test_nonplanar_rotation_rejected(self):
        # K4 with vertex 0's rotation transposed embeds on the torus
        g = complete_graph(4)
        rot = RotationSystem([[1, 3, 2], [2, 0, 3], [0, 1, 3], [0, 1, 2]])
        with pytest.raises(NonPlanarEmbeddingError, match="Euler"):
            trace_faces(g, rot)

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            trace_faces(g, RotationSystem([[1], [0], [3], [2]]))

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            trace_faces(Graph(1, []), RotationSystem([[]]))


class TestTriangulationWitness:
    def test_true_on_tetrahedron(self):
        g, rot = tetrahedron()
        assert trace_faces(g, rot).all_triangles()

    def test_false_on_cube(self):
        g, rot = cube()
        assert not trace_faces(g, rot).all_triangles()


class TestGenerateApollonian:
    def test_n3_is_triangle(self):
        g, _ = generate_apollonian(3, seed=0)
        assert g.n == 3 and g.m == 3

    def test_n4_is_k4(self):
        g, _ = generate_apollonian(4, seed=5)
        assert g == complete_graph(4)

    def test_n100_edge_count_and_faces(self):
        g, rot = generate_apollonian(100, seed=7)
        assert g.m == 294 == 3 * g.n - 6
        assert trace_faces(g, rot).all_triangles()

    @pytest.mark.parametrize("n,seed", [(10, 0), (25, 3), (60, 9)])
    def test_maximal_planar_invariant(self, n, seed):
        g, rot = generate_apollonian(n, seed)
        assert g.m == 3 * n - 6
        faces = trace_faces(g, rot)
        assert faces.all_triangles() and len(faces) == 2 * n - 4

    def test_deterministic_per_seed(self):
        a = generate_apollonian(40, seed=11)
        b = generate_apollonian(40, seed=11)
        assert a[0] == b[0] and a[1] == b[1]

    def test_seeds_differ(self):
        assert generate_apollonian(40, 0)[0] != generate_apollonian(40, 1)[0]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_apollonian(2, seed=0)


class TestGeneratorReference:
    # the flat face list of `ReferenceStacker` is what the blocked face
    # store must reproduce, pick for pick
    @pytest.mark.parametrize(
        "n, seed",
        [(n, seed) for n in (3, 4, 5, 50, 1000, 1250) for seed in range(5)]
        # the only size here past one block: its faces fill three
        + [(20_000, 3)],
    )
    def test_same_text_as_the_flat_face_list(self, n, seed):
        assert as_text(generate_apollonian(n, seed)) == as_text(reference_apollonian(n, seed))

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_same_text_on_tiny_blocks(self, monkeypatch, block):
        # hundreds of blocks, many of them emptied by picks, and ranks
        # that fall on every block boundary
        monkeypatch.setattr(embedding, "_BLOCK", block)
        for n, seed in ((6, 0), (60, 1), (400, 2)):
            assert as_text(generate_apollonian(n, seed)) == as_text(reference_apollonian(n, seed))

    def test_triakis_tetrahedron_unchanged(self):
        assert as_text(triakis_tetrahedron()) == as_text(reference_triakis_tetrahedron())


class TestRotationSystem:
    def test_repeated_neighbor_refused_when_built(self):
        with pytest.raises(InvalidRotationError, match="repeated neighbor in rotation at 1"):
            RotationSystem([[1, 2], [2, 0, 2], [0, 1]])

    @pytest.mark.parametrize("before", [[], [(1, 0)]], ids=["unbuilt", "built"])
    def test_successor_of_a_non_neighbor(self, before):
        # the first `successor` call builds the index; a non-neighbor is
        # refused alike by that call and by a later one
        rot = RotationSystem([[1], [0, 2], [1]])
        for v, u in before:
            assert rot.successor(v, u) == 2
        with pytest.raises(InvalidRotationError, match="^2 is not in the rotation at 0$"):
            rot.successor(0, 2)

    @pytest.mark.parametrize("name", [*PLATONIC, "apollonian1000"])
    def test_faces_match_positional_successors(self, name):
        g, rot = PLATONIC[name]() if name in PLATONIC else generate_apollonian(1000, 4)
        assert trace_faces(g, rot) == reference_faces(g, rot)


class TestRotationFormat:
    def test_round_trip(self):
        g, rot = icosahedron()
        assert parse_rotation(format_rotation(rot), g) == rot

    def test_missing_colon(self):
        with pytest.raises(InvalidRotationError, match="line 1"):
            parse_rotation("0 1 2", cycle_graph(3))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0: 1 x\n", "line 1: non-integer id"),
            ("\nv: 1\n", "line 2: non-integer id"),
            ("2: 0\n", "line 1: vertex 2 out of range"),
            ("-1: 0\n", "line 1: vertex -1 out of range"),
        ],
    )
    def test_bad_vertex_id(self, text, message):
        with pytest.raises(InvalidRotationError, match=f"^{message}$"):
            parse_rotation(text, Graph(2, [(0, 1)]))

    def test_vertex_count_must_match(self):
        # a rotation built for another graph, not one read from text
        with pytest.raises(InvalidRotationError, match="^rotation covers 2 vertices, graph has 3$"):
            trace_faces(cycle_graph(3), RotationSystem([[1], [0]]))

    def test_vertex_twice(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InvalidRotationError, match="twice"):
            parse_rotation("0: 1\n0: 1\n1: 0\n", g)

    def test_repeated_neighbor(self):
        g = cycle_graph(3)
        with pytest.raises(InvalidRotationError, match="repeated"):
            parse_rotation("0: 1 1\n1: 0 2\n2: 1 0\n", g)

    def test_not_a_permutation_of_adjacency(self):
        from aecolor.families import path_graph

        g = path_graph(3)
        with pytest.raises(InvalidRotationError, match="permutation"):
            parse_rotation("0: 1 2\n1: 0 2\n2: 1\n", g)


class TestFaceSetBasics:
    def test_lengths_and_iteration(self):
        fs = FaceSet((((0, 1), (1, 2), (2, 0)),))
        assert fs.lengths() == [3] and len(fs) == 1
        assert list(fs)[0][0] == (0, 1)

    def test_equality_hashing_and_dart_index(self):
        walk = ((0, 1), (1, 2), (2, 0))
        fs, same = FaceSet((walk,)), FaceSet((walk,))
        assert fs == same and hash(fs) == hash(same) and len({fs, same}) == 1
        assert fs != FaceSet((walk[::-1],)) and fs != (walk,)
        assert fs.darts_into == {1: [(0, 0)], 2: [(0, 1)], 0: [(0, 2)]}
        assert fs.darts_into is fs.darts_into
        assert fs == same  # the built index takes no part in equality
