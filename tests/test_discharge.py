"""Exact-rational discharging arithmetic.

The per-rule balance identities are checked on wheel patches: a hub of the
rule's degree, ring neighbors padded to the exact degree pattern, all hub
faces triangular.  On such a patch the initial hub charge must be consumed
to exactly zero by the outgoing transfers.
"""

from fractions import Fraction

import pytest

from aecolor import discharge
from aecolor.discharge import (
    RuleApplicability,
    apply_discharging,
    audit_triangulation,
    classify_rule,
    initial_charges,
    vertex_transfers,
)
from aecolor.embedding import FaceSet, generate_apollonian, trace_faces
from aecolor.errors import ConfigurationPresentError
from aecolor.families import (
    cube,
    icosahedron,
    octahedron,
    tetrahedron,
    wheel_graph,
)

from support import reference_corners, wheel_patch


class TestInitialCharges:
    def test_vertex_charge_formula(self):
        g, rot = octahedron()
        ledger = initial_charges(g, trace_faces(g, rot))
        # every octahedron vertex has degree 4: charge 2*4-6 = 2
        assert all(c == 2 for c in ledger.vertex_charges)

    def test_triangular_face_charge(self):
        g, rot = tetrahedron()
        ledger = initial_charges(g, trace_faces(g, rot))
        assert all(c == -3 for c in ledger.face_charges)

    def test_degree_three_vertex_charge_zero(self):
        g, rot = tetrahedron()
        ledger = initial_charges(g, trace_faces(g, rot))
        assert all(c == 0 for c in ledger.vertex_charges)

    def test_degree_five_vertex_charge_four(self):
        g, rot = icosahedron()
        ledger = initial_charges(g, trace_faces(g, rot))
        assert all(c == 4 for c in ledger.vertex_charges)

    def test_total_minus_twelve_everywhere(self, embedded):
        for name, g, rot in embedded:
            ledger = initial_charges(g, trace_faces(g, rot))
            assert ledger.total() == -12, name

    def test_total_is_exact_rational(self):
        g, rot = cube()
        total = initial_charges(g, trace_faces(g, rot)).total()
        assert isinstance(total, Fraction) and total == Fraction(-12, 1)


class TestClassifyRule:
    def patch_rule(self, ring):
        g, rot = wheel_patch(ring)
        return classify_rule(g, 0, trace_faces(g, rot))

    def test_r1_for_big_hub(self):
        assert self.patch_rule((3,) * 6) == RuleApplicability("R1", False)

    def test_r2a_all_neighbors_heavy(self):
        assert self.patch_rule((8, 8, 8, 8)) == RuleApplicability("R2a", False)

    def test_r2b_one_light_neighbor(self):
        assert self.patch_rule((5, 10, 10, 10)) == RuleApplicability("R2b", False)

    def test_r31_no_light_neighbor(self):
        assert self.patch_rule((7,) * 5) == RuleApplicability("R3.1", False)

    def test_r32_one_light_neighbor(self):
        assert self.patch_rule((6, 8, 8, 8, 8)) == RuleApplicability("R3.2", False)

    def test_r33_adjacent_light_pair(self):
        assert self.patch_rule((6, 7, 9, 9, 9)) == RuleApplicability(
            "R3.3-adjacent", False
        )

    def test_r33_split_light_pair(self):
        assert self.patch_rule((6, 9, 7, 9, 9)) == RuleApplicability(
            "R3.3-split", False
        )

    def test_r33_generic_without_faces(self):
        g, _ = wheel_patch((6, 9, 7, 9, 9))
        assert classify_rule(g, 0) == RuleApplicability("R3.3", False)

    def test_a3_pattern_flags_violation(self):
        g, _ = octahedron()
        ra = classify_rule(g, 0)
        assert ra.violation and ra.rule == "none"

    def test_a4_pattern_flags_violation(self):
        g, _ = icosahedron()
        assert classify_rule(g, 0).violation

    def test_low_degree_no_rule(self):
        g, _ = tetrahedron()
        assert classify_rule(g, 0) == RuleApplicability("none", False)

    def test_boundary_4_vertex_with_9_degree_second(self):
        # neighbor degrees (7, 9, 9, 9): second smallest is 9 < 10, so
        # neither R2 branch applies and the A3 pattern is flagged
        g, _ = wheel_patch((7, 9, 9, 9))
        assert classify_rule(g, 0).violation

    def test_boundary_5_vertex_with_8_degree_third(self):
        # (6, 7, 8, 9, 9): third smallest 8 < 9 leaves A4 in force
        g, _ = wheel_patch((6, 7, 8, 9, 9))
        assert classify_rule(g, 0).violation


# ring degree patterns and the expected multiset of outgoing amounts
IDENTITY_CASES = [
    ("R1", (3,) * 6, {Fraction(1): 6}),
    ("R2a", (8, 8, 8, 8), {Fraction(1, 2): 4}),
    ("R2b", (5, 10, 10, 10), {Fraction(4, 5): 2, Fraction(1, 5): 2}),
    ("R3.1", (7,) * 5, {Fraction(4, 5): 5}),
    ("R3.2", (6, 8, 8, 8, 8), {Fraction(5, 4): 2, Fraction(1, 2): 3}),
    (
        "R3.3-adjacent",
        (6, 7, 9, 9, 9),
        {Fraction(1): 1, Fraction(5, 6): 2, Fraction(2, 3): 2},
    ),
    (
        "R3.3-split",
        (6, 9, 7, 9, 9),
        {Fraction(13, 15): 4, Fraction(8, 15): 1},
    ),
]


class TestBalanceIdentities:
    @pytest.mark.parametrize("rule,ring,amounts", IDENTITY_CASES, ids=[c[0] for c in IDENTITY_CASES])
    def test_hub_discharges_to_exactly_zero(self, rule, ring, amounts):
        g, rot = wheel_patch(ring)
        faces = trace_faces(g, rot)
        assert classify_rule(g, 0, faces).rule == rule
        transfers = vertex_transfers(g, faces, 0)
        got: dict[Fraction, int] = {}
        for t in transfers:
            assert t.vertex == 0 and t.rule == rule
            got[t.amount] = got.get(t.amount, 0) + 1
        assert got == amounts
        initial = Fraction(2 * len(ring) - 6)
        assert initial - sum(t.amount for t in transfers) == 0

    def test_violating_vertex_raises(self):
        g, rot = octahedron()
        with pytest.raises(ConfigurationPresentError) as ei:
            vertex_transfers(g, trace_faces(g, rot), 0)
        assert ei.value.vertex == 0

    def test_no_rule_no_transfers(self):
        g, rot = tetrahedron()
        assert vertex_transfers(g, trace_faces(g, rot), 0) == []


class _CountingFaces(tuple):
    # a face tuple that counts the face walks read from it
    visits = 0

    def __iter__(self):
        for walk in tuple.__iter__(self):
            self.visits += 1
            yield walk

    def __getitem__(self, i):
        self.visits += 1
        return tuple.__getitem__(self, i)


class TestCornerLookup:
    def test_one_vertex_builds_no_full_table(self):
        # classify_rule, vertex_transfers and apply_discharging collect v's
        # corners alone, in the order of the full table made in one pass
        # over the faces
        g, rot = generate_apollonian(300, 1)
        faces = trace_faces(g, rot)
        table = reference_corners(faces, g.n)
        rules = {classify_rule(g, v, faces).rule for v in g.vertices()}
        # the R3.3 sub-rules are the branch that reads corners
        assert {"R3.3-adjacent", "R3.3-split"} <= rules
        for v in g.vertices():
            assert discharge._corners_at(faces, v) == table[v]
            try:
                transfers = vertex_transfers(g, faces, v)
            except ConfigurationPresentError:
                continue
            assert len(transfers) in (0, g.degree(v))

    def test_all_vertex_loops_read_o_m_faces(self):
        # one index per face set, not one scan of every face per vertex
        g, rot = generate_apollonian(2000, 1)
        walks = _CountingFaces(trace_faces(g, rot).faces)
        faces = FaceSet(walks)
        rules = [classify_rule(g, v, faces).rule for v in g.vertices()]
        assert {"R3.3-adjacent", "R3.3-split"} <= set(rules)
        assert walks.visits <= g.m
        for v in g.vertices():
            try:
                vertex_transfers(g, faces, v)
            except ConfigurationPresentError:
                pass
        assert walks.visits <= 3 * g.m


class TestApplyDischarging:
    def patch(self, ring):
        g, rot = wheel_patch(ring)
        faces = trace_faces(g, rot)
        return g, faces, initial_charges(g, faces)

    def test_conserves_total(self):
        g, faces, ledger = self.patch((8, 8, 8, 8))
        out = apply_discharging(g, faces, ledger)
        assert out.total() == ledger.total() == -12
        assert out.phase == "discharged"

    def test_transfer_log_reconciles(self):
        g, faces, ledger = self.patch((6, 9, 7, 9, 9))
        out = apply_discharging(g, faces, ledger)
        for t in out.transfers:
            assert t.amount > 0
        delta_v = [a - b for a, b in zip(out.vertex_charges, ledger.vertex_charges)]
        delta_f = [a - b for a, b in zip(out.face_charges, ledger.face_charges)]
        for t in out.transfers:
            delta_v[t.vertex] += t.amount
            delta_f[t.face] -= t.amount
        assert all(x == 0 for x in delta_v) and all(x == 0 for x in delta_f)

    # The R2b ring (5,10,10,10) is excluded here: its degree-5 ring vertex
    # has pendant neighbors and so carries the A4 pattern, which full-graph
    # discharging must refuse.  Its hub identity is covered above through
    # vertex_transfers.
    CLEAN_RINGS = [ring for _, ring, _ in IDENTITY_CASES if ring != (5, 10, 10, 10)]

    def test_hub_ends_at_zero(self):
        for ring in self.CLEAN_RINGS:
            g, faces, ledger = self.patch(ring)
            out = apply_discharging(g, faces, ledger)
            assert out.vertex_charges[0] == 0, ring

    def test_rejects_discharged_ledger(self):
        g, faces, ledger = self.patch((8, 8, 8, 8))
        out = apply_discharging(g, faces, ledger)
        with pytest.raises(ValueError, match="initial"):
            apply_discharging(g, faces, out)

    def test_rejects_violating_graph(self):
        g, rot = octahedron()
        faces = trace_faces(g, rot)
        with pytest.raises(ConfigurationPresentError):
            apply_discharging(g, faces, initial_charges(g, faces))

    def test_denominators_divide_420(self):
        for ring in self.CLEAN_RINGS:
            g, faces, ledger = self.patch(ring)
            out = apply_discharging(g, faces, ledger)
            for c in out.vertex_charges + out.face_charges:
                assert 420 % c.denominator == 0


class TestAuditTriangulation:
    def test_tetrahedron_reports_config(self):
        g, rot = tetrahedron()
        rep = audit_triangulation(g, rot)
        assert rep.outcome == "config" and rep.config.kind == "A2"
        assert rep.initial_total == -12

    def test_icosahedron_reports_a4(self):
        g, rot = icosahedron()
        rep = audit_triangulation(g, rot)
        assert rep.outcome == "config" and rep.config.kind == "A4"

    def test_apollonian_500(self):
        g, rot = generate_apollonian(500, seed=0)
        rep = audit_triangulation(g, rot)
        assert rep.outcome == "config"
        assert rep.initial_total == -12

    def test_non_triangulation_rejected(self):
        g, rot = cube()
        with pytest.raises(ValueError, match="triangulation"):
            audit_triangulation(g, rot)

    def test_json_shape(self):
        g, rot = tetrahedron()
        d = audit_triangulation(g, rot).to_json_dict()
        assert d["outcome"] == "config" and d["total"] == "-12"
        assert d["config"]["kind"] == "A2"

    def test_config_outcome_on_every_embedded_triangulation(self, embedded):
        for name, g, rot in embedded:
            if not trace_faces(g, rot).all_triangles():
                continue
            rep = audit_triangulation(g, rot)
            assert rep.outcome == "config", name
