"""Exact-rational discharging: charges, transfer rules, and the audit.

Charges are 2d(x)-6 on vertices and d(x)-6 on faces; Euler's formula makes
any connected embedded graph total exactly -12.  Vertices of degree >= 4
then redistribute charge to incident faces by degree-pattern rules.  Every
transfer is per *corner* (one vertex-face incidence), so a face incident to
a vertex twice is paid twice, exactly how face degrees count.

Each rule's precondition encodes the absence of a low-degree configuration
at that vertex; when the pattern is present anyway the vertex is flagged
instead, and a full discharging pass refuses to run.  All arithmetic uses
exact fractions (denominators here divide 420), never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .embedding import FaceSet, RotationSystem, trace_faces
from .errors import ConfigurationPresentError, NotPlanarEvidence
from .graphs import Graph
from .scanner import (
    Configuration,
    _sorted_neighbors,
    classify_vertex,
    find_configuration,
)

RULE_IDS = ("R1", "R2a", "R2b", "R3.1", "R3.2", "R3.3-adjacent", "R3.3-split", "none")

HALF = Fraction(1, 2)
FIFTH = Fraction(1, 5)
FOUR_FIFTHS = Fraction(4, 5)
FIVE_QUARTERS = Fraction(5, 4)
FIVE_SIXTHS = Fraction(5, 6)
TWO_THIRDS = Fraction(2, 3)
THIRTEEN_FIFTEENTHS = Fraction(13, 15)
EIGHT_FIFTEENTHS = Fraction(8, 15)


class Transfer(NamedTuple):
    vertex: int
    face: int
    amount: Fraction
    rule: str


@dataclass(frozen=True)
class RuleApplicability:
    rule: str
    violation: bool


@dataclass(frozen=True)
class ChargeLedger:
    vertex_charges: tuple[Fraction, ...]
    face_charges: tuple[Fraction, ...]
    phase: str  # "initial" | "discharged"
    transfers: tuple[Transfer, ...]

    def total(self) -> Fraction:
        return sum(self.vertex_charges, Fraction(0)) + sum(
            self.face_charges, Fraction(0)
        )

    def negatives(self) -> list[tuple[str, Fraction]]:
        out = [
            (f"vertex#{v}", c)
            for v, c in enumerate(self.vertex_charges)
            if c < 0
        ]
        out += [
            (f"face#{f}", c) for f, c in enumerate(self.face_charges) if c < 0
        ]
        return out


def initial_charges(g: Graph, faces: FaceSet) -> ChargeLedger:
    """Initial ledger: 2d-6 per vertex, d-6 per face; connected total is -12."""
    return ChargeLedger(
        tuple(Fraction(2 * g.degree(v) - 6) for v in g.vertices()),
        tuple(Fraction(len(f) - 6) for f in faces),
        "initial",
        (),
    )


class _Corner(NamedTuple):
    face: int
    prev: int  # neighbor entering the corner
    next: int  # neighbor leaving the corner


def _corners(faces: FaceSet, n: int) -> list[list[_Corner]]:
    """Vertex-face incidences: vertex v has exactly d(v) corners."""
    corners: list[list[_Corner]] = [[] for _ in range(n)]
    for fi, walk in enumerate(faces):
        L = len(walk)
        for i, (x, y) in enumerate(walk):
            z = walk[(i + 1) % L][1]
            corners[y].append(_Corner(fi, x, z))
    return corners


def classify_rule(
    g: Graph, v: int, faces: Optional[FaceSet] = None
) -> RuleApplicability:
    """Which transfer rule applies at v, or a violation flag.

    The violation flag marks exactly the degree patterns the rules'
    implicit preconditions exclude: a 4- or 5-vertex the scanner classifies
    as configuration A3 or A4.  Distinguishing the two 5-vertex sub-rules
    of the final branch needs the embedding; without `faces` the generic
    id "R3.3" is returned.
    """
    ra = _classify(g, v, None)
    if ra.rule == "R3.3" and faces is not None:
        # only this branch reads the embedding, so only it builds corners
        ra = _classify(g, v, _corners(faces, g.n)[v])
    return ra


def _classify(g: Graph, v: int, corners: Optional[list[_Corner]]) -> RuleApplicability:
    # `classify_rule` from v's corners, None without an embedding
    d = g.degree(v)
    if d <= 3:
        return RuleApplicability("none", False)
    if d >= 6:
        return RuleApplicability("R1", False)
    if classify_vertex(g, v) is not None:
        return RuleApplicability("none", True)  # the A3 or A4 pattern is present
    # (id, degree) pairs by (degree, id).  With A3 absent a 4-vertex has
    # d(v1) >= 8 or d(v2) >= 10; with A4 absent a 5-vertex that fails the
    # first two tests has d(v3) >= 9
    nd = _sorted_neighbors(g, v)
    if d == 4:
        return RuleApplicability("R2a" if nd[0][1] >= 8 else "R2b", False)
    # d == 5
    if nd[0][1] >= 7:
        return RuleApplicability("R3.1", False)
    if nd[1][1] >= 8:
        return RuleApplicability("R3.2", False)
    if corners is None:
        return RuleApplicability("R3.3", False)
    v1, v2 = nd[0][0], nd[1][0]
    adjacent = any({c.prev, c.next} == {v1, v2} for c in corners)
    return RuleApplicability(
        "R3.3-adjacent" if adjacent else "R3.3-split", False
    )


def _transfers_at(
    g: Graph, v: int, corners: list[_Corner], rule: str
) -> list[Transfer]:
    d = g.degree(v)
    nd = _sorted_neighbors(g, v)
    out = []
    if rule == "R1":
        share = Fraction(2 * d - 6, d)
        out = [Transfer(v, c.face, share, rule) for c in corners]
    elif rule == "R2a":
        out = [Transfer(v, c.face, HALF, rule) for c in corners]
    elif rule == "R2b":
        v1 = nd[0][0]
        out = [
            Transfer(v, c.face, FOUR_FIFTHS if v1 in (c.prev, c.next) else FIFTH, rule)
            for c in corners
        ]
    elif rule == "R3.1":
        out = [Transfer(v, c.face, FOUR_FIFTHS, rule) for c in corners]
    elif rule == "R3.2":
        v1 = nd[0][0]
        out = [
            Transfer(v, c.face, FIVE_QUARTERS if v1 in (c.prev, c.next) else HALF, rule)
            for c in corners
        ]
    elif rule == "R3.3-adjacent":
        v1, v2 = nd[0][0], nd[1][0]
        for c in corners:
            hits = len({v1, v2} & {c.prev, c.next})
            amount = (Fraction(1), FIVE_SIXTHS, TWO_THIRDS)[2 - hits]
            out.append(Transfer(v, c.face, amount, rule))
    elif rule == "R3.3-split":
        v1, v2 = nd[0][0], nd[1][0]
        for c in corners:
            touched = v1 in (c.prev, c.next) or v2 in (c.prev, c.next)
            out.append(
                Transfer(
                    v, c.face, THIRTEEN_FIFTEENTHS if touched else EIGHT_FIFTEENTHS, rule
                )
            )
    return out


def vertex_transfers(g: Graph, faces: FaceSet, v: int) -> list[Transfer]:
    """All charge v sends out, one entry per corner; empty for rule `none`.

    Raises ConfigurationPresentError when v's degree pattern violates the
    rule preconditions.
    """
    corners = _corners(faces, g.n)[v]
    ra = _classify(g, v, corners)
    if ra.violation:
        raise ConfigurationPresentError(v)
    if ra.rule == "none":
        return []
    return _transfers_at(g, v, corners, ra.rule)


def apply_discharging(g: Graph, faces: FaceSet, ledger: ChargeLedger) -> ChargeLedger:
    """Run every rule once; total charge is conserved transfer-by-transfer."""
    if ledger.phase != "initial":
        raise ValueError(f"expected an initial-phase ledger, got {ledger.phase!r}")
    corner_map = _corners(faces, g.n)
    vc = list(ledger.vertex_charges)
    fc = list(ledger.face_charges)
    log: list[Transfer] = []
    for v in g.vertices():
        ra = _classify(g, v, corner_map[v])
        if ra.violation:
            raise ConfigurationPresentError(v)
        if ra.rule == "none":
            continue
        for t in _transfers_at(g, v, corner_map[v], ra.rule):
            vc[t.vertex] -= t.amount
            fc[t.face] += t.amount
            log.append(t)
    out = ChargeLedger(tuple(vc), tuple(fc), "discharged", tuple(log))
    assert out.total() == ledger.total()
    return out


@dataclass(frozen=True)
class AuditReport:
    outcome: str  # "config" | "charges"
    initial_total: Fraction
    config: Optional[Configuration]
    ledger: Optional[ChargeLedger]  # discharged ledger for outcome "charges"

    def negatives(self) -> list[tuple[str, Fraction]]:
        return self.ledger.negatives() if self.ledger is not None else []

    def to_json_dict(self) -> dict:
        out: dict = {"outcome": self.outcome, "total": str(self.initial_total)}
        if self.config is not None:
            out["config"] = self.config.to_json_dict()
        if self.outcome == "charges":
            out["negatives"] = [
                {"elem": label, "charge": str(c)} for label, c in self.negatives()
            ]
        return out


def audit_triangulation(g: Graph, rot: RotationSystem) -> AuditReport:
    """Audit one embedded triangulation.

    Expected outcome on planar input is always "config": some vertex
    matches a low-degree configuration.  The "charges" outcome (full
    discharging with negative elements listed) exists as the refutation
    path; reaching it with no negative element would contradict the
    charge arithmetic (the total is -12) and is asserted unreachable in
    tests.
    """
    faces = trace_faces(g, rot)
    if not faces.all_triangles():
        raise ValueError("audit requires a triangulation (all faces length 3)")
    ledger = initial_charges(g, faces)
    total = ledger.total()
    try:
        conf = find_configuration(g)
    except NotPlanarEvidence:
        discharged = apply_discharging(g, faces, ledger)
        return AuditReport("charges", total, None, discharged)
    return AuditReport("config", total, conf, None)
