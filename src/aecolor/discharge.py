"""Exact-rational discharging: charges, transfer rules, and the audit.

Charges are 2d(x)-6 on vertices and d(x)-6 on faces; Euler's formula makes
any connected embedded graph total exactly -12.  Vertices of degree >= 4
then redistribute charge to incident faces by degree-pattern rules.  Every
transfer is per *corner* (one vertex-face incidence), so a face incident to
a vertex twice is paid twice, exactly how face degrees count.

A 4- or 5-vertex's rule is picked by the scanner's A3/A4 caps: with v's
neighbors sorted by degree, the first one over its cap names the rule, and
the neighbors before it are the light ones the rule's shares single out.
With no neighbor over its cap the configuration is present, so the vertex
is flagged instead, and a full discharging pass refuses to run.  The shares
come from one table.  All arithmetic uses exact fractions (denominators
here divide 420), never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .embedding import FaceSet, RotationSystem, trace_faces
from .errors import ConfigurationPresentError, NotPlanarEvidence
from .graphs import Graph
from .scanner import (
    _CAPS,
    _KIND_BY_DEGREE,
    Configuration,
    find_configuration,
)

# rule by d(v) and by the index of v's first sorted neighbor over its cap
_RULES = {4: ("R2a", "R2b"), 5: ("R3.1", "R3.2", "R3.3")}

# amounts[j]: the share of a corner whose two sides meet j of the
# len(amounts) - 1 lightest neighbors.  A split corner never meets both.
_SHARES = {
    "R2a": (Fraction(1, 2),),
    "R2b": (Fraction(1, 5), Fraction(4, 5)),
    "R3.1": (Fraction(4, 5),),
    "R3.2": (Fraction(1, 2), Fraction(5, 4)),
    "R3.3-adjacent": (Fraction(2, 3), Fraction(5, 6), Fraction(1)),
    "R3.3-split": (Fraction(8, 15), Fraction(13, 15), Fraction(13, 15)),
}


class Transfer(NamedTuple):
    vertex: int
    face: int
    amount: Fraction
    rule: str


class RuleApplicability(NamedTuple):
    rule: str
    violation: bool


class ChargeLedger(NamedTuple):
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


def _corners_at(faces: FaceSet, v: int) -> list[_Corner]:
    """v's vertex-face incidences, exactly d(v) of them, in face order,
    read through the face set's index of the darts into each vertex."""
    out: list[_Corner] = []
    for fi, i in faces.darts_into.get(v, ()):
        walk = faces.faces[fi]
        out.append(_Corner(fi, walk[i][0], walk[(i + 1) % len(walk)][1]))
    return out


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
    rule, _ = _classify(g, v, None)
    if rule == "R3.3" and faces is not None:
        # only this branch reads the embedding, so only it collects corners
        rule, _ = _classify(g, v, _corners_at(faces, v))
    return RuleApplicability(rule or "none", rule is None)


def _classify(
    g: Graph, v: int, corners: Optional[list[_Corner]]
) -> tuple[Optional[str], set[int]]:
    # v's rule (None on a violation) and the light neighbors its shares
    # single out; `corners` is None without an embedding
    d = g.degree(v)
    if d <= 3:
        return "none", set()
    if d >= 6:
        return "R1", set()
    nd = sorted([(g.degree(u), u) for u in g.neighbors(v)])
    caps = _CAPS[_KIND_BY_DEGREE[d]]
    i = next((i for i, cap in enumerate(caps) if nd[i][0] > cap), None)
    if i is None:
        return None, set()  # the A3 or A4 pattern is present
    rule = _RULES[d][i]
    light = {u for _, u in nd[:i]}
    if rule == "R3.3" and corners is not None:
        adjacent = any({c.prev, c.next} == light for c in corners)
        rule += "-adjacent" if adjacent else "-split"
    return rule, light


def _transfers(g: Graph, v: int, corners: list[_Corner]) -> list[Transfer]:
    # everything v sends out, one entry per corner
    rule, light = _classify(g, v, corners)
    if rule is None:
        raise ConfigurationPresentError(v)
    if rule == "none":
        return []
    d = g.degree(v)
    amounts = (Fraction(2 * d - 6, d),) if rule == "R1" else _SHARES[rule]
    return [
        Transfer(v, c.face, amounts[len(light & {c.prev, c.next})], rule)
        for c in corners
    ]


def vertex_transfers(g: Graph, faces: FaceSet, v: int) -> list[Transfer]:
    """All charge v sends out, one entry per corner; empty for rule `none`.

    Raises ConfigurationPresentError when v's degree pattern violates the
    rule preconditions.
    """
    return _transfers(g, v, _corners_at(faces, v))


def apply_discharging(g: Graph, faces: FaceSet, ledger: ChargeLedger) -> ChargeLedger:
    """Run every rule once; total charge is conserved transfer-by-transfer."""
    if ledger.phase != "initial":
        raise ValueError(f"expected an initial-phase ledger, got {ledger.phase!r}")
    vc = list(ledger.vertex_charges)
    fc = list(ledger.face_charges)
    log: list[Transfer] = []
    for v in g.vertices():
        for t in _transfers(g, v, _corners_at(faces, v)):
            vc[t.vertex] -= t.amount
            fc[t.face] += t.amount
            log.append(t)
    out = ChargeLedger(tuple(vc), tuple(fc), "discharged", tuple(log))
    assert out.total() == ledger.total()
    return out


class AuditReport(NamedTuple):
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
