"""Unavoidable low-degree configurations and the reduction-order scan.

Every connected planar graph contains a vertex matching one of four local
degree patterns (the discharging argument in the auditor module proves it):

  A1: d(v) <= 2
  A2: d(v) = 3 and d(v1) <= 11
  A3: d(v) = 4 and d(v1) <= 7, d(v2) <= 9
  A4: d(v) = 5 and d(v1) <= 6, d(v2) <= 7, d(v3) <= 8

with v's neighbors v1 <= v2 <= ... sorted by degree.  The scan therefore
doubles as a one-sided planarity refuter: no match on any graph is
constructive evidence of non-planarity.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotPlanarEvidence
from .graphs import Graph

# Sorted-neighbor-degree caps per kind; a prefix check against these decides
# membership.  A1 has no neighbor condition.  `discharge` picks its rules by
# these caps, and `colorer._peel` makes its thresholds from them and
# re-checks a vertex when a neighbor's degree falls onto one of them, so the
# patterns live here only.
_CAPS = {"A2": (11,), "A3": (7, 9), "A4": (6, 7, 8)}
_KIND_BY_DEGREE = {3: "A2", 4: "A3", 5: "A4"}


class Configuration(NamedTuple):
    kind: str
    vertex: int
    neighbors: tuple[tuple[int, int], ...]  # (vertex, degree), by (degree, id)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": self.vertex,
            "neighbors": [{"v": v, "d": d} for v, d in self.neighbors],
        }


def _kind(nd: list[tuple[int, int]]) -> Optional[str]:
    # the cap test on (degree, id) pairs: the kind of a vertex whose
    # neighbors are the sorted pairs nd, or None.  `colorer._peel` runs the
    # same test inline on int keys, and the reducer tests hold the two equal
    d = len(nd)
    if d <= 2:
        return "A1"
    kind = _KIND_BY_DEGREE.get(d)
    if kind is not None:
        for (du, _), cap in zip(nd, _CAPS[kind]):
            if du > cap:
                return None
    return kind


def _match(v: int, nd: list[tuple[int, int]]) -> Optional[Configuration]:
    # v's configuration, or None, from its neighbors as sorted (degree, id)
    # pairs; tuple.__new__ skips NamedTuple's __new__
    kind = _kind(nd)
    if kind is None:
        return None
    return tuple.__new__(Configuration, (kind, v, tuple([(u, du) for du, u in nd])))


def classify_vertex(g: Graph, v: int) -> Optional[Configuration]:
    """The lowest-index configuration kind at v, or None.

    Kinds are keyed to d(v), so at most one kind can apply; A1 covers every
    degree <= 2 (isolated vertices included).
    """
    degree = g.degree
    return _match(v, sorted([(degree(u), u) for u in g.neighbors(v)]))


def find_configuration(g: Graph) -> Configuration:
    """Configuration at the smallest-id qualifying vertex.

    Raises NotPlanarEvidence when no vertex qualifies, which cannot happen
    for a planar input with a vertex, and ValueError on the null graph,
    which has no vertex to qualify but is planar.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    for v in g.vertices():
        conf = classify_vertex(g, v)
        if conf is not None:
            return conf
    raise NotPlanarEvidence(
        f"no low-degree configuration in graph with n={g.n}, m={g.m}; "
        "a planar graph always contains one"
    )

