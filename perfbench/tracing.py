"""In-memory span recording and the traced pipeline drivers.

A span is (name, start, end, parent, op, tag): `parent` is the index of
the enclosing span (-1 for an operation's root), `op` the id of the
closed-loop operation it belongs to, and `tag` an optional label such as
the extension tier.  Spans are kept in a list while the run lasts and
written out once, when it ends.

The traced drivers call the same public functions, in the same order, as
`acolor` and `audit_triangulation`, with a span around each call.  Only
the drivers know the order; the traced run checks that they reproduce
the library's own results exactly (see `workloads.Run.color`).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from aecolor import (
    ExtensionContext,
    PartialEdgeColoring,
    ReductionTrace,
    TraceStep,
    choose_reduction_edge,
    extend_at_edge,
    find_configuration,
    initial_charges,
    trace_faces,
    validate_acyclic,
)


class TraceDrift(Exception):
    """The traced driver no longer reproduces the library's result."""


class NullTracer:
    """Tracing off: every hook is a no-op, so untraced runs time the library alone."""

    enabled = False

    def begin(self, name: str, tag: str | None = None) -> int:
        return -1

    def end(self, idx: int, tag: str | None = None) -> None:
        pass

    def count(self, name: str, k: float = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, tag: str | None = None) -> None:
        # closes idx and anything an exception left open inside it
        now = perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break
        if tag is not None:
            self.spans[idx][5] = tag

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def self_times(self, first_op: int = 0) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans,
        over the spans of operations numbered first_op and up.

        A tagged span is also added under `<name>_<tag>`.
        """
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _tag in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, op, tag) in enumerate(self.spans):
            if op < first_op:
                continue
            own = end - start - covered[i]
            out[name] += own
            if tag:
                out[f"{name}_{tag}"] += own
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, tag in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if tag:
                    row["tag"] = tag
                fh.write(json.dumps(row) + "\n")


def traced_validate(g, phi, tr):
    """`validate_acyclic` in a span, with the cycle scan's work recorded."""
    s = tr.begin("coloring.validate")
    report = validate_acyclic(g, phi)
    tr.end(s)
    if tr.enabled:
        present = len({c for _e, c in phi.items()})
        tr.count("coloring.validations")
        tr.count("coloring.color_pairs", present * (present - 1) // 2)
        tr.count("coloring.table_bytes", g.n * (phi.k + 1) * 4)
    return report


def traced_acolor(g, tr):
    """`acolor` with default settings, one span per public call."""
    k = g.max_degree() + 10
    removals = []
    cur = g
    while cur.m > 0:
        s = tr.begin("colorer.choose")
        edge, cfg = choose_reduction_edge(cur)
        tr.end(s)
        removals.append((edge, cfg))
        s = tr.begin("graphs.remove_edge")
        cur = cur.remove_edge(*edge)
        tr.end(s)
    tr.count("colorer.choose_calls", len(removals))
    tr.count("graphs.remove_edge_calls", len(removals))
    s = tr.begin("coloring.new")
    phi = PartialEdgeColoring(g, k)
    tr.end(s)
    tiers = [""] * len(removals)
    for i in range(len(removals) - 1, -1, -1):
        edge, cfg = removals[i]
        v = cfg.vertex
        u = edge[0] if edge[1] == v else edge[1]
        s = tr.begin("colorer.context")
        ctx = ExtensionContext(g, phi, u, v)
        tr.end(s)
        s = tr.begin("colorer.extend")
        phi, tiers[i] = extend_at_edge(ctx)
        tr.end(s, tag=tiers[i])
        tr.count(f"colorer.tier_{tiers[i]}")
    trace = ReductionTrace(tuple(TraceStep(e, c, t) for (e, c), t in zip(removals, tiers)))
    if not phi.is_complete():
        raise AssertionError("traced extension finished with uncolored edges")
    report = traced_validate(g, phi, tr)
    if not report.ok:
        raise AssertionError(f"traced coloring failed validation: {report}")
    return phi, trace


def traced_audit(g, rot, tr):
    """The steps of `audit_triangulation` on planar input: (initial total, configuration).

    On planar input the audit always stops at a configuration, so the
    refutation path (`apply_discharging`) is never reached and
    `discharge.apply_s` reads 0.
    """
    s = tr.begin("embedding.trace_faces")
    faces = trace_faces(g, rot)
    tr.end(s)
    if not faces.all_triangles():
        raise ValueError("audit requires a triangulation (all faces length 3)")
    s = tr.begin("discharge.initial_charges")
    total = initial_charges(g, faces).total()
    tr.end(s)
    s = tr.begin("scanner.find_configuration")
    conf = find_configuration(g)
    tr.end(s)
    return total, conf
