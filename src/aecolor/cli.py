"""Command line front end.

Subcommands compose through pipes: `gen` emits the edge-list text format,
`color` turns it into a coloring JSON document, `verify` consumes that
document and reports through its exit code.  `-` stands for stdin/stdout
everywhere.  All output is deterministic for identical inputs and seeds.

Exit codes: 0 success, 1 usage or malformed input, 2 improper coloring,
3 bichromatic cycle, 4 incomplete coloring, 5 planarity refuted,
6 search budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import __version__
from .errors import (
    AecolorError,
    EdgeListParseError,
    ExtensionFailed,
    NonPlanarEmbeddingError,
    NotPlanarEvidence,
)
from .graphs import MAX_VERTICES, Graph, format_edge_list, parse_edge_list

if TYPE_CHECKING:
    from .colorer import ReductionTrace
    from .coloring import PartialEdgeColoring

# A CLI call pays for every module it imports, compiled from source when no
# bytecode cache is written, so each subcommand imports, inside its own
# function, the modules that not every subcommand runs.  `json` is one of
# them: `color` writes its documents itself (`_write_json`), so only
# `verify` and `_dump_json` import it, and `gen` and `color` never do.

SCHEMA = "aecolor/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IMPROPER = 2
EXIT_CYCLE = 3
EXIT_INCOMPLETE = 4
EXIT_NOT_PLANAR = 5
EXIT_EXHAUSTED = 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# the rows `_write` joins and writes at a time
_CHUNK_ROWS = 4096


def _write(
    path: Optional[str], head: str, rows: Iterable[str] = (), tail: str = "", sep: str = ""
) -> None:
    """Write head, the rows joined by sep, and tail to path, - or None for
    stdout.  The rows are joined and written `_CHUNK_ROWS` at a time, so an
    output of m rows never lies in memory as one string."""
    fh = sys.stdout if path is None or path == "-" else open(path, "w", encoding="utf-8")
    try:
        write = fh.write
        write(head)
        rows = iter(rows)
        chunk = sep.join(islice(rows, _CHUNK_ROWS))
        while chunk:
            write(chunk)
            chunk = sep.join(islice(rows, _CHUNK_ROWS))
            if chunk:
                write(sep)
        write(tail)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _write_json(
    path: Optional[str], head: dict, key: str, rows: Iterable[str], count: int
) -> None:
    """Write the bytes of `_dump_json({**head, key: items})`, where head
    maps to ints and strings with nothing to escape, and items is a list of
    `count` objects, each already encoded as one of `rows` at indent depth
    2."""
    text = "{\n"
    for name, x in head.items():
        text += f'  "{name}": {x},\n' if type(x) is int else f'  "{name}": "{x}",\n'
    if count:
        _write(path, f'{text}  "{key}": [\n', rows, "\n  ]\n}\n", ",\n")
    else:
        _write(path, f'{text}  "{key}": []\n}}\n')


def _dump_json(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def coloring_to_json(phi: PartialEdgeColoring) -> dict:
    edges = [{"u": u, "v": v, "color": c} for u, v, c in phi._edge_rows()]
    return {"schema": SCHEMA, "k": phi.k, "edges": edges}


def _not_int(key: str, x) -> _UsageError:
    return _UsageError(
        f"malformed coloring document: {key} must be an integer, got {type(x).__name__}"
    )


def _coloring_rows(
    doc: dict,
) -> tuple[int, list[tuple[int, int, Optional[int]]], Sequence[int]]:
    """The palette size, the (u, v, color) rows and the vertex ids of a
    coloring document, in one pass over the rows.

    Each field must be an integer, color may also be null; bool is an int
    subclass, and a float such as 2.7 or 1e400 is no id.  The fields are
    checked in the order k, then row by row u, v and color, and the first
    that is missing or malformed is refused.  No row's edge is checked
    here: `_build_coloring` does that.

    The ids are range(n) when they are already 0..n-1, and otherwise the
    distinct ids ascending; the set that collects them is freed on return.
    """
    present: set[int] = set()
    add = present.add
    triples = []
    append = triples.append
    try:
        k = doc["k"]
        if type(k) is not int:
            raise _not_int("k", k)
        for row in doc["edges"]:
            u = row["u"]
            if type(u) is not int:
                raise _not_int("u", u)
            v = row["v"]
            if type(v) is not int:
                raise _not_int("v", v)
            c = row["color"]
            if c is not None and type(c) is not int:
                raise _not_int("color", c)
            append((u, v, c))
            add(u)
            add(v)
    except KeyError as exc:
        raise _UsageError(f"malformed coloring document: missing key {exc}") from exc
    except TypeError as exc:
        raise _UsageError(f"malformed coloring document: {exc}") from exc
    if not present or (min(present) == 0 and max(present) == len(present) - 1):
        return k, triples, range(len(present))
    return k, triples, sorted(present)


def _refusal(pairs: Iterable[tuple[int, int]]) -> ValueError:
    """The refusal of the first (u, v) row, in the document's own ids and
    in row order, with a negative id, a self-loop or an edge given before.
    Run only once some row is known to be refused."""
    seen = set()
    for u, v in pairs:
        if u < 0 or v < 0:
            return ValueError(f"edge ({u},{v}) has a negative vertex id")
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return ValueError(f"duplicate edge ({u},{v})")
        seen.add(e)
    raise AssertionError("no row to refuse")


def _build_coloring(
    k: int, rows: list[tuple[int, int, Optional[int]]], ids: Sequence[int]
) -> tuple[Sequence[int], Graph, PartialEdgeColoring]:
    """The ids, graph and coloring of a document's rows, from `_coloring_rows`.

    The graph is built on the ranks of the ids, in the ids' order, so the
    cycle witness rule picks the same cycle, and memory follows the number
    of edges rather than the largest id; sparse ids are ranked in `rows`
    itself.  A row that no graph accepts is named, in the document's own
    ids, by `_refusal`, which runs only then.  Properness violations are
    collected in the coloring, not raised.
    """
    from .coloring import PartialEdgeColoring

    if ids and ids[0] < 0:
        raise _refusal((u, v) for u, v, _ in rows)
    if not isinstance(ids, range):
        rank = {x: i for i, x in enumerate(ids)}
        rows[:] = [(rank[u], rank[v], c) for u, v, c in rows]
        del rank
    try:
        g = Graph(len(ids), ((u, v) for u, v, _ in rows))
    except ValueError:
        raise _refusal((ids[u], ids[v]) for u, v, _ in rows) from None
    # `Graph` has accepted each row as an edge given once, which is what
    # `from_pairs` would check again
    phi = PartialEdgeColoring(g, k)
    phi._write(rows, strict=False, edges_checked=True)
    return ids, g, phi


def coloring_from_json(doc: dict) -> tuple[Graph, PartialEdgeColoring]:
    """The graph and coloring that `aecolor verify` checks, built by its
    loader: on the ranks of the document's ids, which are the ids
    themselves when they are already 0..n-1.  A malformed field raises
    `_UsageError` and a row or palette that no coloring takes ValueError,
    with the message and precedence of `verify`."""
    _, g, phi = _build_coloring(*_coloring_rows(doc))
    return g, phi


def _dot_rows(phi: PartialEdgeColoring) -> Iterator[str]:
    # palette index drives the hue so renders are stable across runs
    k = max(phi.k, 1)
    for u, v, c in phi._edge_rows():
        if c is None:
            yield f'  {u} -- {v} [style=dashed label="?"];\n'
        else:
            yield f'  {u} -- {v} [label="{c}" color="{(c - 1) / k:.3f} 0.85 0.75"];\n'


def _write_coloring(path: Optional[str], phi: PartialEdgeColoring) -> None:
    # the bytes of `_dump_json(coloring_to_json(phi))`
    rows = (
        f'    {{\n      "u": {u},\n      "v": {v},\n'
        f'      "color": {"null" if c is None else c}\n    }}'
        for u, v, c in phi._edge_rows()
    )
    _write_json(path, {"schema": SCHEMA, "k": phi.k}, "edges", rows, phi.graph.m)


def _write_trace(path: Optional[str], trace: ReductionTrace) -> None:
    # the bytes of `_dump_json({"schema": SCHEMA, **trace.to_json_dict()})`;
    # configuration kinds and tiers are names with nothing to escape
    rows = (
        f'    {{\n      "edge": [\n        {u},\n        {v}\n      ],\n'
        f'      "config": "{kind}",\n      "tier": "{tier}"\n    }}'
        for u, v, kind, tier in zip(trace._us, trace._vertices, trace._kinds, trace._tiers)
    )
    _write_json(path, {"schema": SCHEMA}, "steps", rows, len(trace))


def cmd_gen(args) -> int:
    from .embedding import format_rotation, generate_apollonian

    if args.apollonian is not None:
        if args.apollonian < 3:
            raise _UsageError("--apollonian needs n >= 3")
        if args.apollonian > MAX_VERTICES:
            # `color` refuses such a graph
            raise _UsageError(f"--apollonian needs n <= {MAX_VERTICES}")
        g, rot = generate_apollonian(args.apollonian, seed=args.seed)
    else:
        from .families import PLATONIC

        g, rot = PLATONIC[args.platonic]()
    _write(args.out, format_edge_list(g))
    if args.rot_out:
        _write(args.rot_out, format_rotation(rot))
    return EXIT_OK


def cmd_color(args) -> int:
    from .colorer import acolor

    g = _load_graph(getattr(args, "in"))
    phi, trace = acolor(g)
    if args.format == "json":
        _write_coloring(args.out, phi)
    elif args.format == "dot":
        _write(args.out, "graph aecolor {\n", _dot_rows(phi), "}\n")
    else:
        _write(args.out, "", (f"{u} {v} {c}\n" for u, v, c in phi._edge_rows()))
    if args.trace:
        _write_trace(args.trace, trace)
    return EXIT_OK


def cmd_verify(args) -> int:
    import json

    from .coloring import validate_acyclic

    try:
        doc = json.loads(_read(getattr(args, "in")))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"input is not JSON: {exc}") from exc
    except RecursionError as exc:
        raise _UsageError("input is nested too deeply to read as JSON") from exc
    loaded = _coloring_rows(doc)
    # the rows hold all that is read from here on; freeing the document lets
    # the graph and the coloring reuse its memory
    del doc
    ids, g, phi = _build_coloring(*loaded)
    if phi.violations:
        status, code = "improper", EXIT_IMPROPER
        detail: dict = {
            "violations": [
                {"u": ids[u], "v": ids[v], "color": c} for u, v, c in phi.violations
            ]
        }
    else:
        report = validate_acyclic(g, phi)
        if report.cycle is not None:
            status, code = "cycle", EXIT_CYCLE
            detail = {
                "cycle": {
                    "vertices": [ids[x] for x in report.cycle.vertices],
                    "colors": list(report.cycle.colors),
                }
            }
        elif not report.all_edges_colored:
            status, code = "incomplete", EXIT_INCOMPLETE
            detail = {"colored": phi.colored_edge_count(), "edges": g.m}
        else:
            status, code = "acyclic", EXIT_OK
            detail = {"max_color": report.max_color}
    if args.format == "plain":
        _write(args.out, status + "\n")
    else:
        _write(args.out, _dump_json({"schema": SCHEMA, "status": status, **detail}))
    return code


def cmd_chi_a(args) -> int:
    from .oracle import EXHAUSTED, SearchBudget, exact_chi_a, is_acyclically_k_colorable

    g = _load_graph(getattr(args, "in"))
    budget = SearchBudget(max_nodes=args.budget)
    if args.k is None:
        res = exact_chi_a(g, budget)
    else:
        res = is_acyclically_k_colorable(g, args.k, budget)
    if res is EXHAUSTED:
        _write(args.out, "exhausted\n")
        return EXIT_EXHAUSTED
    # a decision prints true or false, the exact value its number
    _write(args.out, f"{str(res).lower()}\n")
    return EXIT_OK


def cmd_find_config(args) -> int:
    from .scanner import find_configuration

    g = _load_graph(getattr(args, "in"))
    cfg = find_configuration(g)
    if args.format == "plain":
        nbrs = " ".join(f"{v}(d={d})" for v, d in cfg.neighbors)
        _write(args.out, f"{cfg.kind} v={cfg.vertex} neighbors: {nbrs}\n")
    else:
        _write(args.out, _dump_json({"schema": SCHEMA, **cfg.to_json_dict()}))
    return EXIT_OK


def cmd_audit(args) -> int:
    from .discharge import audit_triangulation
    from .embedding import parse_rotation

    g = _load_graph(getattr(args, "in"))
    rot = parse_rotation(_read(args.rot), g)
    report = audit_triangulation(g, rot)
    if args.format == "plain":
        if report.config is not None:
            line = f"config {report.config.kind} at {report.config.vertex}"
        else:
            negs = ", ".join(f"{e}={c}" for e, c in report.negatives()) or "none"
            line = f"charges total={report.initial_total} negatives: {negs}"
        _write(args.out, line + "\n")
    else:
        _write(args.out, _dump_json({"schema": SCHEMA, **report.to_json_dict()}))
    return EXIT_OK


class _Solids:
    """The `gen --platonic` choices: the names in `families.PLATONIC`,
    listed sorted.  argparse reads them only to check or list `gen`'s
    arguments, so only `gen` imports the families module."""

    def __iter__(self):
        from .families import PLATONIC

        return iter(sorted(PLATONIC))

    def __contains__(self, name) -> bool:
        from .families import PLATONIC

        return name in PLATONIC


def _build_parser() -> _Parser:
    p = _Parser(prog="aecolor", description=__doc__)
    p.add_argument("--version", action="version", version=f"aecolor {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_io(sp, with_in=True):
        if with_in:
            sp.add_argument("--in", default="-", metavar="FILE", help="input, - for stdin")
        sp.add_argument("--out", default="-", metavar="FILE", help="output, - for stdout")

    sp = sub.add_parser("gen", help="generate a graph in edge-list form")
    kind = sp.add_mutually_exclusive_group(required=True)
    kind.add_argument("--apollonian", type=int, metavar="N", help="stacked triangulation on N vertices")
    kind.add_argument("--platonic", choices=_Solids(), help="a platonic solid")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rot-out", metavar="FILE", help="also write the rotation system")
    add_io(sp, with_in=False)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("color", help="acyclically edge-color with max degree + 10 colors")
    add_io(sp)
    sp.add_argument("--trace", metavar="FILE", help="write the reduction trace JSON")
    sp.add_argument("--format", choices=("json", "dot", "plain"), default="json")
    sp.set_defaults(fn=cmd_color)

    sp = sub.add_parser("verify", help="check a coloring document; exit code reports the class")
    add_io(sp)
    sp.add_argument("--format", choices=("json", "plain"), default="json")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("chi-a", help="exact acyclic chromatic index by exhaustive search")
    add_io(sp)
    sp.add_argument("--k", type=int, help="decide k-colorability instead of the exact value")
    sp.add_argument("--budget", type=int, default=200_000_000, metavar="NODES")
    sp.set_defaults(fn=cmd_chi_a)

    sp = sub.add_parser("find-config", help="locate a reducible configuration")
    add_io(sp)
    sp.add_argument("--format", choices=("json", "plain"), default="json")
    sp.set_defaults(fn=cmd_find_config)

    sp = sub.add_parser("audit", help="exact discharging audit of an embedded triangulation")
    add_io(sp)
    sp.add_argument("--rot", required=True, metavar="FILE", help="rotation system file")
    sp.add_argument("--format", choices=("json", "plain"), default="json")
    sp.set_defaults(fn=cmd_audit)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, EdgeListParseError, ValueError, OSError) as exc:
        print(f"aecolor: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as exc:
        # an input too large or too deeply nested for this process
        print(f"aecolor: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return EXIT_USAGE
    except (NotPlanarEvidence, NonPlanarEmbeddingError) as exc:
        print(f"aecolor: not planar: {exc}", file=sys.stderr)
        return EXIT_NOT_PLANAR
    except ExtensionFailed as exc:
        print(f"aecolor: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except AecolorError as exc:
        print(f"aecolor: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
