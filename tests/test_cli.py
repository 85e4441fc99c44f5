"""End-to-end command line checks, all in-process through main(argv)."""

import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aecolor
from aecolor import cli, families
from aecolor.cli import SCHEMA, _UsageError, coloring_from_json, coloring_to_json, main
from aecolor.colorer import ReductionTrace, TraceStep, acolor
from aecolor.coloring import PartialEdgeColoring
from aecolor.embedding import format_rotation, generate_apollonian
from aecolor.errors import AecolorError, ExtensionFailed, NotPlanarEvidence
from aecolor.families import complete_graph, cycle_graph, star_graph
from aecolor.graphs import MAX_VERTICES, Graph, format_edge_list
from support import (
    coloring_documents,
    free_colors,
    reference_coloring_from_json,
    reference_verify,
    small_graphs,
)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(format_edge_list(g))
    return str(p)


def coloring_doc(k, rows):
    return json.dumps(
        {
            "schema": "aecolor/1",
            "k": k,
            "edges": [{"u": u, "v": v, "color": c} for u, v, c in rows],
        }
    )


def python(probe, *argv, **kwargs):
    """Run `probe` in a fresh interpreter that imports this aecolor."""
    env = dict(os.environ, PYTHONPATH=str(Path(aecolor.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, **kwargs
    )


def verify_outcome(text):
    """(exit code, stdout, stderr) of `aecolor verify` with text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--in", "-"])
    return code, out.getvalue(), err.getvalue()


# the names of the aecolor modules a probe has loaded, space-separated
LOADED = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'aecolor'))"


class TestGen:
    def test_platonic_cube(self, capsys):
        code, out, _ = run(capsys, ["gen", "--platonic", "cube"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == "8 12"

    def test_apollonian_deterministic(self, capsys):
        a = run(capsys, ["gen", "--apollonian", "25", "--seed", "3"])
        b = run(capsys, ["gen", "--apollonian", "25", "--seed", "3"])
        assert a == b and a[0] == 0

    def test_seeds_differ(self, capsys):
        a = run(capsys, ["gen", "--apollonian", "25", "--seed", "0"])
        b = run(capsys, ["gen", "--apollonian", "25", "--seed", "1"])
        assert a[1] != b[1]

    def test_rotation_sidecar(self, capsys, tmp_path):
        rot = tmp_path / "rot.txt"
        code, out, _ = run(
            capsys,
            ["gen", "--platonic", "tetrahedron", "--rot-out", str(rot)],
        )
        assert code == 0
        lines = rot.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("0:") and set(lines[0].split()[1:]) == {"1", "2", "3"}

    @pytest.mark.parametrize("chunk_rows", [1, 2, None], ids=["rows-1", "rows-2", "default"])
    @pytest.mark.parametrize(
        "argv, build",
        [
            (["--apollonian", "3"], lambda: generate_apollonian(3, 0)),
            (["--apollonian", "4", "--seed", "5"], lambda: generate_apollonian(4, 5)),
            (["--apollonian", "50", "--seed", "2"], lambda: generate_apollonian(50, 2)),
            (["--platonic", "dodecahedron"], lambda: families.PLATONIC["dodecahedron"]()),
        ],
        ids=["n3", "n4", "n50", "dodecahedron"],
    )
    def test_streamed_bytes_equal_the_formatters(self, capsys, tmp_path, argv, build, chunk_rows):
        rot_path = tmp_path / "g.rot"
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows or cli._CHUNK_ROWS):
            code, out, _ = run(capsys, ["gen", *argv, "--rot-out", str(rot_path)])
        g, rot = build()
        assert code == 0
        assert out == format_edge_list(g)
        assert rot_path.read_text() == format_rotation(rot)

    @pytest.mark.parametrize("n", [1367, 4096, 4097])
    def test_streamed_bytes_at_the_chunk_size(self, capsys, tmp_path, n):
        # at n = 1367 the edge list is exactly one chunk of 3n - 5 lines, and
        # at 4096 and 4097 the rotation is one chunk of n lines, then one more
        rot_path = tmp_path / "g.rot"
        code, out, _ = run(capsys, ["gen", "--apollonian", str(n), "--rot-out", str(rot_path)])
        g, rot = generate_apollonian(n, 0)
        assert code == 0
        assert out == format_edge_list(g)
        assert rot_path.read_text() == format_rotation(rot)

    def test_only_the_named_solid_is_built(self, capsys, monkeypatch):
        calls = []
        for name, build in list(families.PLATONIC.items()):

            def counted(build=build, name=name):
                calls.append(name)
                return build()

            monkeypatch.setitem(families.PLATONIC, name, counted)
        doc = coloring_doc(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])
        code, _, _ = run(capsys, ["verify", "--in", "-"], doc, monkeypatch)
        assert code == 0 and calls == []
        code, _, _ = run(capsys, ["gen", "--platonic", "cube"])
        assert code == 0 and calls == ["cube"]

    def test_platonic_choices_listed_and_checked(self, capsys):
        # argparse reads the choices from families.PLATONIC on demand
        names = sorted(families.PLATONIC)
        code, _, err = run(capsys, ["gen", "--platonic", "sphere"])
        choices = ", ".join(map(repr, names))
        assert code == 1
        assert f"invalid choice: 'sphere' (choose from {choices})" in err
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(names) + "}" in capsys.readouterr().out

    def test_too_small_apollonian_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--apollonian", "2"])
        assert code == 1 and "n >= 3" in err

    def test_apollonian_above_the_vertex_cap_is_refused(self, capsys, monkeypatch):
        # refused before generating, which is quadratic in n
        def generate(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr("aecolor.embedding.generate_apollonian", generate)
        code, out, err = run(capsys, ["gen", "--apollonian", str(MAX_VERTICES + 1)])
        assert code == 1 and out == ""
        assert err == f"aecolor: --apollonian needs n <= {MAX_VERTICES}\n"


class TestColor:
    def test_json_document_shape(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["color", "--in", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "aecolor/1"
        assert doc["k"] == 13 and len(doc["edges"]) == 6
        assert all(1 <= row["color"] <= 13 for row in doc["edges"])

    def test_plain_format(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(3))
        code, out, _ = run(capsys, ["color", "--in", path, "--format", "plain"])
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert sorted(int(c) for _, _, c in rows) == [1, 2, 3]

    def test_dot_format(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(3))
        code, out, _ = run(capsys, ["color", "--in", path, "--format", "dot"])
        assert code == 0
        assert out.startswith("graph aecolor {") and out.rstrip().endswith("}")
        assert out.count(" -- ") == 3

    def test_trace_sidecar(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, ["color", "--in", path, "--trace", str(trace)])
        assert code == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == "aecolor/1" and len(doc["steps"]) == 6
        step = doc["steps"][0]
        assert set(step) == {"edge", "config", "tier"}

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            tr = tmp_path / f"{name}.trace"
            assert run(capsys, ["color", "--in", path, "--out", str(out), "--trace", str(tr)])[0] == 0
            outs.append((out.read_bytes(), tr.read_bytes()))
        assert outs[0] == outs[1]

    def test_k7_refused_with_planarity_exit(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(7))
        code, _, err = run(capsys, ["color", "--in", path])
        assert code == 5 and "not planar" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["color", "--in", "-", "--format", "plain"],
            stdin=format_edge_list(cycle_graph(3)),
            monkeypatch=monkeypatch,
        )
        assert code == 0 and len(out.splitlines()) == 3

    def test_huge_header_is_refused_in_bounded_memory(self):
        # the header alone must not size the graph; the child runs under an
        # address-space limit, so a parser that trusts n fails the test
        # rather than exhausting the machine
        probe = (
            "import resource, tracemalloc\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from aecolor.cli import main\n"
            "tracemalloc.start()\n"
            "code = main(['color', '--in', '-'])\n"
            "print(code, tracemalloc.get_traced_memory()[1])"
        )
        res = python(probe, input="1000000000 0\n")
        code, peak = map(int, res.stdout.split())
        assert code == 1
        assert res.stderr.startswith("aecolor: line 1: ") and "limit" in res.stderr
        assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
        assert peak < 20 * 2**20

    def test_malformed_edge_list(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["color", "--in", "-"],
            stdin="2 1\n0 0\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1 and "aecolor:" in err


@pytest.fixture(scope="module")
def apollonian_10k():
    """An Apollonian graph on 10000 vertices (seed 11), its coloring by
    `acolor` and that coloring's JSON document."""
    from aecolor.colorer import acolor

    g, _ = generate_apollonian(10_000, seed=11)
    phi, _ = acolor(g)
    return g, phi, json.dumps(coloring_to_json(phi))


def written(writer, obj, chunk_rows=None):
    """The text `writer(path, obj)` writes to stdout, `_CHUNK_ROWS` rows at
    a time unless chunk_rows is given."""
    out = io.StringIO()
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows or cli._CHUNK_ROWS), redirect_stdout(out):
        writer("-", obj)
    return out.getvalue()


def dumped_coloring(phi):
    return json.dumps(coloring_to_json(phi), indent=2) + "\n"


def dumped_trace(trace):
    return json.dumps({"schema": SCHEMA, **trace.to_json_dict()}, indent=2) + "\n"


class TestWriters:
    """`color` writes its documents row by row; the bytes are those of
    json.dumps(indent=2), at every chunk size, with and without rows."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=8), st.data(), st.integers(1, 5))
    def test_coloring_bytes_equal_json_dumps(self, g, data, chunk_rows):
        k = data.draw(st.integers(0, 12))
        phi = PartialEdgeColoring(g, k)
        for u, v in g.edges():
            free = free_colors(phi, u, v)
            c = data.draw(st.sampled_from([None, *free]))
            if c is not None:
                phi.assign(u, v, c)
        assert written(cli._write_coloring, phi, chunk_rows) == dumped_coloring(phi)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=8), st.data(), st.integers(1, 5))
    def test_trace_bytes_equal_json_dumps(self, g, data, chunk_rows):
        try:
            phi, trace = acolor(g)
        except NotPlanarEvidence:
            assume(False)
        assert written(cli._write_trace, trace, chunk_rows) == dumped_trace(trace)
        assert written(cli._write_coloring, phi, chunk_rows) == dumped_coloring(phi)
        # a trace built from steps, with escalated tiers
        tiers = st.sampled_from(["T1", "T2", "T3", "T4"])
        tiers = data.draw(st.lists(tiers, min_size=len(trace), max_size=len(trace)))
        rebuilt = ReductionTrace(
            tuple(TraceStep(s.edge, s.config, t) for s, t in zip(trace.steps, tiers))
        )
        assert written(cli._write_trace, rebuilt, chunk_rows) == dumped_trace(rebuilt)

    def test_empty_documents(self):
        phi, trace = acolor(Graph(3, []))
        assert len(trace) == 0
        assert written(cli._write_trace, trace) == dumped_trace(trace)
        assert written(cli._write_coloring, phi) == dumped_coloring(phi)

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-chunk", "past-one-chunk"])
    def test_documents_at_the_chunk_size(self, extra):
        # the star's m is exactly one chunk of rows, then one row more
        phi, trace = acolor(star_graph(cli._CHUNK_ROWS + extra))
        assert written(cli._write_coloring, phi) == dumped_coloring(phi)
        assert written(cli._write_trace, trace) == dumped_trace(trace)

    @pytest.mark.parametrize("fmt", ["json", "plain", "dot"])
    def test_file_and_stdout_bytes_agree(self, capsys, tmp_path, fmt):
        g = generate_apollonian(30, 2)[0]
        path = write_graph(tmp_path, g)
        out, tr = tmp_path / "out", tmp_path / "trace.json"
        argv = ["color", "--in", path, "--format", fmt]
        assert run(capsys, [*argv, "--out", str(out), "--trace", str(tr)])[0] == 0
        code, stdout, _ = run(capsys, argv)
        assert code == 0 and out.read_text() == stdout
        if fmt == "plain":
            phi, _ = acolor(g)
            assert stdout == "".join(f"{u} {v} {c}\n" for (u, v), c in phi.items())


class TestVerify:
    def verify(self, capsys, monkeypatch, doc, fmt="json"):
        return run(
            capsys,
            ["verify", "--in", "-", "--format", fmt],
            stdin=doc,
            monkeypatch=monkeypatch,
        )

    def test_valid_document(self, capsys, monkeypatch):
        doc = coloring_doc(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])
        code, out, _ = self.verify(capsys, monkeypatch, doc)
        body = json.loads(out)
        assert code == 0 and body["status"] == "acyclic" and body["max_color"] == 3

    def test_improper_is_exit_2(self, capsys, monkeypatch):
        doc = coloring_doc(3, [(0, 1, 1), (1, 2, 1), (2, 0, 3)])
        code, out, _ = self.verify(capsys, monkeypatch, doc)
        body = json.loads(out)
        assert code == 2 and body["status"] == "improper"
        assert body["violations"]

    def test_alternating_square_is_exit_3(self, capsys, monkeypatch):
        doc = coloring_doc(2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)])
        code, out, _ = self.verify(capsys, monkeypatch, doc)
        body = json.loads(out)
        assert code == 3 and body["status"] == "cycle"
        assert sorted(body["cycle"]["vertices"]) == [0, 1, 2, 3]
        assert sorted(body["cycle"]["colors"]) == [1, 2]

    def test_incomplete_is_exit_4(self, capsys, monkeypatch):
        doc = coloring_doc(3, [(0, 1, 1), (1, 2, None)])
        code, out, _ = self.verify(capsys, monkeypatch, doc)
        body = json.loads(out)
        assert code == 4 and body["status"] == "incomplete"
        assert body["colored"] == 1 and body["edges"] == 2

    def test_improper_outranks_cycle(self, capsys, monkeypatch):
        # square is bichromatic AND the pendant edge repeats a color at 0
        doc = coloring_doc(
            3,
            [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (0, 4, 1)],
        )
        code, _, _ = self.verify(capsys, monkeypatch, doc, fmt="plain")
        assert code == 2

    def test_cycle_outranks_incomplete(self, capsys, monkeypatch):
        doc = coloring_doc(
            3,
            [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (3, 4, None)],
        )
        code, out, _ = self.verify(capsys, monkeypatch, doc, fmt="plain")
        assert code == 3 and out == "cycle\n"

    def test_plain_success_word(self, capsys, monkeypatch):
        doc = coloring_doc(3, [(0, 1, 1), (1, 2, 2)])
        code, out, _ = self.verify(capsys, monkeypatch, doc, fmt="plain")
        assert code == 0 and out == "acyclic\n"

    def test_not_json_is_usage_error(self, capsys, monkeypatch):
        code, _, err = self.verify(capsys, monkeypatch, "not json at all")
        assert code == 1 and "not JSON" in err

    @pytest.mark.parametrize(
        "doc", ["[" * 100_000, '{"k": ' * 100_000], ids=["arrays", "objects"]
    )
    def test_deep_nesting_is_usage_error(self, capsys, monkeypatch, doc):
        code, out, err = self.verify(capsys, monkeypatch, doc)
        assert code == 1 and out == ""
        assert "nested too deeply" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_missing_key_is_usage_error(self, capsys, monkeypatch):
        code, _, err = self.verify(capsys, monkeypatch, json.dumps({"edges": []}))
        assert code == 1 and "malformed" in err

    @pytest.mark.parametrize(
        "doc, key",
        [({"edges": []}, "'k'"), ({"k": 3, "edges": [{"u": 0, "v": 1}]}, "'color'")],
        ids=["k", "color"],
    )
    def test_missing_key_is_named(self, capsys, monkeypatch, doc, key):
        code, out, err = self.verify(capsys, monkeypatch, json.dumps(doc))
        assert code == 1 and out == ""
        assert err == f"aecolor: malformed coloring document: missing key {key}\n"

    @pytest.mark.parametrize(
        "doc",
        [
            # a bool and a float that int() would read as the edge (1, 2)
            '{"k": 3, "edges": [{"u": true, "v": 2.7, "color": 1}]}',
            # int(inf) raises OverflowError
            '{"k": 1e400, "edges": [{"u": 0, "v": 1, "color": 1}]}',
            '{"k": 3, "edges": [{"u": 0, "v": 1, "color": "1"}]}',
        ],
        ids=["bool-and-float-ids", "float-k", "string-color"],
    )
    def test_non_integer_field_is_usage_error(self, capsys, monkeypatch, doc):
        code, out, err = self.verify(capsys, monkeypatch, doc)
        assert code == 1 and out == ""
        assert "malformed" in err and "Traceback" not in err

    def test_huge_palette_claim(self, capsys, monkeypatch):
        # memory follows the edges, not the palette size the document
        # claims nor the size of the color values it uses
        doc = coloring_doc(
            10_000_000_000, [(0, 1, 1), (1, 2, 2), (2, 3, 9_999_999_999)]
        )
        tracemalloc.start()
        try:
            code, out, err = self.verify(capsys, monkeypatch, doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(out)
        assert code == 0 and report["status"] == "acyclic"
        assert report["max_color"] == 9_999_999_999
        assert "Traceback" not in err
        assert peak < 20 * 2**20

    def test_huge_vertex_id(self, capsys, monkeypatch):
        # memory follows the edges, not the largest vertex id either
        doc = coloring_doc(1, [(0, 10**9, 1)])
        tracemalloc.start()
        try:
            code, out, err = self.verify(capsys, monkeypatch, doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["status"] == "acyclic"
        assert "Traceback" not in err
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("top", [MAX_VERTICES, 10**9])
    def test_rebuild_ranks_an_id_past_the_vertex_limit(self, top):
        # `coloring_from_json` builds on the ranks of the ids, as `verify`
        # does, so the largest id costs no row per id up to it
        doc = json.loads(coloring_doc(1, [(0, top, 1)]))
        tracemalloc.start()
        try:
            g, phi = coloring_from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m, phi.items(), phi.violations) == (2, 1, [((0, 1), 1)], [])
        assert peak < 2**20

    def test_rebuild_peaks_under_260_bytes_per_edge(self, apollonian_10k):
        # the graph and the coloring take about 227 B per edge together
        # (Python 3.11), against 286 while the coloring also kept an
        # edge -> color dict; the load may add no list of its own to that peak
        g, phi, text = apollonian_10k
        doc = json.loads(text)
        tracemalloc.start()
        try:
            g2, phi2 = coloring_from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g2 == g and phi2.items() == phi.items()
        assert peak / g.m < 260

    def test_verify_peaks_under_520_bytes_per_edge(self, apollonian_10k):
        # verify frees the parsed document once the rows are read, so the
        # graph and the coloring reuse that memory, and its row pass keeps
        # the ids, not an edge set: about 470 B per edge with the document
        # text (Python 3.11), against 510-530 while the coloring also kept
        # an edge -> color dict, 595 when the row pass filed every edge in
        # a set and 1030 when the document lived to the end
        g, _, text = apollonian_10k
        tracemalloc.start()
        try:
            code, out, err = verify_outcome(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "") and json.loads(out)["status"] == "acyclic"
        assert peak / g.m < 520

    def test_sparse_ids_reported_as_given(self, capsys, monkeypatch):
        # the alternating square and its pendant edge on ids x 1000: the
        # witness is the one of the dense document, in the document's ids
        rows = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (2, 4, 3)]
        _, dense, _ = self.verify(capsys, monkeypatch, coloring_doc(3, rows))
        sparse_doc = coloring_doc(3, [(1000 * u, 1000 * v, c) for u, v, c in rows])
        code, out, _ = self.verify(capsys, monkeypatch, sparse_doc)
        cycle = json.loads(out)["cycle"]
        assert code == 3
        assert cycle["vertices"] == [1000 * x for x in json.loads(dense)["cycle"]["vertices"]]
        assert cycle["vertices"] == [0, 1000, 2000, 3000] and cycle["colors"] == [1, 2]

    def test_sparse_ids_in_violations(self, capsys, monkeypatch):
        doc = coloring_doc(3, [(5000, 7, 1), (7, 90, 1)])
        code, out, _ = self.verify(capsys, monkeypatch, doc)
        assert code == 2
        assert json.loads(out)["violations"] == [{"u": 7, "v": 90, "color": 1}]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(-1, 2, 1)], "negative vertex id"),
            ([(500, 500, 1)], "self-loop at vertex 500"),
            ([(0, 900, 1), (900, 0, 2)], "duplicate edge (900,0)"),
        ],
        ids=["negative", "self-loop", "duplicate"],
    )
    def test_unbuildable_edge_is_usage_error(self, capsys, monkeypatch, rows, message):
        code, out, err = self.verify(capsys, monkeypatch, coloring_doc(3, rows))
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err


class TestChiA:
    @pytest.mark.parametrize(
        "graph, extra, expected",
        [
            (lambda: complete_graph(4), [], "5\n"),
            # m = 1194: one search level per edge, far past the recursion limit
            (lambda: generate_apollonian(400, seed=1)[0], ["--budget", "50000"], "52\n"),
        ],
        ids=["k4", "apollonian400"],
    )
    def test_exact_value_k4(self, capsys, tmp_path, graph, extra, expected):
        path = write_graph(tmp_path, graph())
        code, out, err = run(capsys, ["chi-a", "--in", path, *extra])
        assert code == 0 and out == expected
        assert "Traceback" not in err

    def test_decision_false(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["chi-a", "--in", path, "--k", "4"])
        assert code == 0 and out == "false\n"

    def test_decision_true(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["chi-a", "--in", path, "--k", "5"])
        assert code == 0 and out == "true\n"

    def test_tiny_budget_exhausts(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["chi-a", "--in", path, "--budget", "1"])
        assert code == 6 and out == "exhausted\n"

    def test_tiny_budget_exhausts_the_decision(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["chi-a", "--in", path, "--k", "4", "--budget", "1"])
        assert code == 6 and out == "exhausted\n"


class TestFindConfig:
    def test_json(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["find-config", "--in", path])
        body = json.loads(out)
        assert code == 0
        assert body["schema"] == "aecolor/1"
        assert body["kind"] == "A2" and body["v"] == 0
        assert [n["d"] for n in body["neighbors"]] == [3, 3, 3]

    def test_plain(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(5))
        code, out, _ = run(capsys, ["find-config", "--in", path, "--format", "plain"])
        assert code == 0 and out.startswith("A1 v=0")

    def test_k7_exit_5(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(7))
        code, _, err = run(capsys, ["find-config", "--in", path])
        assert code == 5 and "not planar" in err

    def test_null_graph_is_usage_error(self, capsys, monkeypatch):
        # no vertex means no configuration, but the null graph is planar
        code, out, err = run(capsys, ["find-config"], stdin="0 0\n", monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert "no vertices" in err and "not planar" not in err


class TestAudit:
    def gen_files(self, capsys, tmp_path, argv_kind):
        gpath = tmp_path / "g.txt"
        rpath = tmp_path / "rot.txt"
        code, _, _ = run(
            capsys,
            ["gen", *argv_kind, "--out", str(gpath), "--rot-out", str(rpath)],
        )
        assert code == 0
        return str(gpath), str(rpath)

    def test_tetrahedron_config_outcome(self, capsys, tmp_path):
        gp, rp = self.gen_files(capsys, tmp_path, ["--platonic", "tetrahedron"])
        code, out, _ = run(capsys, ["audit", "--in", gp, "--rot", rp])
        body = json.loads(out)
        assert code == 0
        assert body["schema"] == "aecolor/1"
        assert body["outcome"] == "config" and body["total"] == "-12"

    def test_apollonian_plain(self, capsys, tmp_path):
        gp, rp = self.gen_files(capsys, tmp_path, ["--apollonian", "30", "--seed", "1"])
        code, out, _ = run(capsys, ["audit", "--in", gp, "--rot", rp, "--format", "plain"])
        assert code == 0 and out.startswith("config A")

    def test_cube_is_not_a_triangulation(self, capsys, tmp_path):
        gp, rp = self.gen_files(capsys, tmp_path, ["--platonic", "cube"])
        code, _, err = run(capsys, ["audit", "--in", gp, "--rot", rp])
        assert code == 1 and "triangulation" in err


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1 and "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, ["color", "--nope"])
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["color", "--in", "/nonexistent/file.txt"])
        assert code == 1

    @pytest.mark.parametrize(
        "error, code",
        [
            (ExtensionFailed("exhaustive recoloring ran out of budget at edge (0, 1)"), 6),
            (AecolorError("an error of the package's own"), 1),
        ],
        ids=["extension-failed", "aecolor-error"],
    )
    def test_package_errors_are_one_line(self, capsys, monkeypatch, tmp_path, error, code):
        # no known input reaches these two branches of main, so the colorer
        # is patched to raise
        def failing(g):
            raise error

        monkeypatch.setattr("aecolor.colorer.acolor", failing)
        path = write_graph(tmp_path, cycle_graph(3))
        got, out, err = run(capsys, ["color", "--in", path])
        assert got == code and out == ""
        assert err == f"aecolor: {error}\n"

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_resource_exhaustion_is_one_line(self, capsys, monkeypatch, tmp_path, error):
        def exhausted(text):
            raise error()

        monkeypatch.setattr("aecolor.cli.parse_edge_list", exhausted)
        path = write_graph(tmp_path, cycle_graph(3))
        code, out, err = run(capsys, ["color", "--in", path])
        assert code == 1 and out == ""
        assert err.startswith("aecolor: ") and error.__name__ in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_import_loads_no_numeric_stack(self):
        # every CLI call pays the package import, so it stays stdlib-only
        probe = "import sys, aecolor; print(sorted({'numpy', 'numba'} & set(sys.modules)))"
        res = python(probe, check=True)
        assert res.stdout == "[]\n"

    # the aecolor modules each call imports, beyond the package itself
    # and what every subcommand needs
    COMMON = {"aecolor", "aecolor.cli", "aecolor.errors", "aecolor.graphs"}

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["verify", "--in", "doc.json"], {"coloring"}),
            (["color", "--in", "k4.txt"], {"colorer", "coloring", "scanner"}),
            (["gen", "--apollonian", "20"], {"embedding"}),
            (["gen", "--platonic", "cube"], {"embedding", "families"}),
            (["chi-a", "--in", "k4.txt", "--k", "4"], {"coloring", "oracle"}),
            (["find-config", "--in", "k4.txt"], {"scanner"}),
            (["audit", "--in", "g.txt", "--rot", "g.rot"], {"discharge", "embedding", "scanner"}),
        ],
        ids=["verify", "color", "gen-apollonian", "gen-platonic", "chi-a", "find-config", "audit"],
    )
    def test_subcommand_imports_only_what_it_runs(self, tmp_path, argv, extra):
        g, rot = generate_apollonian(12, 0)
        (tmp_path / "g.txt").write_text(format_edge_list(g))
        (tmp_path / "g.rot").write_text(format_rotation(rot))
        (tmp_path / "k4.txt").write_text(format_edge_list(complete_graph(4)))
        (tmp_path / "doc.json").write_text(coloring_doc(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)]))
        probe = (
            "import contextlib, io, sys\n"
            "from aecolor.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(code, {LOADED})"
        )
        res = python(probe, *argv, cwd=tmp_path, check=True)
        code, *loaded = res.stdout.split()
        assert code == "0"
        assert set(loaded) == self.COMMON | {f"aecolor.{m}" for m in extra}

    def test_verify_loads_no_dataclasses(self, tmp_path):
        # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, so the
        # records `verify`, `color` and `gen` build are NamedTuples or
        # slotted classes
        (tmp_path / "doc.json").write_text(coloring_doc(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)]))
        (tmp_path / "g.txt").write_text(format_edge_list(generate_apollonian(12, 0)[0]))
        probe = (
            "import contextlib, io, sys\n"
            "from aecolor.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        for argv in (
            ["verify", "--in", "doc.json"],
            ["color", "--in", "g.txt", "--trace", "trace.json"],
            ["gen", "--apollonian", "50", "--out", "g50.txt"],
        ):
            res = python(probe, *argv, cwd=tmp_path, check=True)
            assert res.stdout == "0 []\n", argv
        # nor do the oracle's budget and the auditor's records
        probe = (
            "import sys, aecolor.oracle, aecolor.discharge\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        assert python(probe, check=True).stdout == "[]\n"

    def test_gen_and_color_load_no_json(self, tmp_path):
        # `color` writes its documents itself; only reading or dumping other
        # documents imports `json`
        (tmp_path / "g.txt").write_text(format_edge_list(generate_apollonian(12, 0)[0]))
        probe = (
            "import contextlib, io, sys\n"
            "from aecolor.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, 'json' in sys.modules)"
        )
        for argv in (
            ["color", "--in", "g.txt", "--out", "doc.json", "--trace", "trace.json"],
            ["color", "--in", "g.txt", "--format", "plain"],
            ["gen", "--apollonian", "50", "--out", "g50.txt"],
        ):
            res = python(probe, *argv, cwd=tmp_path, check=True)
            assert res.stdout == "0 False\n", argv
        res = python(probe, "verify", "--in", "doc.json", cwd=tmp_path, check=True)
        assert res.stdout == "0 True\n"

    def test_bare_import_loads_no_submodule(self):
        res = python(f"import sys, aecolor; print({LOADED})", check=True)
        assert res.stdout == "aecolor\n"

    def test_lazy_names_are_the_home_modules_objects(self):
        for name in aecolor.__all__:
            obj = getattr(aecolor, name)
            assert obj is getattr(importlib.import_module(obj.__module__), name)
            assert obj.__module__ == f"aecolor.{aecolor._HOME[name]}"
            assert vars(aecolor)[name] is obj  # resolved once, then cached
        star: dict = {}
        exec("from aecolor import *", star)
        assert set(star) - {"__builtins__"} == set(aecolor.__all__)
        assert set(aecolor.__all__) <= set(dir(aecolor))
        with pytest.raises(AttributeError, match="no_such_name"):
            aecolor.no_such_name
        with pytest.raises(ImportError):
            exec("from aecolor import no_such_name", {})

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("aecolor ")


class TestPipeline:
    def test_gen_color_verify_roundtrip(self, capsys, tmp_path, monkeypatch):
        gp = tmp_path / "g.txt"
        assert run(capsys, ["gen", "--apollonian", "40", "--seed", "5", "--out", str(gp)])[0] == 0
        code, colored, _ = run(capsys, ["color", "--in", str(gp)])
        assert code == 0
        code, out, _ = run(
            capsys,
            ["verify", "--in", "-"],
            stdin=colored,
            monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["status"] == "acyclic"


def load_outcome(load, doc):
    """What a document loader makes of doc: the graph, its adjacency, the
    colors and violations in order; or the error it raises."""
    try:
        g, phi = load(doc)
    except (_UsageError, ValueError) as exc:
        return type(exc), str(exc)
    return g, [g.neighbors(x) for x in g.vertices()], phi.k, phi.items(), phi.violations


class TestLoadEquivalence:
    """The one-pass load of a coloring document agrees with the reference
    path in tests/support.py: rows, graph and coloring built step by step."""

    @given(coloring_documents())
    @settings(max_examples=300, deadline=None)
    def test_coloring_from_json_matches_reference(self, doc):
        got = load_outcome(coloring_from_json, doc)
        assert got == load_outcome(reference_coloring_from_json, doc)

    @given(coloring_documents())
    @settings(max_examples=300, deadline=None)
    def test_verify_matches_reference(self, doc):
        assert verify_outcome(json.dumps(doc)) == reference_verify(doc)


def raw_doc(k, rows):
    """A document whose rows are given as JSON text, so they may be malformed."""
    return '{"schema": "aecolor/1", "k": %s, "edges": [%s]}' % (k, ", ".join(rows))


class TestDefectPrecedence:
    """Which defect a document with two reports: `verify` and
    `coloring_from_json` share one loader and name the same one.  Every
    field is type-checked before any row is built, and the graph is built
    before any color is read."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                raw_doc("3", ['{"u": 0, "v": 1, "color": 1}', '{"u": 1, "v": 0, "color": 2}',
                              '{"u": 2, "v": 3, "color": 1}', '{"u": true, "v": 4, "color": 2}']),
                "malformed coloring document: u must be an integer, got bool",
            ),
            (
                raw_doc("3", ['{"u": 0, "v": 1, "color": 1}', '{"u": 1, "v": 0, "color": 2}',
                              '{"u": 1, "v": 2, "color": 7}']),
                "duplicate edge (1,0)",
            ),
            (
                raw_doc("3", ['{"u": 1, "v": 2, "color": 7}', '{"u": 0, "v": 1, "color": 1}',
                              '{"u": 1, "v": 0, "color": 2}']),
                "duplicate edge (1,0)",
            ),
            (
                raw_doc("3", ['{"u": 0, "v": 1, "color": 1}', '{"u": 2, "v": 2, "color": 2}',
                              '{"u": 1, "v": 3}']),
                "malformed coloring document: missing key 'color'",
            ),
            (
                raw_doc("3", ['{"u": -1, "v": 1, "color": 1}', '{"u": 1, "v": 2, "color": 2.0}']),
                "malformed coloring document: color must be an integer, got float",
            ),
            (
                raw_doc('"3"', ['{"u": 0, "v": 0, "color": 9}']),
                "malformed coloring document: k must be an integer, got str",
            ),
            (
                coloring_doc(3, [(0, 1, 1), (-1, 2, 2), (1, 0, 3)]),
                "edge (-1,2) has a negative vertex id",
            ),
            (
                coloring_doc(3, [(0, 1, 1), (1, 0, 3), (-1, 2, 2)]),
                "duplicate edge (1,0)",
            ),
            (
                coloring_doc(3, [(-3, -2, 1)]),
                "edge (-3,-2) has a negative vertex id",
            ),
            (
                coloring_doc(3, [(0, 1, 1), (1, 0, 2), (5, 10**7, 1)]),
                "duplicate edge (1,0)",
            ),
            (
                coloring_doc(3, [(0, 1, 1), (4, 4, 1), (1, 0, 2)]),
                "self-loop at vertex 4",
            ),
            (
                coloring_doc(-1, [(0, 1, 1), (1, 2, 1)]),
                "palette size must be nonnegative, got -1",
            ),
            (
                coloring_doc(3, [(0, 1, 1), (1, 2, 1), (2, 3, 4)]),
                "color 4 outside palette [1..3]",
            ),
            (
                raw_doc("3", ['{"u": 0, "v": 1, "color": 1}', '{"u": 1, "v": "2", "color": 9}',
                              '{"u": 1, "v": 0, "color": 1}']),
                "malformed coloring document: v must be an integer, got str",
            ),
            # a field of the wrong shape raises TypeError while the rows
            # are read, and is refused as malformed before any row is built
            (
                '{"schema": "aecolor/1", "k": 3, "edges": 5}',
                "malformed coloring document: 'int' object is not iterable",
            ),
            (
                raw_doc("3", ['{"u": 0, "v": 1, "color": 1}', "[1, 2, 1]",
                              '{"u": 2, "v": 2, "color": 9}']),
                "malformed coloring document: list indices must be integers or slices, not str",
            ),
            # the loader ranks sparse ids and keeps dense ids as they are,
            # and names a row its graph refuses in the document's own ids
            (
                coloring_doc(3, [(0, 1000, 1), (1000, 2000, 2), (2000, 1000, 3)]),
                "duplicate edge (2000,1000)",
            ),
            (
                coloring_doc(3, [(0, 1000, 1), (-5, 1000, 2), (7000, 7000, 1)]),
                "edge (-5,1000) has a negative vertex id",
            ),
            (
                coloring_doc(3, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (2, 1, 3)]),
                "duplicate edge (2,1)",
            ),
        ],
        ids=[
            "late-bool-u-early-duplicate",
            "duplicate-and-palette",
            "palette-then-duplicate",
            "self-loop-then-missing-color",
            "negative-id-and-float-color",
            "string-k",
            "negative-then-duplicate",
            "duplicate-then-negative",
            "all-ids-negative",
            "duplicate-then-id-past-limit",
            "self-loop-then-duplicate",
            "negative-k-and-clash",
            "clash-then-palette",
            "string-v-then-duplicate",
            "edges-not-a-list",
            "list-row-then-self-loop",
            "sparse-reversed-duplicate",
            "negative-then-sparse-self-loop",
            "dense-late-duplicate",
        ],
    )
    def test_first_defect_wins(self, text, message):
        code, out, err = verify_outcome(text)
        assert (code, out, err) == (1, "", f"aecolor: {message}\n")
        with pytest.raises((_UsageError, ValueError)) as exc:
            coloring_from_json(json.loads(text))
        malformed = message.startswith("malformed coloring document")
        assert type(exc.value) is (_UsageError if malformed else ValueError)
        assert str(exc.value) == message
