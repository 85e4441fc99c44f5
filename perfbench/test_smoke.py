"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is produced with its unit,
that a wrong coloring is counted as a failed operation, that the traced
drivers reproduce the library, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {
    "stacked": (20, 30, 40),
    "hubs": (("star", 12), ("wheel", 10), ("star", 16)),
    "cli": (8, 12, 16),
    "certify_grids": ((2, 3), (3, 3)),
    "certify_apollonian": (8,),
    "certify_audit": 40,
}


@pytest.fixture(autouse=True)
def toy_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TOY)


def one_round(workload: str, trace: int) -> dict:
    return worker.measure(workload, 3, 0, trace, ROOT)


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_with_its_unit(workload):
    raw = one_round(workload, 0)
    assert raw["failed"] == 0, raw["failures"]
    metrics = run.end_to_end(raw, [raw["setup_s"]])
    assert {n: run.END_TO_END[n] for n in metrics} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload):
    raw = one_round(workload, 1)
    assert raw["failed"] == 0, raw["failures"]
    got = {name: unit for name, (_value, unit) in run.per_layer(raw).items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_wrong_coloring_counts_as_failed(monkeypatch):
    real = workloads.acolor

    def uncolor_one_edge(g):
        phi, trace = real(g)
        (u, v), _c = phi.items()[0]
        phi.unassign(u, v)
        return phi, trace

    monkeypatch.setattr(workloads, "acolor", uncolor_one_edge)
    raw = one_round("stacked", 0)
    assert raw["failed"] == raw["attempted"] == len(TOY["stacked"])
    assert "incomplete" in raw["failures"][0]
    assert run.end_to_end(raw, [raw["setup_s"]])["ok_frac"] == 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    p, value, n = run.tail([float(i) for i in range(1, 101)])
    assert (p, value, n) == (90, 90.0, 100)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "stacked", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
