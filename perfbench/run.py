"""Layered pipeline benchmark for aecolor: one workload, one seed, one run.

    python3 perfbench/run.py --workload stacked --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.
Workloads: stacked, hubs, cli, certify (see perfbench/README.md).
Timings are scaled to a nominal machine speed (see speed.py).

The run starts SETUP_PROBES set-up-only workers and then one worker that
sets up and runs the closed loop; `setup_s` is the median set-up time of
all of them.  With `--trace 0` the last line of output is a JSON object
with every end-to-end metric; with `--trace 1` the loop runs the traced
drivers instead and the object holds the per-layer metrics.  The lines
before it give the machine facts, the workload-specific figures and,
when traced, each layer's share of the loop's time.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
WORKER_TIMEOUT = 170

# name -> unit; every workload reports all of these
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "edges_per_s": "edges/s",
    "color_s_p50": "s",
    "verify_s_p50": "s",
    "replay_s_p50": "s",
    "pipe_s_p50": "s",
}

# span name -> per-layer metric `<name>_s`, self seconds per operation
LAYER_SPANS = (
    "colorer.choose",
    "graphs.remove_edge",
    "colorer.context",
    "colorer.extend",
    "colorer.extend_T1",
    "colorer.extend_T2",
    "colorer.extend_T3",
    "colorer.extend_T4",
    "colorer.replay",
    "coloring.validate",
    "graphs.parse",
    "graphs.format",
    "cli.serialize",
    "cli.load_doc",
    "cli.gen",
    "cli.color",
    "cli.verify",
    "oracle.chi_a",
    "oracle.decide",
    "embedding.trace_faces",
    "discharge.initial_charges",
    "discharge.apply",
    "scanner.find_configuration",
)
# counter -> per-layer metric of the same name, calls per operation
LAYER_CALLS = (
    "colorer.choose_calls",
    "graphs.remove_edge_calls",
    "colorer.tier_T1",
    "colorer.tier_T2",
    "colorer.tier_T3",
    "colorer.tier_T4",
)


def tail(xs: list[float]):
    """(percentile, value, samples) for the highest of a fixed ladder of
    percentiles with at least ten samples beyond it, or None."""
    xs = sorted(xs)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, xs[math.ceil(p / 100 * len(xs)) - 1], len(xs)
    return None


def p50(by_class: dict[str, list[float]]) -> float:
    """Geometric mean over input classes of each class's median, so a
    workload's figure does not depend on how many operations of each class
    fitted into the run."""
    medians = [statistics.median(xs) for xs in by_class.values() if xs]
    return statistics.geometric_mean(medians) if medians else 0.0


def end_to_end(raw: dict, setups: list[float]) -> dict[str, float]:
    s = raw["samples"]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(raw["peak_rss_kb"], raw["peak_rss_children_kb"]) / 1024,
        "ok_frac": 1 - raw["failed"] / raw["attempted"],
        "edges_per_s": statistics.geometric_mean(
            [statistics.mean(m) / statistics.median(s["color"][label]) for label, m in raw["edges"].items()]
        ),
        "color_s_p50": p50(s.get("color", {})),
        "verify_s_p50": p50(s.get("verify", {})),
        "replay_s_p50": p50(s.get("replay", {})),
        "pipe_s_p50": p50(s.get("pipe", {})),
    }


def per_layer(raw: dict) -> dict[str, tuple[float, str]]:
    ops = raw["attempted"]
    layers, counts = raw["layers"], raw["counts"]
    out = {f"{name}_s": (layers.get(name, 0.0) / ops, "s/op") for name in LAYER_SPANS}
    out.update({name: (counts.get(name, 0) / ops, "calls/op") for name in LAYER_CALLS})
    validations = counts.get("coloring.validations", 0) or 1
    docs = counts.get("cli.docs", 0) or 1
    ref = raw["reference_color_time"]
    out.update(
        {
            "coloring.color_pairs": (counts.get("coloring.color_pairs", 0) / validations, "pairs"),
            "coloring.table_bytes": (counts.get("coloring.table_bytes", 0) / validations, "B"),
            "cli.doc_bytes": (counts.get("cli.doc_bytes", 0) / docs, "B"),
            "cli.startup_s": (raw["startup_s"], "s"),
            "oracle.exhausted": (counts.get("oracle.exhausted", 0), "count"),
            "embedding.generate_s": (raw["setup_generate_s"], "s"),
            "trace.overhead_ratio": (raw["traced_color_time"] / ref if ref else 0.0, "ratio"),
        }
    )
    return out


def report_lines(raw: dict, trace: int) -> list[str]:
    """Human-readable lines printed before the result object."""
    lines = [
        "facts " + json.dumps({**raw["facts"], "commit": raw["commit"], "workload": raw["workload"], "seed": raw["seed"]}),
        f"run ops={raw['attempted']} failed={raw['failed']} "
        f"loop_s={raw['loop_s']:.2f} setup_s={raw['setup_s']:.3f}",
    ]
    lines += [f"failure {f}" for f in raw["failures"]]
    probes = raw["speed_probes"]
    lines.append(
        f"speed probe median={statistics.median(probes):.6f} s min={min(probes):.6f} "
        f"max={max(probes):.6f} n={len(probes)}; stage times below are scaled, wall= is unscaled"
    )
    for stage, by_class in raw["samples"].items():
        xs = [x for v in by_class.values() for x in v]
        t = tail(xs)
        tail_txt = f"p{t[0]:g}={t[1]:.6f} s" if t else "tail n/a (<20 samples)"
        wall = p50(raw["wall_samples"][stage])
        lines.append(f"stage {stage}_s p50={p50(by_class):.6f} s {tail_txt} samples={len(xs)} wall={wall:.6f} s")
        if len(by_class) <= 4:
            lines += [
                f"  class {label} p50={statistics.median(v):.6f} s samples={len(v)}"
                for label, v in by_class.items()
            ]
    if trace:
        layers = {k: v for k, v in raw["layers"].items() if "_T" not in k and not k.startswith("trace.")}
        total = sum(layers.values())
        for name, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"layer {name:28s} {secs:9.3f} s {100 * secs / total:5.1f}%")
        lines.append(f"spans {raw['spans_file']}")
    return lines


def commit(root: Path) -> str:
    # only a checkout that is itself a git work tree has a commit to report
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker(root: Path, args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("stacked", "hubs", "cli", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "aecolor" / "__init__.py").is_file():
        print(f"perfbench: no aecolor package under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [worker(root, [*common, "--setup-only"])["setup_s"] for _ in range(probes)]
        raw = worker(root, [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(raw["setup_s"])
    raw["commit"] = commit(root)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(raw).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(raw, setups).items()}
    lines = report_lines(raw, args.trace)
    lines += [f"metric {k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"seconds": args.seconds, "trace": args.trace, "setup_samples": setups, "result": result, "worker": raw}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
