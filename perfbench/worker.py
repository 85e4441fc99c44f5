"""One worker process: set up a workload's inputs, then run its closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

Run from the repository root.  Prints one JSON object (raw samples,
counts, peak memory and machine facts) as its last line; `run.py` turns it
into metrics.  Set-up is timed from before `import aecolor` to the end of
input generation.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
STARTUP_PROBES = 3


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def machine_facts() -> dict:
    import numpy

    from aecolor import accel

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numba_enabled": accel.NUMBA_ENABLED,
    }


def startup_s(root: Path) -> float:
    """Median wall time of a fresh interpreter doing a bare `import aecolor`."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import aecolor"], cwd=root, env=child_env(root), check=True
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds, trace: int, root: Path, started=None) -> dict:
    """Set up, then run operations until `seconds` have passed and every
    input class has run at least once; with `seconds=None` stop after
    set-up.  `started` is when set-up began, before `import aecolor`."""
    import speed
    import tracing
    import workloads

    started = perf_counter() if started is None else started
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    workdir = HERE / "out" / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.make_ops(workload, seed, tracer, str(workdir))
    setup = perf_counter() - started
    setup_scaled = setup * speed.NOMINAL_S / speed.probe()
    if seconds is None:
        return {"setup_s": setup_scaled, "setup_wall_s": setup}

    run = workloads.Run(tracer, str(root), child_env(root))
    loop_t0 = perf_counter()
    classes = {label for _kind, label, *_rest in ops}
    seen: set[str] = set()
    i = 0
    while perf_counter() - loop_t0 < seconds or seen != classes:
        run.speed.maybe_mark()
        kind, label, fn, *op_args = ops[i % len(ops)]
        run.op(kind, label, fn, *op_args)
        seen.add(label)
        i += 1
    run.speed.mark()
    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_scaled,
        "setup_wall_s": setup,
        "loop_s": perf_counter() - loop_t0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "samples": run.timings(scaled=True),
        "wall_samples": run.timings(scaled=False),
        "speed_probes": run.speed.probes,
        "edges": run.edges,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "peak_rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "facts": machine_facts(),
    }
    if trace:
        out["layers"] = tracer.self_times(first_op=0)
        out["counts"] = dict(tracer.counts)
        out["setup_generate_s"] = sum(
            end - start
            for name, start, end, _parent, op, _tag in tracer.spans
            if op < 0 and name == "embedding.generate"
        )
        out["traced_color_time"] = run.traced_color_time
        out["reference_color_time"] = run.reference_color_time
        out["startup_s"] = startup_s(root)
        spans = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(root))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    started = perf_counter()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    seconds = None if args.setup_only else args.seconds
    print(json.dumps(measure(args.workload, args.seed, seconds, args.trace, root, started)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
