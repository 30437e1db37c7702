#!/usr/bin/env python3
"""Benchmark of circumlab: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fem-bubble --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (measured by wrapping circumlab's module-level names).  ``--quick``
shrinks every input for a smoke run of a few seconds.  The last line of
standard output is the result, one JSON object; the line before it
records the environment and the raw pass times.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("fem-bubble", "bound-sweep", "quotient-audit")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "op_us.p50": "us", "op_us.p99": "us",
}
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import circumlab.cli; "
                "print(time.perf_counter() - t)")

_perf = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="run timed passes for about this long, and at least three")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs and one timed pass, for a smoke test")
    return p.parse_args(argv)


def child_import_seconds() -> float:
    """Import time of circumlab in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circumlab" / "__init__.py").is_file():
        print(f"perfbench: no circumlab sources in {SRC}", file=sys.stderr)
        return 2
    # before numpy loads, so its BLAS starts with one thread unless the
    # caller set a count; the environment record shows what was in force
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    t0 = _perf()
    import circumlab.cli
    import_s = [_perf() - t0]
    if Path(circumlab.__file__).resolve().parent != SRC / "circumlab":
        print(f"perfbench: imported circumlab from {circumlab.__file__}",
              file=sys.stderr)
        return 2

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, circumlab, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            SCRATCH.rmdir()


def measure(args, cl, import_s: list[float], scratch: Path) -> int:
    import numpy as np
    import scipy

    from layers import EXACT_COUNTS, PER_LAYER, Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    elif not args.quick:
        import_s += [child_import_seconds() for _ in range(2)]

    workload = WORKLOADS[args.workload](cl, args.seed, args.quick, scratch)
    inputs_s = []
    for _ in range(1 if args.quick else 3):
        t0 = _perf()
        inputs = workload.make_inputs()
        inputs_s.append(_perf() - t0)
    # warm-up at quick size: it reaches the same lazy imports and first-use
    # code as a full pass, so setup_s measures them and not a pass's length
    warm = WORKLOADS[args.workload](cl, args.seed, True, scratch / "warm-up")
    t0 = _perf()
    warm.run_pass(warm.make_inputs(), [])
    warmup_s = _perf() - t0
    setup_s = statistics.median(import_s) + statistics.median(inputs_s) + warmup_s

    pass_s: list[float] = []
    op_times: list[float] = []
    layer_rows: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    min_passes = 1 if args.quick else 3
    start = _perf()
    # stop before a pass that would end past --seconds, so that a run's
    # length does not depend on where its last pass falls
    while len(pass_s) < min_passes or (
            _perf() - start + statistics.median(pass_s) <= args.seconds):
        gc.collect()
        if tracer:
            tracer.reset()
        t0 = _perf()
        out = workload.run_pass(inputs, op_times)
        pass_s.append(_perf() - t0)
        if tracer:
            layer_rows.append(tracer.layer_metrics())
        n_ops, n_failed, found = workload.check_pass(inputs, out)
        attempted += n_ops
        failed += n_failed
        problems += found
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    run_problems = workload.final_checks(inputs, out)
    if tracer:
        for name in EXACT_COUNTS:
            seen = {row[name] for row in layer_rows}
            if len(seen) > 1:
                run_problems.append(f"{name} differs between passes: {sorted(seen)}")

    if args.trace:
        metrics = {name: {"value": statistics.median(row[name] for row in layer_rows),
                          "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(pass_s),
            "peak_rss_mb": peak_rss_mb,
            "op_us.p50": 1e6 * float(np.percentile(op_times, 50)),
            "op_us.p99": 1e6 * float(np.percentile(op_times, 99)),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    for line in list(dict.fromkeys(problems + run_problems))[:50]:
        print(f"perfbench: {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "env": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "setup": {"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s},
        "pass_s": pass_s, "wall_s": statistics.median(pass_s),
        "op_samples": len(op_times), "run_problems": run_problems[:10],
    }
    print(json.dumps({"perfbench": record}))
    result = {"correct": not run_problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
