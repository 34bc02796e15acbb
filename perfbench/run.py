#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 30 --trace 0

Workloads: train-dense, train-separable, eval-sweep (see perfbench/README.md).
With --trace 0 the result holds the end-to-end metrics, whose timings are
ratios to the frozen reference copy in perfbench/reference, run interleaved in
the same process; the raw times of both are printed on the "timings" line.
With --trace 1 the result holds the per-layer metrics of a traced run of the
library alone, and the FLOP-vs-time ledger is printed above it.  The last
line is one JSON object with the keys correct, attempted, failed and metrics.
Earlier lines are for people: the environment, sample counts and a metric
table.  Scratch files (checkpoints, span dumps, the
per-seed quality record) go to .perfbench/ at the checkout root.

Exits with status 2, printing no result, when the checkout holds no
src/dscjscc to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train-dense", "train-separable", "eval-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS to one thread, at most nproc anywhere; must run before numpy is imported.

    The GEMMs here are small (batch 32 at 32x32, batch 1 in sweeps).  On a
    2-core machine one thread gave faster train steps than two (p50 281 vs
    320 ms on dsc-jscc-100) and steadier set-up and sweep times across runs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def pin_cpu() -> int | None:
    """Pin the process to one CPU, the last it may use; returns it, or None where unsupported.

    The untraced run's two library copies take turns in two threads (see
    workloads.Duet).  On one CPU a turn resumes with warm caches; left free
    to migrate, each turn started on the other CPU and ran up to 70 % slower.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    cpu = pin_cpu()
    import ledger
    import workloads

    try:
        lib = workloads.load_library(ROOT)
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    env = workloads.environment(args.workload, args.seed, args.seconds, bool(args.trace), threads, cpu)
    print("env " + json.dumps(env, sort_keys=True))

    checks = workloads.Checks()
    run = workloads.Run(lib, args.workload, args.seed, bool(args.trace), work_dir, checks)
    run.warm_up()  # before the reference is imported, so peak_rss_mb is the library's alone
    reference = None
    if not args.trace:
        reference = workloads.Run(workloads.load_reference(), args.workload, args.seed, False, work_dir, checks)
    run.execute(args.seconds, reference)
    try:
        quality = run.quality()
        run.check_repeatable(workloads.source_digest(ROOT), args.seed, quality)
        if args.trace:
            flops = ledger.layer_flops(run)
            metrics = ledger.per_layer(run, flops)
            print(ledger.format_ledger(run, flops, metrics))
            spans = work_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            run.tracer.write(spans)
            print(f"spans: {len(run.tracer.spans)} written to {spans.relative_to(ROOT)}")
        else:
            metrics = run.end_to_end(quality, reference)
            print("timings " + json.dumps({"program": run.timings(), "reference": reference.timings()}))
    except workloads.NoResult as e:  # every operation of a kind failed: nothing to report
        print(f"error: {e}", file=sys.stderr)
        return 1
    checks = run.checks
    print("samples " + json.dumps(run.samples(), sort_keys=True))
    print(f"failed_share {checks.failed / checks.attempted:.6g} ({checks.failed} of {checks.attempted} "
          f"operations and output checks)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
