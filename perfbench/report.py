#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all metrics in one report.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each run is a separate ``run.py`` process, started one after another.  The
report prints every end-to-end metric by name and unit for all three
workloads, each traced run's FLOP-vs-time ledger, the tracing overhead, and
one derived line: the dsc-jscc-100/baseline ratio of train step time next to
the ratio of their FLOPs.  That line is informational; nothing gates on it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-dense", "train-separable", "eval-sweep")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with status {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def flop_ratio() -> tuple[float, float]:
    """dsc-jscc-100 over baseline total MACs, at the benchmark's 32x32 input and the paper's 256x256."""
    from workloads import CHANNEL_COUNT, INPUT_SHAPE, load_library
    lib = load_library(HERE.parent)
    v = lib.model.VariantId

    def ratio(shape):
        return (lib.complexity.model_complexity(v.R100, shape, CHANNEL_COUNT).total_flops
                / lib.complexity.model_complexity(v.BASELINE, shape, CHANNEL_COUNT).total_flops)

    return ratio(INPUT_SHAPE), ratio((256, 256, 3))


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)

    plain, traced, raw = {}, {}, {}
    for w in WORKLOADS:
        lines, plain[w] = run_one(w, args.seed, args.seconds, 0)
        raw[w] = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("timings "))
        traced[w] = run_one(w, args.seed, args.seconds, 1)

    print(f"end-to-end metrics, seed {args.seed}, {args.seconds:g} s per run")
    print(f"{'metric':<27}{'unit':<7}" + "".join(f"{w:>17}" for w in WORKLOADS))
    for name, m in plain[WORKLOADS[0]]["metrics"].items():
        print(f"{name:<27}{m['unit']:<7}" + "".join(f"{plain[w]['metrics'][name]['value']:>17.6g}" for w in WORKLOADS))
    print(f"{'failed_share':<27}{'ratio':<7}" + "".join(
        f"{plain[w]['failed'] / plain[w]['attempted']:>17.6g}" for w in WORKLOADS))
    for w in WORKLOADS:
        lines, result = traced[w]
        print()
        print("\n".join(line for line in lines if not line.startswith(("env ", "  "))))
        print(f"traced run correct: {result['correct']} ({result['failed']} of {result['attempted']} failed)")

    step = {w: raw[w]["program"]["train_step_ms_p50"] for w in ("train-dense", "train-separable")}
    small, paper = flop_ratio()
    print()
    print(f"dsc-jscc-100 / baseline: train step time ratio {step['train-separable'] / step['train-dense']:.3f} "
          f"({step['train-separable']:.1f} / {step['train-dense']:.1f} ms, untraced p50) "
          f"vs FLOP ratio {small:.3f} at 32x32 ({paper:.3f} at 256x256)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
