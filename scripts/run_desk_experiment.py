#!/usr/bin/env python3
"""Desk-scale experiment: write train.json and eval.json for one variant into --out, then run
them through `dscjscc train` and `dscjscc eval` (PSNR against SNR on held-out synthetic images)."""

import argparse
import json
import sys
import time
from pathlib import Path

from dscjscc import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", default="dsc-jscc-60-e2d2")
    for flag, default in (("--size", 32), ("--c", 8), ("--images", 64), ("--steps", 200), ("--seed", 0)):
        ap.add_argument(flag, type=int, default=default)
    ap.add_argument("--train-snr", type=float, default=10.0)
    ap.add_argument("--snr-list", default="0,5,10,15,19",
                    help="comma-separated SNR points in dB; write a negative first one as --snr-list=-5,10")
    ap.add_argument("--out", type=Path, default=Path("desk_run"))
    args = ap.parse_args()
    # epochs is an upper bound; max_steps does the real stopping
    run = {"variant": args.variant, "input_size": f"{args.size}x{args.size}x3", "c": args.c,
           "train_snr_db": args.train_snr, "epochs": args.steps, "max_steps": args.steps,
           "dataset": {"synthetic": {"count": args.images, "seed": args.seed + 2}},
           "seed": args.seed, "out_dir": str(args.out)}
    held_out = {"synthetic": {"count": 16, "seed": args.seed + 3}}
    configs = {"train": run, "eval": {**run, "dataset": held_out, "draws_per_image": 3}}
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, config in configs.items():
            (args.out / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
        # eval's config, --snr-list included, is checked before a training run is spent on it
        snr_list = [cli.flag_number(s) for s in args.snr_list.split(",")]
        cli.parse_config(args.out / "eval.json", {"snr_list": snr_list})
    except (OSError, ValueError) as e:
        sys.exit(f"error: {e}")
    t0 = time.time()
    # --snr-list=..., or argparse reads a list such as "-5,10" as a flag
    code = cli.main(["train", "--config", str(args.out / "train.json")]) or \
        cli.main(["eval", "--config", str(args.out / "eval.json"), f"--snr-list={args.snr_list}"])
    if code == 0:
        print(f"trained and swept {args.variant} in {time.time() - t0:.0f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
