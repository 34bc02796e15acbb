#!/usr/bin/env python3
"""Emit the full variant complexity table and the headline reductions."""

import argparse
from pathlib import Path

from dscjscc.cli import ConfigError, parse_input_size
from dscjscc.complexity import format_table, model_complexity, reduction_report, to_csv
from dscjscc.model import VARIANT_ORDER, VariantId


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", default="256x256x3")
    ap.add_argument("--c", type=int, default=8)
    ap.add_argument("--csv", type=Path, help="also write the table as CSV")
    args = ap.parse_args()

    try:
        input_shape = parse_input_size(args.input)
    except ConfigError as e:
        ap.error(str(e))
    reports = [model_complexity(v, input_shape, args.c) for v in VARIANT_ORDER]
    print(format_table(reports), end="")

    for a, b in [(VariantId.BASELINE, VariantId.R60_E1D1),
                 (VariantId.R60_E1D1, VariantId.R60_E2D2)]:
        dp, df = reduction_report(a, b, input_shape, args.c)
        print(f"{a.value} -> {b.value}: params -{dp:.1f}%, flops -{df:.1f}%")

    if args.csv:
        args.csv.write_text(to_csv(reports))
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
