"""Command-line front end: variant listing, complexity analysis, train, eval.

Config files are strict JSON: unknown keys are rejected and command-line flags
override file values.  Exactly one of rho / c is given; the other is derived
from the bandwidth bookkeeping and echoed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .channel import ChannelConfig
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .complexity import format_table, model_complexity, reduction_report, to_csv
from .data import Dataset, DatasetError, load_dataset, synthetic_dataset
from .metrics import evaluate_sweep, sweep_to_csv
from .model import (VARIANT_ORDER, VARIANT_PATTERNS, CodecModel, VariantId,
                    build_variant_architecture)
from .training import TrainConfig, TrainingError, history_to_csv, train


class ConfigError(ValueError):
    pass


_CONFIG_KEYS = {
    "variant", "input_size", "rho", "c", "power", "train_snr_db", "snr_list",
    "learning_rate", "batch_size", "epochs", "max_steps", "dataset", "seed",
    "out_dir", "checkpoint", "draws_per_image",
}


@dataclass
class ExperimentConfig:
    variant: VariantId
    input_shape: tuple[int, int, int]
    rho: Fraction
    c: int
    k: int
    power: float = 1.0
    train_snr_db: float = 10.0
    snr_list: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 19.0)
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs: int = 20
    max_steps: int | None = None
    dataset: dict | None = None
    seed: int = 0
    out_dir: str = "."
    checkpoint: str | None = None
    draws_per_image: int = 1


def parse_input_size(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x") if isinstance(text, str) else []
    if len(parts) != 3:
        raise ConfigError(f"input size must look like 256x256x3, got {text!r}")
    w, h, c = (int(p) for p in parts)
    if min(w, h, c) < 1:
        raise ConfigError(f"input size dims must all be >= 1, got {text!r}")
    return (w, h, c)


def _int_field(section: dict, key: str, default: int | None, minimum: int, where: str = "") -> int | None:
    """``section[key]`` as an int (a bool is not one) >= ``minimum``; ``default`` when absent.

    A null value counts as absent only where the default is None.
    """
    value = section.get(key)
    if value is None and (key not in section or default is None):
        return default
    if type(value) is int and value >= minimum:
        return value
    raise ConfigError(f"{where}{key} must be an integer >= {minimum}, got {value!r}")


def _real(value) -> float | None:
    """A JSON number as a float, an int too large for one as +-inf; None for a bool or a non-number."""
    if type(value) not in (int, float):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_field(section: dict, key: str, default: float, positive: bool) -> float:
    """``section[key]`` as a real number (a bool is not one); ``default`` when absent.

    NaN is never valid.  With ``positive`` the value must also be finite and
    > 0; otherwise infinities pass (an infinite SNR is the noiseless channel).
    """
    if key not in section:
        return default
    value = section[key]
    number = _real(value)
    valid = number is not None and not math.isnan(number)
    if positive:
        valid = valid and math.isfinite(number) and number > 0
    if valid:
        return number
    kind = "a finite number > 0" if positive else "a number (not NaN)"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _str_field(section: dict, key: str, default: str | None) -> str | None:
    """``section[key]`` as a string; ``default`` when absent.

    A null value counts as absent only where the default is None.
    """
    value = section.get(key)
    if value is None and (key not in section or default is None):
        return default
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be a string, got {value!r}")


def _parse_dataset(value) -> dict | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"dataset must be an object, got {value!r}")
    if "path" in value and not isinstance(value["path"], str):
        raise ConfigError(f"dataset.path must be a string, got {value['path']!r}")
    if "synthetic" in value and not isinstance(value["synthetic"], dict):
        raise ConfigError(f"dataset.synthetic must be an object, got {value['synthetic']!r}")
    return value


def _parse_snr_list(value) -> tuple[float, ...]:
    """A list of SNR points in dB; infinities pass (the noiseless channel), NaN never does."""
    snrs = [_real(s) for s in value] if isinstance(value, list) else [None]
    if None in snrs or any(math.isnan(s) for s in snrs):
        raise ConfigError(f"snr_list must be a list of numbers (not NaN), got {value!r}")
    return tuple(snrs)


def parse_rho(value) -> Fraction:
    if isinstance(value, str) and "/" in value:
        return Fraction(value)
    return Fraction(value).limit_denominator(10 ** 9)


def derive_bandwidth(input_shape: tuple[int, int, int], rho=None, c=None) -> tuple[int, int, Fraction]:
    """Resolve (k, c, rho) from whichever of rho / c was given."""
    w, h, ch = input_shape
    n = w * h * ch
    if w % 4 or h % 4:
        raise ConfigError(f"input spatial dims must be multiples of 4, got {w}x{h}")
    hbar, wbar = h // 4, w // 4
    if rho is not None and c is not None:
        rho = parse_rho(rho)
        k = int(rho * n)  # floor for non-negative rho*n
        c_derived = (2 * k) // (hbar * wbar)
        if c_derived != c:
            raise ConfigError(f"rho={rho} implies c={c_derived}, but c={c} was given")
        return k, c, rho
    if rho is not None:
        rho = parse_rho(rho)
        k = int(rho * n)
        if k < 1:
            raise ConfigError(f"rho={rho} gives no symbols for n={n}")
        c = (2 * k) // (hbar * wbar)
        if c < 1:
            raise ConfigError(f"rho={rho} too small: derived c=0 at latent {hbar}x{wbar}")
        return k, c, rho
    if c is not None:
        if (c * hbar * wbar) % 2:
            raise ConfigError(f"c={c} at latent {hbar}x{wbar} gives an odd symbol count")
        k = c * hbar * wbar // 2
        return k, c, Fraction(k, n)
    raise ConfigError("exactly one of rho / c must be given")


def parse_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} not found")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    variant = VariantId.from_name(raw.get("variant", "dsc-jscc-60-e2d2"))
    input_shape = parse_input_size(raw.get("input_size", "256x256x3"))
    k, c, rho = derive_bandwidth(input_shape, raw.get("rho"), _int_field(raw, "c", None, 1))
    snr_list = _parse_snr_list(raw.get("snr_list", [0.0, 5.0, 10.0, 15.0, 19.0]))
    return ExperimentConfig(
        variant=variant,
        input_shape=input_shape,
        rho=rho, c=c, k=k,
        power=_float_field(raw, "power", 1.0, positive=True),
        train_snr_db=_float_field(raw, "train_snr_db", 10.0, positive=False),
        snr_list=snr_list,
        learning_rate=_float_field(raw, "learning_rate", 0.001, positive=True),
        batch_size=_int_field(raw, "batch_size", 32, 1),
        epochs=_int_field(raw, "epochs", 20, 1),
        max_steps=_int_field(raw, "max_steps", None, 1),
        dataset=_parse_dataset(raw.get("dataset")),
        seed=_int_field(raw, "seed", 0, 0),
        out_dir=_str_field(raw, "out_dir", "."),
        checkpoint=_str_field(raw, "checkpoint", None),
        draws_per_image=_int_field(raw, "draws_per_image", 1, 1),
    )


def _echo_bandwidth(cfg: ExperimentConfig) -> str:
    return (f"bandwidth: n={cfg.input_shape[0] * cfg.input_shape[1] * cfg.input_shape[2]} "
            f"k={cfg.k} c={cfg.c} rho={cfg.rho.numerator}/{cfg.rho.denominator}")


def _load_configured_dataset(cfg: ExperimentConfig) -> Dataset:
    spec = cfg.dataset
    if spec is None:
        raise ConfigError("config has no dataset section")
    if "path" in spec:
        size = cfg.input_shape[0]
        return load_dataset(spec["path"], crop=size)
    if "synthetic" in spec:
        syn = spec["synthetic"]
        count = _int_field(syn, "count", 64, 1, "dataset.synthetic.")
        seed = _int_field(syn, "seed", cfg.seed + 2, 0, "dataset.synthetic.")
        return synthetic_dataset(count, cfg.input_shape[0], seed=seed)
    raise ConfigError("dataset section needs a 'path' or a 'synthetic' entry")


def _build_model(cfg: ExperimentConfig) -> CodecModel:
    arch = build_variant_architecture(cfg.variant, cfg.input_shape, cfg.c)
    return CodecModel(arch, variant=cfg.variant, power=cfg.power, seed=cfg.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_variants(_args) -> int:
    for v in VARIANT_ORDER:
        enc_mask, dec_mask = VARIANT_PATTERNS[v]
        enc = ",".join("DSConv" if m == "D" else "Conv" for m in enc_mask)
        dec = ",".join("DSTConv" if m == "D" else "TConv" for m in dec_mask)
        print(f"{v.value}: enc {enc} | dec {dec}")
    return 0


def cmd_analyze(args) -> int:
    input_shape = parse_input_size(args.input)
    if args.all:
        reports = [model_complexity(v, input_shape, args.c) for v in VARIANT_ORDER]
    else:
        variant = VariantId.from_name(args.variant or "baseline")
        reports = [model_complexity(variant, input_shape, args.c)]
    print(format_table(reports), end="")
    if not args.all:
        r = reports[0]
        print(f"total: {r.params_display} K / {r.flops_display} M")
    if args.compare:
        base = VariantId.from_name(args.variant or "baseline")
        other = VariantId.from_name(args.compare)
        dp, df = reduction_report(base, other, input_shape, args.c)
        print(f"{base.value} -> {other.value}: params -{dp:.1f}%, flops -{df:.1f}%")
    if args.out:
        Path(args.out).write_text(to_csv(reports))
        print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed, "out_dir": args.out})
    print(_echo_bandwidth(cfg))
    data = _load_configured_dataset(cfg)
    model = _build_model(cfg)
    train_cfg = TrainConfig(learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
                            epochs=cfg.epochs, snr_db=cfg.train_snr_db,
                            seed=cfg.seed, max_steps=cfg.max_steps)
    channel_cfg = ChannelConfig(power=cfg.power, snr_db=cfg.train_snr_db, seed=cfg.seed + 1)
    result = train(model, data, train_cfg, channel_cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = Path(cfg.checkpoint) if cfg.checkpoint else out_dir / "checkpoint.dscj"
    save_checkpoint(model, ckpt)
    losses = out_dir / "loss_history.csv"
    losses.write_text(history_to_csv(result.history))
    print(f"trained {len(result.history)} steps; wrote {ckpt} and {losses}")
    return 0


def cmd_eval(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed, "out_dir": args.out})
    snr_list = cfg.snr_list
    if args.snr_list:
        snr_list = _parse_snr_list([float(s) for s in args.snr_list.split(",")])
    ckpt = args.checkpoint or cfg.checkpoint or str(Path(cfg.out_dir) / "checkpoint.dscj")
    model = load_checkpoint(ckpt)
    data = _load_configured_dataset(cfg)
    rows = evaluate_sweep(model, data, list(snr_list),
                          draws_per_image=cfg.draws_per_image, seed=cfg.seed)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = out_dir / "sweep.csv"
    sweep.write_text(sweep_to_csv(rows))
    for r in rows:
        print(f"snr {r.snr_db:g} dB: psnr {r.mean_psnr_db:.2f} +/- {r.std_psnr_db:.2f} dB")
    print(f"wrote {sweep}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dscjscc",
                                     description="selective depthwise-separable JSCC toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("variants", help="list every codec variant and its layer pattern")

    p_an = sub.add_parser("analyze", help="parameter/FLOP accounting")
    p_an.add_argument("--variant", help="variant name (default baseline)")
    p_an.add_argument("--all", action="store_true", help="analyze every variant")
    p_an.add_argument("--compare", help="second variant: report percentage reductions")
    p_an.add_argument("--input", default="256x256x3", help="input size WxHxC")
    p_an.add_argument("--c", type=int, default=8, help="latent channel count")
    p_an.add_argument("--out", help="write the report as CSV to this path")

    p_tr = sub.add_parser("train", help="train a variant on a dataset")
    p_tr.add_argument("--config", required=True, help="experiment config (JSON)")
    p_tr.add_argument("--seed", type=int, help="override the master seed")
    p_tr.add_argument("--out", help="override the output directory")

    p_ev = sub.add_parser("eval", help="PSNR sweep over SNR points")
    p_ev.add_argument("--config", required=True, help="experiment config (JSON)")
    p_ev.add_argument("--checkpoint", help="checkpoint path (default from config)")
    p_ev.add_argument("--snr-list", help="comma-separated SNR points in dB")
    p_ev.add_argument("--seed", type=int, help="override the master seed")
    p_ev.add_argument("--out", help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"variants": cmd_variants, "analyze": cmd_analyze,
                "train": cmd_train, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except (ConfigError, DatasetError, CheckpointError, TrainingError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
