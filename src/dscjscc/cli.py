"""Command-line front end: variant listing, complexity analysis, train, eval.

Config files are strict JSON, checked against one schema (``_SCHEMA``) of
each key's kind and default: unknown keys are rejected at every level,
``dataset`` and ``dataset.synthetic`` included, and command-line flags
override file values.  ``variant``, ``input_size`` and exactly one of rho / c
resolve to one ArchitectureSpec, and ``eval`` checks its checkpoint against it.
``rho`` is a number or a ``"p/q"`` string and must give a whole c;
``snr_list`` is non-empty, and each SNR must give a channel of finite noise.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .channel import ChannelConfig
from .checkpoint import load_checkpoint, save_checkpoint
from .complexity import format_table, layer_params, model_complexity, reduction_report, to_csv
from .data import Dataset, load_dataset, synthetic_dataset
from .metrics import evaluate_sweep, sweep_to_csv
from .model import (VARIANT_ORDER, ArchitectureSpec, CodecModel, VariantId,
                    build_variant_architecture)
from .training import TrainConfig, TrainingError, history_to_csv, train


class ConfigError(ValueError):
    pass


def _number(value) -> float | None:
    """A JSON number (not a bool, not NaN) as a float, an int too large for one as +-inf; else None."""
    if type(value) not in (int, float):
        return None
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    return None if math.isnan(number) else number


def _positive(value) -> float | None:
    number = _number(value)
    return number if number is not None and 0 < number < math.inf else None


def _numbers(value) -> tuple[float, ...] | None:
    numbers = [_number(x) for x in value] if isinstance(value, list) else []
    return tuple(numbers) if numbers and None not in numbers else None


def _rho(value) -> Fraction | None:
    """A number (not a bool) or a "p/q" string, as a Fraction > 0; None otherwise."""
    try:
        if isinstance(value, str) and "/" in value:
            rho = Fraction(value)
        elif type(value) in (int, float):
            rho = Fraction(value).limit_denominator(10 ** 9)
        else:
            return None
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return rho if rho > 0 else None


# A kind is (what it expects, parser returning the parsed value or None); a
# dict in place of a kind is a nested section with its own table.  Infinite
# SNRs pass (+inf is the noiseless channel, and ``parse_config`` rejects an SNR
# with no channel, such as -inf); NaN never does.
_COUNT = ("an integer >= 1", lambda v: v if type(v) is int and v >= 1 else None)
_SEED = ("an integer >= 0", lambda v: v if type(v) is int and v >= 0 else None)
_POSITIVE = ("a finite number > 0", _positive)
_NUMBER = ("a number (not NaN)", _number)
_NUMBERS = ("a non-empty list of numbers (not NaN)", _numbers)
_STRING = ("a string", lambda v: v if isinstance(v, str) else None)
_RHO = ('a number > 0 or a "p/q" string such as "1/12"', _rho)

# Each key maps to (kind, default).  A null counts as absent only where the
# default is None.  A synthetic seed of None means the master seed + 2.
_SYNTHETIC = {"count": (_COUNT, 64), "seed": (_SEED, None)}
_DATASET = {"path": (_STRING, None), "synthetic": (_SYNTHETIC, None)}
_SCHEMA = {
    "variant": (_STRING, "dsc-jscc-60-e2d2"), "input_size": (_STRING, "256x256x3"),
    "rho": (_RHO, None), "c": (_COUNT, None), "power": (_POSITIVE, 1.0),
    "train_snr_db": (_NUMBER, 10.0), "snr_list": (_NUMBERS, (0.0, 5.0, 10.0, 15.0, 19.0)),
    "learning_rate": (_POSITIVE, 0.001), "batch_size": (_COUNT, 32), "epochs": (_COUNT, 20),
    "max_steps": (_COUNT, None), "dataset": (_DATASET, None), "seed": (_SEED, 0),
    "out_dir": (_STRING, "."), "checkpoint": (_STRING, None), "draws_per_image": (_COUNT, 1),
}


def _parse(name: str, kind, value):
    """``value`` parsed as ``kind``; a ConfigError naming ``name`` and the kind if it is not one."""
    if isinstance(kind, dict):  # a nested section
        what = "an object"
        parsed = _read_section(value, kind, name + ".") if isinstance(value, dict) else None
    else:
        what, parse = kind
        parsed = parse(value)
    if parsed is None:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return parsed


def _read_section(section: dict, table: dict, where: str = "") -> dict:
    """Every key of ``table``, parsed from ``section`` or defaulted; unknown keys are rejected."""
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {[where + key for key in unknown]}")
    parsed = {}
    for key, (kind, default) in table.items():
        value = section.get(key)
        absent = key not in section or (value is None and default is None)
        parsed[key] = default if absent else _parse(where + key, kind, value)
    return parsed


class ExperimentConfig(SimpleNamespace):
    """A checked config, with each key of ``_SCHEMA`` as an attribute.

    ``variant`` is a VariantId, and ``input_size``, ``rho`` and ``c`` are
    resolved into one ``architecture``, which fixes n, k, c and rho.
    """


def parse_input_size(text: str) -> tuple[int, int, int]:
    try:
        w, h, c = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"input size must look like 256x256x3, got {text!r}") from None
    if min(w, h, c) < 1:
        raise ConfigError(f"input size dims must all be >= 1, got {text!r}")
    return (w, h, c)


def derive_bandwidth(variant: VariantId, input_shape: tuple[int, int, int],
                     rho: Fraction | None = None, c: int | None = None) -> ArchitectureSpec:
    """The variant's layers at ``input_shape`` with c latent channels.

    A given rho must give a whole c, and the weights must fit in the machine's memory.
    """
    if rho is None and c is None:
        raise ConfigError("exactly one of rho / c must be given")
    if rho is not None:
        probe = build_variant_architecture(variant, input_shape, 2)  # k is c/2 times the latent area
        derived = 2 * int(rho * probe.n) // probe.k  # floor for non-negative rho*n
        if c is not None and derived != c:
            raise ConfigError(f"rho={rho} implies c={derived}, but c={c} was given")
        if derived * probe.rho / 2 != rho:
            hbar, wbar = probe.latent_dims
            raise ConfigError(f"rho={rho} gives no whole c at latent {hbar}x{wbar}: "
                              f"the derived c={derived} gives rho={derived * probe.rho / 2}")
        c = derived
    architecture = build_variant_architecture(variant, input_shape, c)
    weights = 8 * sum(map(layer_params, architecture.encoder + architecture.decoder))
    _check_fits(weights, f"c is too large to build the model: c={c} needs {weights} bytes of weights")
    return architecture


def _check_fits(nbytes: int, what: str) -> None:
    """A ConfigError saying ``what`` if ``nbytes`` exceed physical memory; called before numpy allocates them."""
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"{what}, more than this machine's memory")


def parse_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} not found")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    cfg = _read_section({**raw, **given}, _SCHEMA)
    dataset = cfg["dataset"]
    if dataset is not None and (dataset["path"] is None) == (dataset["synthetic"] is None):
        raise ConfigError("dataset needs exactly one of 'path' / 'synthetic'")
    input_shape = parse_input_size(cfg.pop("input_size"))
    if input_shape[0] != input_shape[1]:  # images are center-cropped to a square
        raise ConfigError(f"input_size must be square, got {'x'.join(map(str, input_shape))}")
    if dataset is not None and dataset["synthetic"] is not None:
        count = dataset["synthetic"]["count"]
        images = 8 * count * 3 * input_shape[0] ** 2
        _check_fits(images, f"dataset.synthetic.count={count} needs {images} bytes of images")
    for key, snr in [("train_snr_db", cfg["train_snr_db"]), *(("snr_list", snr) for snr in cfg["snr_list"])]:
        try:  # ChannelConfig's own rule, so that eval's snr_list is checked before training
            ChannelConfig(power=cfg["power"], snr_db=snr)
        except ValueError as e:
            raise ConfigError(f"{key} {snr!r} has no channel: {e}") from None
    variant = VariantId.from_name(cfg.pop("variant"))
    architecture = derive_bandwidth(variant, input_shape, cfg.pop("rho"), cfg.pop("c"))
    return ExperimentConfig(**cfg, variant=variant, architecture=architecture)


def _describe(run: CodecModel | ExperimentConfig) -> str:
    """The variant, input size, c and power of a model or a config."""
    arch = run.architecture
    name = "unnamed layers" if run.variant is None else run.variant.value
    return f"{name} at {'x'.join(map(str, arch.input_shape))}, c={arch.channel_count}, power={run.power!r}"


def _load_configured_dataset(cfg: ExperimentConfig) -> Dataset:
    """The dataset of the config's section, which ``parse_config`` has already checked."""
    if cfg.dataset is None:
        raise ConfigError("config has no dataset section")
    size = cfg.architecture.input_shape[0]
    if cfg.dataset["path"] is not None:
        return load_dataset(cfg.dataset["path"], crop=size)
    syn = cfg.dataset["synthetic"]
    seed = cfg.seed + 2 if syn["seed"] is None else syn["seed"]
    return synthetic_dataset(syn["count"], size, seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_variants(_args) -> int:
    for v in VARIANT_ORDER:
        arch = build_variant_architecture(v)
        enc = ",".join(layer.kind.value for layer in arch.encoder)
        dec = ",".join(layer.kind.value for layer in arch.decoder)
        print(f"{v.value}: enc {enc} | dec {dec}")
    return 0


def cmd_analyze(args) -> int:
    input_shape = parse_input_size(args.input)
    variant = VariantId.from_name(args.variant or "baseline")
    variants = VARIANT_ORDER if args.all else [variant]
    reports = [model_complexity(v, input_shape, args.c) for v in variants]
    print(format_table(reports), end="")
    if not args.all:
        r = reports[0]
        print(f"total: {r.params_display} K / {r.flops_display} M")
    if args.compare:
        other = VariantId.from_name(args.compare)
        dp, df = reduction_report(variant, other, input_shape, args.c)
        print(f"{variant.value} -> {other.value}: params -{dp:.1f}%, flops -{df:.1f}%")
    if args.out:
        Path(args.out).write_text(to_csv(reports))
        print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed, "out_dir": args.out})
    arch = cfg.architecture
    print(f"bandwidth: n={arch.n} k={arch.k} c={arch.channel_count} "
          f"rho={arch.rho.numerator}/{arch.rho.denominator}")
    data = _load_configured_dataset(cfg)
    out_dir = Path(cfg.out_dir)  # made before the run, so that an unusable path fails first
    ckpt = Path(cfg.checkpoint) if cfg.checkpoint else out_dir / "checkpoint.dscj"
    for directory in (out_dir, ckpt.parent):
        directory.mkdir(parents=True, exist_ok=True)
    model = CodecModel(arch, variant=cfg.variant, power=cfg.power, seed=cfg.seed)
    train_cfg = TrainConfig(learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
                            epochs=cfg.epochs, snr_db=cfg.train_snr_db,
                            seed=cfg.seed, max_steps=cfg.max_steps)
    channel_cfg = ChannelConfig(power=cfg.power, snr_db=cfg.train_snr_db, seed=cfg.seed + 1)
    result = train(model, data, train_cfg, channel_cfg)
    save_checkpoint(model, ckpt)
    losses = out_dir / "loss_history.csv"
    losses.write_text(history_to_csv(result.history))
    print(f"trained {len(result.history)} steps; wrote {ckpt} and {losses}")
    return 0


def flag_number(text: str) -> float | str:
    """One item of a comma-separated flag as a float; other text stays text, for the schema to reject."""
    try:
        return float(text)
    except ValueError:
        return text


def cmd_eval(args) -> int:
    snr_list = None if args.snr_list is None else [flag_number(s) for s in args.snr_list.split(",")]
    cfg = parse_config(args.config, {"seed": args.seed, "out_dir": args.out, "snr_list": snr_list})
    ckpt = args.checkpoint or cfg.checkpoint or str(Path(cfg.out_dir) / "checkpoint.dscj")
    model = load_checkpoint(ckpt)
    if (model.architecture, model.power) != (cfg.architecture, cfg.power):
        raise ConfigError(f"checkpoint {ckpt} holds {_describe(model)}, but the config gives {_describe(cfg)}")
    data = _load_configured_dataset(cfg)
    symbols = 16 * model.k * len(data) * cfg.draws_per_image  # one SNR point's stacked complex symbols
    _check_fits(symbols, f"draws_per_image={cfg.draws_per_image} needs {symbols} bytes of symbols per SNR")
    out_dir = Path(cfg.out_dir)  # made before the sweep, so that an unusable path fails first
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = evaluate_sweep(model, data, list(cfg.snr_list),
                          draws_per_image=cfg.draws_per_image, seed=cfg.seed)
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
    p_ev.add_argument("--snr-list", help="comma-separated SNR points in dB; write a list that starts "
                      "with a negative SNR as --snr-list=-5,10")
    p_ev.add_argument("--seed", type=int, help="override the master seed")
    p_ev.add_argument("--out", help="override the output directory")
    return parser


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse rather than hand it back to the system.

    By default glibc trims the top of the heap once more than twice its
    largest freed block is free there.  A train step frees its graph as
    backward runs, so without this the next step faults pages back in: a
    batch-32 step faulted 5,000-6,100 times for dsc-jscc-100, 3,200-3,700 for
    e2d2 and 0-3,100 for the baseline, and none with it.  Arrays below 32 MiB
    then always come from the heap.  On other C libraries this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD, at glibc's largest allowed value


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    handlers = {"variants": cmd_variants, "analyze": cmd_analyze,
                "train": cmd_train, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except (TrainingError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
