"""Per-layer metrics from a traced run, and the FLOP-vs-time ledger.

Units: "/step" figures are totals over the traced steps divided by their
number, where a step is a train step on the train workloads and one sweep on
eval-sweep.  Normalising per step keeps a faster commit, which fits more steps
into the same run, from reporting larger totals.  "/call" figures are means
over every traced call in the run, because some modules run only outside
those steps (checkpoints, dataset generation, the sweeps of the train
workloads, the train probe of eval-sweep).
"""

from __future__ import annotations

import statistics

from tracer import KERNEL_NAMES, Span

UNIT_SPAN = {"train": "training.train_step", "sweep": "metrics.evaluate_sweep"}
LAYERS = tuple(f"{side}{i}" for side in ("enc", "dec") for i in range(5))


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _rate(macs: float, ms: float) -> float:
    """GMAC/s from a MAC count and milliseconds."""
    return macs / ms / 1e6 if ms > 0 else 0.0


def layer_flops(run) -> dict[str, int]:
    """Analytical per-image MACs of each codec layer, from complexity.architecture_complexity."""
    rows = run.lib.complexity.architecture_complexity(run.variant, run.arch).rows
    return {f"{'enc' if r.side == 'encoder' else 'dec'}{r.index - 1}": r.flops for r in rows}


def per_layer(run, flops: dict[str, int]) -> dict[str, tuple[float, str]]:
    tracer = run.tracer
    tracer.self_times()
    spans = tracer.spans
    unit_name = UNIT_SPAN[run.loop]
    units = [i for i, s in enumerate(spans) if s.name == unit_name]
    n = max(len(units), 1)
    main = tracer.under(units)
    by_name, main_by_name = _by_name(spans), _by_name(main)

    out: dict[str, tuple[float, str]] = {}
    for op in KERNEL_NAMES:
        ks = main_by_name.get("kernels." + op, [])
        ms = sum(s.ms for s in ks)
        out[f"kernels.{op}.calls"] = (len(ks) / n, "1/step")
        out[f"kernels.{op}.self_ms"] = (sum(s.ms - s.child_ms for s in ks) / n, "ms/step")
        out[f"kernels.{op}.gmac_per_s"] = (_rate(sum(s.macs for s in ks), ms), "GMAC/s")
        out[f"kernels.{op}.mbytes"] = (sum(s.nbytes for s in ks) / 1e6 / n, "MB/step")
    unit_ms = sum(spans[i].ms for i in units)
    dw_self = sum(s.ms - s.child_ms for s in main if s.name.startswith("kernels.dw"))
    out["kernels.dw_share"] = (dw_self / unit_ms if unit_ms else 0.0, "ratio")

    for layer in LAYERS:
        fwd = main_by_name.get(f"layer.{layer}.fwd", [])
        bwd = main_by_name.get(f"layer.{layer}.bwd", [])
        fwd_ms = sum(s.ms for s in fwd)
        out[f"layer.{layer}.fwd_ms"] = (fwd_ms / n, "ms/step")
        out[f"layer.{layer}.bwd_ms"] = (sum(s.ms for s in bwd) / n, "ms/step")
        out[f"layer.{layer}.gmac_per_s"] = (_rate(sum(s.items for s in fwd) * flops[layer], fwd_ms), "GMAC/s")

    backward = by_name.get("autodiff.backward", [])
    out["autodiff.backward_ms"] = (_mean(s.ms for s in backward), "ms/call")
    out["autodiff.backward_self_ms"] = (_mean(s.ms - s.child_ms for s in backward), "ms/call")

    out["model.encode_graph_ms"] = (sum(s.ms for s in main_by_name.get("model.encode_graph", [])) / n, "ms/step")
    out["model.decode_graph_ms"] = (sum(s.ms for s in main_by_name.get("model.decode_graph", [])) / n, "ms/step")
    out["model.encode.useful_ratio"] = (_useful_ratio(spans), "ratio")
    decodes = by_name.get("model.decode", [])
    images = sum(s.items for s in decodes)
    out["model.decode.ms_per_image"] = (sum(s.ms for s in decodes) / images if images else 0.0, "ms/image")

    out["channel.noise_block_ms"] = (_mean(s.ms for s in by_name.get("channel.noise_block", [])), "ms/call")
    out["channel.transmit_ms"] = (_mean(s.ms for s in by_name.get("channel.transmit", [])), "ms/call")

    steps = [i for i, s in enumerate(spans) if s.name == "training.train_step"]
    parts = _step_parts(spans, steps)
    out["training.forward_ms"] = (_mean(p["forward"] for p in parts), "ms/call")
    out["training.backward_ms"] = (_mean(p["backward"] for p in parts), "ms/call")
    out["training.adam_step_ms"] = (_mean(s.ms for s in by_name.get("training.adam_step", [])), "ms/call")

    out["metrics.psnr_ms"] = (_mean(s.ms for s in by_name.get("metrics.psnr", [])), "ms/call")
    saves = by_name.get("checkpoint.save", [])
    out["checkpoint.save_ms"] = (_mean(s.ms for s in saves), "ms/call")
    out["checkpoint.load_ms"] = (_mean(s.ms for s in by_name.get("checkpoint.load", [])), "ms/call")
    out["checkpoint.bytes"] = (float(saves[-1].nbytes) if saves else 0.0, "bytes")
    out["data.synthetic_dataset_ms"] = (_mean(s.ms for s in by_name.get("data.synthetic_dataset", [])), "ms/call")

    out["trace.overhead_ms"] = (_overhead_ms(run), "ms")
    out["trace.uncovered_share"] = (_mean((spans[i].ms - spans[i].child_ms) / spans[i].ms for i in units), "ratio")
    return out


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    groups: dict[str, list[Span]] = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)
    return groups


def _useful_ratio(spans: list[Span]) -> float:
    """Distinct images over images encoded, per evaluate_sweep call, averaged."""
    sweep_of = [-1] * len(spans)
    seen: dict[int, set] = {}
    encoded: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s.name == "metrics.evaluate_sweep":
            sweep_of[i] = i
            seen[i], encoded[i] = set(), 0
        elif s.parent >= 0:
            sweep_of[i] = sweep_of[s.parent]
        if s.name == "model.encode" and sweep_of[i] >= 0:
            seen[sweep_of[i]].update(s.keys)
            encoded[sweep_of[i]] += s.items
    return _mean(len(seen[k]) / encoded[k] for k in seen if encoded[k])


def _step_parts(spans: list[Span], steps: list[int]) -> list[dict[str, float]]:
    index = {i: {"backward": 0.0, "adam": 0.0} for i in steps}
    for s in spans:
        if s.parent in index:
            if s.name == "autodiff.backward":
                index[s.parent]["backward"] += s.ms
            elif s.name == "training.adam_step":
                index[s.parent]["adam"] += s.ms
    return [{"backward": p["backward"],
             "forward": spans[i].ms - p["backward"] - p["adam"]} for i, p in index.items()]


def _overhead_ms(run) -> float:
    """Traced minus untraced: step p50 on the train workloads, sweep median on eval-sweep."""
    timings = run.step_s if run.loop == "train" else run.sweep_s
    traced, plain = timings[True], timings[False]
    if not traced or not plain:
        return 0.0
    return 1e3 * (statistics.median(traced) - statistics.median(plain))


def format_ledger(run, flops: dict[str, int], metrics: dict[str, tuple[float, str]]) -> str:
    """Each layer's analytical MACs beside its measured time, then the kernel table."""
    v = {k: val for k, (val, _) in metrics.items()}
    lines = [f"FLOP-vs-time ledger: {run.workload} ({run.variant_name}), times per step"
             f" ({'train step' if run.loop == 'train' else 'sweep'}), MACs computed analytically",
             f"{'layer':<6}{'kind':<9}{'MMAC/img':>10}{'fwd ms':>10}{'bwd ms':>10}{'GMAC/s':>9}"]
    specs = dict(zip(LAYERS, (*run.arch.encoder, *run.arch.decoder)))
    for layer in LAYERS:
        lines.append(f"{layer:<6}{specs[layer].kind.value:<9}{flops[layer] / 1e6:>10.2f}"
                     f"{v[f'layer.{layer}.fwd_ms']:>10.2f}{v[f'layer.{layer}.bwd_ms']:>10.2f}"
                     f"{v[f'layer.{layer}.gmac_per_s']:>9.2f}")
    lines.append(f"{'kernel':<13}{'calls':>7}{'self ms':>10}{'GMAC/s':>9}{'MB':>9}   (MACs and bytes computed from shapes)")
    for op in KERNEL_NAMES:
        lines.append(f"{op:<13}{v[f'kernels.{op}.calls']:>7.1f}{v[f'kernels.{op}.self_ms']:>10.2f}"
                     f"{v[f'kernels.{op}.gmac_per_s']:>9.2f}{v[f'kernels.{op}.mbytes']:>9.1f}")
    lines.append(f"depthwise kernels hold {100 * v['kernels.dw_share']:.1f}% of step time; "
                 f"no span covers {100 * v['trace.uncovered_share']:.1f}%; "
                 f"tracing overhead {v['trace.overhead_ms']:+.1f} ms")
    return "\n".join(lines)
