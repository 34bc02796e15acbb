"""Analytical parameter and FLOP accounting for every codec variant.

FLOPs are multiply-accumulates: a standard KxK layer costs K^2*Cin*Cout per
output pixel, its separable replacement K^2*Cin + Cin*Cout.  Biases and
activations are excluded, and transposed layers are charged at their output
resolution.

Display convention: parameter totals are rounded half-up to 0.1 K; FLOP
megacounts are rounded half-up to 0.1 M *per layer* and then summed, which is
how the reference complexity table was tallied.  Raw integer totals are kept
alongside for ratio arithmetic.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .model import (Activation, ArchitectureSpec, LayerSpec, VariantId,
                    build_variant_architecture)


def layer_params(spec: LayerSpec) -> int:
    k2 = spec.kernel * spec.kernel
    cin, cout = spec.in_channels, spec.out_channels
    if spec.kind.is_separable:
        total = (k2 * cin + cin) + (cin * cout + cout)
    else:
        total = k2 * cin * cout + cout
    if spec.activation is Activation.PRELU:
        total += cout
    return total


def layer_flops(spec: LayerSpec, out_h: int, out_w: int) -> int:
    k2 = spec.kernel * spec.kernel
    cin, cout = spec.in_channels, spec.out_channels
    hw = out_h * out_w
    if spec.kind.is_separable:
        return k2 * cin * hw + cin * cout * hw
    return k2 * cin * cout * hw


@dataclass(frozen=True)
class LayerRow:
    side: str  # "encoder" | "decoder"
    index: int  # 1-based within its side
    params: int
    flops: int


@dataclass(frozen=True)
class ComplexityReport:
    variant: VariantId
    rows: tuple[LayerRow, ...]

    @property
    def total_params(self) -> int:
        return sum(row.params for row in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(row.flops for row in self.rows)

    @property
    def params_display(self) -> str:
        tenths = (self.total_params + 50) // 100
        return f"{tenths // 10}.{tenths % 10}"

    @property
    def flops_display(self) -> str:
        tenths = sum((row.flops + 50_000) // 100_000 for row in self.rows)
        return f"{tenths // 10}.{tenths % 10}"


def architecture_complexity(variant: VariantId, arch: ArchitectureSpec) -> ComplexityReport:
    rows = []
    out_dims = iter(arch.out_dims)
    for side, layers in (("encoder", arch.encoder), ("decoder", arch.decoder)):
        for i, spec in enumerate(layers):
            rows.append(LayerRow(side, i + 1, layer_params(spec), layer_flops(spec, *next(out_dims))))
    return ComplexityReport(variant, tuple(rows))


def model_complexity(variant: VariantId,
                     input_shape: tuple[int, int, int] = (256, 256, 3),
                     channel_count: int = 8) -> ComplexityReport:
    return architecture_complexity(variant, build_variant_architecture(variant, input_shape, channel_count))


def reduction_report(a: VariantId, b: VariantId,
                     input_shape: tuple[int, int, int] = (256, 256, 3),
                     channel_count: int = 8) -> tuple[float, float]:
    """Percentage reduction in (params, flops) going from variant a to b."""
    ra = model_complexity(a, input_shape, channel_count)
    rb = model_complexity(b, input_shape, channel_count)
    dp = 100.0 * (ra.total_params - rb.total_params) / ra.total_params
    df = 100.0 * (ra.total_flops - rb.total_flops) / ra.total_flops
    return dp, df


def format_table(reports: list[ComplexityReport]) -> str:
    """Aligned plain-text table, one variant per row."""
    headers = ("model", "params", "params (K)", "flops", "flops (M)")
    rows = [(r.variant.value, str(r.total_params), r.params_display,
             str(r.total_flops), r.flops_display) for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    out = io.StringIO()
    out.write("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n")
    return out.getvalue()


def to_csv(reports: list[ComplexityReport]) -> str:
    lines = ["variant,params,flops,params_display,flops_display"]
    for r in reports:
        lines.append(f"{r.variant.value},{r.total_params},{r.total_flops},"
                     f"{r.params_display},{r.flops_display}")
    return "\n".join(lines) + "\n"
