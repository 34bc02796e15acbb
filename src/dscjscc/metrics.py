"""Reconstruction-quality metrics and the SNR sweep evaluator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import AwgnChannel, ChannelConfig
from .data import Dataset
from .kernels import ShapeError
from .model import CodecModel

PSNR_CAP_DB = 100.0  # sentinel for identical images
_DECODE_BATCH = 16  # rows per decoder call in evaluate_sweep


def mse_pixel_mean(x: np.ndarray, xhat: np.ndarray) -> float:
    """Mean squared error over every element; what training actually minimizes."""
    x, xhat = np.asarray(x, dtype=np.float64), np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ShapeError(f"mse: shape mismatch {x.shape} vs {xhat.shape}")
    return float(np.mean((x - xhat) ** 2))


def psnr(x: np.ndarray, xhat: np.ndarray) -> float:
    """10*log10(255^2 / per-pixel MSE); identical inputs hit ``PSNR_CAP_DB``."""
    mse = mse_pixel_mean(x, xhat)
    if mse == 0.0:
        return PSNR_CAP_DB
    if not math.isfinite(mse):  # min() would keep the cap for a NaN
        raise ValueError(f"psnr: non-finite MSE {mse}")
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0 * 255.0 / mse))


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    mean_psnr_db: float
    std_psnr_db: float
    n_images: int
    n_draws: int


def evaluate_sweep(model: CodecModel, data: Dataset, snr_list: list[float],
                   draws_per_image: int = 1, seed: int = 0) -> list[SweepRow]:
    """Mean/std PSNR per SNR point, averaged over images and noise draws.

    Each (snr, image) pair gets its own channel PRNG stream derived from the
    master seed, so results are independent of evaluation order; every
    channel transmits at the model's own ``power``.  Encoding
    does not depend on the SNR, so each image is encoded once, at batch 1
    (a batched encode differs in the last bits of the symbols).  At each SNR
    point the noisy draws of every image are stacked in (image, draw) order
    and decoded in consecutive slices of at most ``_DECODE_BATCH`` rows.
    Decoding is row-independent, so slicing changes no row beyond float
    round-off.  The encodes and decodes run on constant parameters and hold
    no autodiff graph, so each layer's activation is freed once the next
    layer has read it.  Why 16: a batch-1 decoder call is mostly per-call
    overhead, and at 32x32x3 a 16-row slice halved the sweep against one call
    per draw.  On a 48-image, 3-draw, 5-SNR e2d2 sweep, timed interleaved in
    one process, 8 rows took 1.10x its time, 24 rows 0.96x and 32 rows
    0.99x, with tracemalloc peaks of 3.6, 5.5, 7.4 and 9.4 MB at 8, 16, 24
    and 32 rows (5.5, 9.2, 12.9 and 16.7 MB while decodes kept their graph);
    16 stays, as a new slicing would move the sweep's PSNRs in the last bits.
    """
    if not snr_list:
        raise ValueError("evaluate_sweep: snr_list must not be empty")
    if draws_per_image < 1:
        raise ValueError(f"evaluate_sweep: draws_per_image must be >= 1, got {draws_per_image}")
    images = [data.images[ii:ii + 1] for ii in range(len(data))]
    codes = [model.encode(image) for image in images]
    rows = []
    for si, snr_db in enumerate(snr_list):
        noisy = []
        for ii, z in enumerate(codes):
            cfg = ChannelConfig(power=model.power, snr_db=snr_db,
                                seed=_stream_seed(seed, si, ii))
            ch = AwgnChannel(cfg)
            noisy += [ch.transmit(z) for _ in range(draws_per_image)]
        block = np.concatenate(noisy)
        values = []
        for start in range(0, len(block), _DECODE_BATCH):
            xhat = model.decode(block[start:start + _DECODE_BATCH])
            values += [psnr(images[(start + j) // draws_per_image], xhat[j:j + 1])
                       for j in range(len(xhat))]
        arr = np.asarray(values)
        rows.append(SweepRow(snr_db, float(arr.mean()), float(arr.std()),
                             len(data), draws_per_image))
    return rows


def _stream_seed(master: int, snr_index: int, image_index: int) -> int:
    ss = np.random.SeedSequence([master, snr_index, image_index])
    return int(ss.generate_state(1)[0])


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["snr_db,mean_psnr_db,std_psnr_db,n_images,n_draws"]
    for r in rows:
        lines.append(f"{r.snr_db:g},{r.mean_psnr_db:.6f},{r.std_psnr_db:.6f},{r.n_images},{r.n_draws}")
    return "\n".join(lines) + "\n"
