"""Convolution kernels on batch-innermost (C, H, W, N) activations.

Everything here operates on plain float64 numpy arrays; the graph layer in
``autodiff`` wraps these into differentiable nodes.  Convolution semantics are
cross-correlation (no kernel flip), the universal deep-learning convention.

Every activation, input, output and gradient alike, is a (C, H, W, N) array:
channels outermost, the batch innermost, and every kernel output is
C-contiguous in that order.  The codec converts its images to this layout
once, at the encoder input, and back at the latent and the decoder output
(see ``model``); no kernel converts.

Weight layouts:
    standard conv        (Cout, Cin, K, K)
    transposed conv      (Cin, Cout, K, K)
    depthwise (both)     (C, 1, K, K)

All four layer kinds run on one core that takes a dense/depthwise flag (a
depthwise layer is the groups=C case): ``_cols`` copies input patches,
``_conv`` convolves them, ``_conv_input_adjoint`` is its adjoint with respect
to the input and ``_conv_weight_grad`` its gradient with respect to the
kernel.  A transposed convolution is the input-adjoint of the matching
convolution (Dumoulin & Visin, arXiv:1603.07285), so its backward pass is the
convolution itself, and its weight gradient is the convolution's with input
and upstream swapped.

Both kinds lower their input with one patch copy, MEC's (Cho & Brand,
arXiv:1706.06873): ``_shifts`` copies the input once per tap column, a k-fold
copy where im2col makes a k*k-fold one, so that the k input rows an output
row reads are consecutive rows of the copy, each Wo*N long.  Dense, the copy
is row-major, (rows, C, k, Wo*N), so those rows form one (k*C*k, Wo*N)
window with a single row stride, and the conv is one batched GEMM over
output rows: the (Cout, k*C*k) kernel times each row's window, written
straight into the (C, H, W, N) output.  The weight gradient is each row's
``gy`` times its window transposed, summed over rows.  A pointwise conv's
patches are the input itself, reshaped without a copy, and it is one GEMM
(MobileNets, arXiv:1704.04861, runs its 1x1 layers the same way).

Depthwise, the copy is channel-major, (C, rows, k, Wo*N), and along the
other axis a channel's kernel becomes a banded (Toeplitz) matrix: a tile of
th output rows reads an overlapping window of L = stride*(th - 1) + k input
rows, and its (th, L*k) band holds the k*k taps on th shifted diagonals.
Every channel and tile of a layer goes through one batched ``matmul``, and
the weight gradient, summed over tiles, is read back off the band.  The band
carries L*k entries per row for k*k taps, so taller tiles waste more of each
GEMM and shorter ones make more calls; 2- and 4-row tiles measured alike and
best, 1, 3, 6, 8 and 16 slower.

Every stride-1 input adjoint, of either kind, is the convolution of ``gy``
with the flipped kernel (Dumoulin & Visin, arXiv:1603.07285).  A strided one
works per output phase.  A stride-s transposed convolution splits into s*s
stride-1 sums, one per output phase: the rows and columns that share an
offset modulo s, each fed by the taps whose offset matches (sub-pixel
convolution: Shi et al., arXiv:1609.05158 and arXiv:1609.07009).
Depthwise, each phase is a stride-1 banded convolution of ``gy`` with the
phase's taps; dense, each phase is one contiguous block built from the
in-range slices of its taps' stamps.  Either way the phase is written once
into its strided slots of the output, so no padded grid is zeroed, cropped
or updated through strided read-modify-write adds (see
``_conv_input_adjoint``).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor/kernel dimensions are incompatible, naming the offender."""


def conv_out_dim(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def tconv_out_dim(size: int, k: int, stride: int, padding: int, output_padding: int) -> int:
    return (size - 1) * stride - 2 * padding + k + output_padding


def _validate(op: str, x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int,
              padding: int, output_padding: int | None, depthwise: bool) -> tuple[int, int]:
    """Check one layer call's operands; returns its output (H, W).

    ``output_padding`` is None for a convolution and an int for a transposed one.
    """
    if x.ndim != 4 or min(x.shape) < 1:
        raise ShapeError(f"{op}: input must be rank 4 (C,H,W,N) with dims >= 1, got shape {x.shape}")
    if w.ndim != 4 or w.shape[2] != w.shape[3] or min(w.shape) < 1:
        raise ShapeError(f"{op}: kernel weights must be rank 4 with square K x K taps "
                         f"and dims >= 1, got shape {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"{op}: stride must be >= 1 and padding >= 0, got stride={stride}, padding={padding}")
    transposed = output_padding is not None
    if transposed and not 0 <= output_padding < stride:
        raise ShapeError(f"{op}: output_padding must satisfy 0 <= output_padding < stride, "
                         f"got output_padding={output_padding}, stride={stride}")
    c, h, wd, _ = x.shape
    k = w.shape[2]
    if depthwise:
        if w.shape[1] != 1:
            raise ShapeError(f"{op}: depthwise kernel must have one input slot per group, got {w.shape[1]}")
        if w.shape[0] != c:
            raise ShapeError(f"{op}: kernel has {w.shape[0]} channels, input has {c}")
        cout = c
    else:
        cin, cout = (w.shape[0], w.shape[1]) if transposed else (w.shape[1], w.shape[0])
        if cin != c:
            raise ShapeError(f"{op}: kernel expects {cin} input channels, input has {c}")
    if transposed:
        ho, wo = (tconv_out_dim(d, k, stride, padding, output_padding) for d in (h, wd))
    else:
        ho, wo = (conv_out_dim(d, k, stride, padding) for d in (h, wd))
    if ho < 1 or wo < 1:
        raise ShapeError(f"{op}: output spatial dims ({ho},{wo}) collapse below 1 for input {h}x{wd}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"{op}: bias length {b.shape} != output channels {cout}")
    return ho, wo


# ---------------------------------------------------------------------------
# the shared core
# ---------------------------------------------------------------------------

_TILE_ROWS = 4  # output rows per banded depthwise GEMM


def _shifts(x: np.ndarray, k: int, stride: int, top: int, left: int, rows: int, wo: int,
            row_major: bool = False) -> np.ndarray:
    """The row-shift copy X[c, r, j, wo*N + n] = x[c, top + r, left + stride*wo + j, n], zero outside ``x``.

    A contiguous (C, rows, k, Wo*N) array, or (rows, C, k, Wo*N) if ``row_major``.
    """
    c, h, wd, n = x.shape
    buf = np.zeros((rows, c, k, wo, n) if row_major else (c, rows, k, wo, n), dtype=x.dtype)
    cols = buf.swapaxes(0, 1) if row_major else buf
    r0, r1 = max(0, -top), min(rows, h - top)
    for j in range(k):
        # output column o reads input column left + stride*o + j, in range for o in [a, b)
        a, b = max(0, -((left + j) // stride)), min(wo, (wd - 1 - left - j) // stride + 1)
        if r0 < r1 and a < b:
            x0 = left + stride * a + j
            cols[:, r0:r1, j, a:b] = x[:, top + r0:top + r1, x0:x0 + stride * (b - a - 1) + 1:stride]
    return buf.reshape(*buf.shape[:3], wo * n)


def _cols(x: np.ndarray, k: int, stride: int, padding: int, depthwise: bool) -> np.ndarray:
    """Patches of the (C, H, W, N) input, zero-padded by ``padding`` on each side.

    The ``_shifts`` copy of the stride*(Ho - 1) + k padded rows the output
    reads, row-major when dense; an unpadded stride-1 1x1 dense kernel's
    patches are ``x`` itself, reshaped to (C, H*W*N).
    """
    if not depthwise and k == 1 and stride == 1 and not padding:
        return x.reshape(x.shape[0], -1)
    ho, wo = (conv_out_dim(d, k, stride, padding) for d in x.shape[1:3])
    return _shifts(x, k, stride, -padding, -padding, stride * (ho - 1) + k, wo, not depthwise)


def _tiles(rows: int) -> list[tuple[int, int, int]]:
    """(first row, tile height, tile count): whole tiles of output rows, then the rest as one tile."""
    th = min(_TILE_ROWS, rows)
    count, rest = divmod(rows, th)
    return [(0, th, count)] + ([(count * th, rest, 1)] if rest else [])


def _windows(cols: np.ndarray, ky: int, stride: int, row0: int, th: int, count: int) -> np.ndarray:
    """``count`` overlapping (L*kx, Wo*N) row windows of a depthwise ``cols``, read-only.

    Window t feeds output rows row0 + t*th .. + th - 1 and covers the
    L = stride*(th - 1) + ky input rows they read.
    """
    c, _, kx, m = cols.shape
    sc, sr, sj, se = cols.strides
    return np.lib.stride_tricks.as_strided(
        cols[:, stride * row0:], (c, count, (stride * (th - 1) + ky) * kx, m),
        (sc, stride * th * sr, sj, se), writeable=False)


def _band(a: np.ndarray, ky: int, kx: int, stride: int) -> np.ndarray:
    """The (C, th, ky, kx) taps of a (C, th, L*kx) banded matrix, as a strided view.

    Row h of the band holds tap (i, j) at column (stride*h + i)*kx + j.
    """
    sc, sh, se = a.strides
    return np.lib.stride_tricks.as_strided(a, (a.shape[0], a.shape[1], ky, kx),
                                           (sc, sh + stride * kx * se, kx * se, se))


def _row_windows(cols: np.ndarray, ky: int, stride: int, ho: int) -> np.ndarray:
    """The (Ho, ky*C*kx, Wo*N) windows of a row-major ``cols``, one per output row, read-only."""
    rows, c, kx, m = cols.shape
    return _windows(cols.reshape(1, rows, c * kx, m), ky, stride, 0, 1, ho)[0]


def _conv(cols: np.ndarray, w: np.ndarray, stride: int, shape: tuple[int, int, int],
          depthwise: bool) -> np.ndarray:
    """Convolve the patches ``cols`` with a (Cout, Cin, ky, kx) kernel; ``shape`` is the output (Ho, Wo, N).

    ``stride`` is the step between the input rows that consecutive output
    rows start at.  Dense, it is one GEMM per output row, all in one batched
    ``matmul``; depthwise, one per channel and tile of output rows, its
    banded (th, L*kx) tap matrix times its row window.
    """
    cout, _, ky, kx = w.shape
    if cols.ndim == 2:  # pointwise: the patches are the input itself
        return (w.reshape(cout, -1) @ cols).reshape(cout, *shape)
    m = cols.shape[3]
    y = np.empty((cout, shape[0], m), dtype=np.result_type(cols, w))
    if not depthwise:
        np.matmul(w.transpose(0, 2, 1, 3).reshape(cout, -1), _row_windows(cols, ky, stride, shape[0]),
                  out=y.transpose(1, 0, 2))
        return y.reshape(cout, *shape)
    for row0, th, count in _tiles(shape[0]):
        band = np.zeros((cout, th, (stride * (th - 1) + ky) * kx), dtype=w.dtype)
        _band(band, ky, kx, stride)[...] = w
        np.matmul(band[:, None], _windows(cols, ky, stride, row0, th, count),
                  out=y[:, row0:row0 + th * count].reshape(cout, count, th, m))
    return y.reshape(cout, *shape)


def _phase_taps(size: int, gsize: int, k: int, stride: int,
                padding: int) -> list[tuple[int, int, list[tuple[int, slice, slice]]]]:
    """For one spatial axis: each output phase's origin, length and taps.

    Phase ``r0`` holds outputs ``r0::stride``; a tap ``i`` lands on it when
    ``r0 + padding - i`` is a multiple of the stride, and is listed, in
    ascending order, with the block rows it adds to and the ``gy`` rows it
    reads (tap ``i`` feeds output ``r`` from ``gy`` row ``(r + padding - i) / stride``).
    The listed taps of a phase are consecutive, each reading one ``gy`` row
    before the last.
    """
    phases = []
    for r0 in range(min(stride, size)):
        count = len(range(r0, size, stride))
        taps = []
        for i in range((r0 + padding) % stride, k, stride):
            d = (r0 + padding - i) // stride
            lo, hi = max(0, -d), min(count, gsize - d)
            if lo < hi:
                taps.append((i, slice(lo, hi), slice(lo + d, hi + d)))
        phases.append((r0, count, taps))
    return phases


def _conv_input_adjoint(gy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                        size: tuple[int, int], depthwise: bool) -> np.ndarray:
    """Adjoint of ``_conv`` with respect to its (H, W) = ``size`` input.

    At stride 1, for both kinds, it is the convolution of ``gy``, padded by
    k - 1 - padding, with the flipped kernel (read as (C, Cout, k, k) when
    dense); when padding >= k, ``gy`` is cropped by padding - k + 1 instead,
    since its outermost rows and columns reach no input.  A pointwise layer's
    cols are ``gy`` itself, so its adjoint is the one GEMM W.T @ gy.

    At a larger stride, each output phase (y0, x0), rows ``y0::stride`` and
    columns ``x0::stride``, is built as one block and written once into its
    strided slots of the output; a phase no tap reaches is zero.  Depthwise,
    the block is a stride-1 banded convolution, through ``_conv``, of ``gy``
    with the phase's sub-kernel: the taps that land on it, reversed on both
    axes, sliding over ``gy`` one row per output from the row the last tap
    reads first.  Its row-shift copy reads zeros outside ``gy``, so ``gy`` is
    never padded.  One stride-1 convolution of a zero-inserted ``gy`` instead
    won only at batch 1 (dec4's 16-channel 16->32 layer: 0.18 against
    0.35 ms) and lost at batch 16 and 32 (3.3 against 2.1 ms, 9.2 against
    5.0 ms).  Dense, the block is zeroed and every tap landing on the phase
    adds the in-range slice of its stamp, taps in (i, j) order.  The stamps
    come tap-major from one GEMM, the (k*k*C, Cout) kernel times ``gy`` as
    (Cout, Ho*Wo*N), each a contiguous (C, Ho, Wo, N) slab of the
    (k, k, C, Ho, Wo, N) result; a dense phase run as its own convolution
    measured 1.6-4.1 times slower than the stamps.
    """
    cout, ho, wo, n = gy.shape
    k = w.shape[2]
    h, wd = size
    if stride == 1:
        flipped = w[:, :, ::-1, ::-1] if depthwise else w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        pad = k - 1 - padding
        if pad < 0:
            gy, pad = gy[:, -pad:ho + pad, -pad:wo + pad], 0
        return _conv(_cols(gy, k, 1, pad, depthwise), flipped, 1, (h, wd, n), depthwise)
    c = w.shape[0] if depthwise else w.shape[1]
    dtype = np.result_type(gy, w)
    if not depthwise:
        stamps = (w.transpose(2, 3, 1, 0).reshape(-1, cout) @ gy.reshape(cout, -1)).reshape(k, k, c, ho, wo, n)
    out = np.empty((c, h, wd, n), dtype=dtype)
    cols = _phase_taps(wd, wo, k, stride, padding)
    for y0, ny, ytaps in _phase_taps(h, ho, k, stride, padding):
        for x0, nx, xtaps in cols:
            if depthwise and ytaps and xtaps:
                iy, ix = [i for i, _, _ in reversed(ytaps)], [j for j, _, _ in reversed(xtaps)]
                block = _conv(_shifts(gy, len(ix), 1, (y0 + padding - iy[0]) // stride,
                                      (x0 + padding - ix[0]) // stride, ny + len(iy) - 1, nx),
                              w[:, :, iy][:, :, :, ix], 1, (ny, nx, n), True)
            else:  # dense, or a depthwise phase no tap reaches, which stays zero
                block = np.zeros((c, ny, nx, n), dtype=dtype)
                for i, by, gy_rows in ytaps:
                    for j, bx, gy_cols in xtaps:
                        block[:, by, bx] += stamps[i, j][:, gy_rows, gy_cols]
            out[:, y0::stride, x0::stride] = block
            del block  # before the next phase makes its copy
    return out


def _conv_weight_grad(cols: np.ndarray, gy: np.ndarray, stride: int, w_shape: tuple[int, ...],
                      depthwise: bool) -> np.ndarray:
    """Gradient of ``_conv`` with respect to its kernel, given the patches it read.

    Each output row's (dense) or tile's (depthwise) ``gy`` times its window
    transposed, summed over rows or tiles; a depthwise sum is the band's
    gradient, and the taps are read back off it.
    """
    cout, ho = gy.shape[:2]
    ky = w_shape[2]
    if cols.ndim == 2:  # pointwise
        return (gy.reshape(cout, -1) @ cols.T).reshape(w_shape)
    kx, m = cols.shape[2:]
    gy = gy.reshape(cout, ho, m)
    if not depthwise:
        gw = (gy.transpose(1, 0, 2) @ _row_windows(cols, ky, stride, ho).transpose(0, 2, 1)).sum(axis=0)
        return gw.reshape(cout, ky, -1, kx).transpose(0, 2, 1, 3).copy()  # C order: Adam is slower on a view
    gw = np.zeros((cout, ky, kx), dtype=np.result_type(cols, gy))
    for row0, th, count in _tiles(ho):
        win = _windows(cols, ky, stride, row0, th, count)
        band = (gy[:, row0:row0 + th * count].reshape(cout, count, th, m) @ win.transpose(0, 1, 3, 2)).sum(axis=1)
        gw += _band(band, ky, kx, stride).sum(axis=1)
    return gw[:, None]


def _forward(op: str, x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int,
             padding: int, output_padding: int | None, depthwise: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and run one layer call; returns (y, patches), patches None for a transposed layer."""
    size = _validate(op, x, w, b, stride, padding, output_padding, depthwise)
    if output_padding is None:
        cols = _cols(x, w.shape[2], stride, padding, depthwise)
        y = _conv(cols, w, stride, (*size, x.shape[3]), depthwise)
    else:
        cols, y = None, _conv_input_adjoint(x, w, stride, padding, size, depthwise)
    if b is not None:
        y += b[:, None, None, None]
    return y, cols


def _channel_sum(gy: np.ndarray) -> np.ndarray:
    return gy.reshape(gy.shape[0], -1).sum(axis=1)


def _backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int,
              depthwise: bool, cols: np.ndarray | None,
              input_grad: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    # the weight gradient first, so that a depthwise layer's patches are
    # freed before the input adjoint makes its own
    gw = _conv_weight_grad(_cols(x, w.shape[2], stride, padding, depthwise) if cols is None else cols,
                           gy, stride, w.shape, depthwise)
    gx = _conv_input_adjoint(gy, w, stride, padding, x.shape[1:3], depthwise) if input_grad else None
    return gx, gw, _channel_sum(gy)


def _tbackward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int,
               depthwise: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the adjoint of the input-adjoint is the convolution itself, read with
    # the (Cin,Cout,k,k) array as its (Cout',Cin',k,k) kernel
    cols = _cols(gy, w.shape[2], stride, padding, depthwise)
    gx = _conv(cols, w, stride, x.shape[1:], depthwise)
    return gx, _conv_weight_grad(cols, x, stride, w.shape, depthwise), _channel_sum(gy)


# ---------------------------------------------------------------------------
# the four layer kinds
# ---------------------------------------------------------------------------

def conv2d_forward_cached(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                          stride: int, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass returning (output, patches) so backward can reuse them.

    The patches are the (rows, C, k, Wo*N) row-shift copy of ``_cols``, or the
    input itself, reshaped, for an unpadded stride-1 1x1 kernel.
    """
    return _forward("conv2d", x, w, b, stride, padding, None, False)


def conv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                    stride: int, padding: int, col: np.ndarray | None = None, *,
                    input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (gx, gw, gb) of a conv2d_forward_cached call given upstream gy.

    gx is None, and not computed, when ``input_grad`` is false.
    """
    return _backward(x, w, gy, stride, padding, False, col, input_grad)


def depthwise_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                             stride: int, padding: int) -> np.ndarray:
    return _forward("depthwise_conv2d", x, w, b, stride, padding, None, True)[0]


def depthwise_conv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int, *,
                              input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    return _backward(x, w, gy, stride, padding, True, None, input_grad)


def tconv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                    stride: int, padding: int, output_padding: int) -> np.ndarray:
    return _forward("tconv2d", x, w, b, stride, padding, output_padding, False)[0]


def tconv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                     stride: int, padding: int, output_padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _tbackward(x, w, gy, stride, padding, False)


def depthwise_tconv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                              stride: int, padding: int, output_padding: int) -> np.ndarray:
    return _forward("depthwise_tconv2d", x, w, b, stride, padding, output_padding, True)[0]


def depthwise_tconv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                               stride: int, padding: int, output_padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _tbackward(x, w, gy, stride, padding, True)


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def prelu_forward(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    if x.ndim != 4 or min(x.shape) < 1:
        raise ShapeError(f"prelu: input must be rank 4 (C,H,W,N) with dims >= 1, got shape {x.shape}")
    if slopes.shape != (x.shape[0],):
        raise ShapeError(f"prelu: slopes length {slopes.shape} != channels {x.shape[0]}")
    # max(x, 0) + s * min(x, 0): branch-free, where a per-element select
    # mispredicts on random signs and took twice as long
    y = np.minimum(x, 0.0)
    y *= slopes[:, None, None, None]
    y += np.maximum(x, 0.0)
    return y


def prelu_backward(x: np.ndarray, slopes: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # gy where x >= 0 (so at exactly 0 too) and s * gy elsewhere, picked on the bits: a masked
    # copy is the per-element select prelu_forward avoids (0.55 against 0.15 ms at 32x8x8x32)
    gx = slopes[:, None, None, None] * gy
    bits = gx.view(np.int64)
    bits ^= (bits ^ gy.view(np.int64)) * (x >= 0)
    gs = _channel_sum(np.minimum(x, 0.0) * gy)
    return gx, gs


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    # one branch-free pass: x >= 0 gives 1 / (1 + e^-x) and x < 0 gives e^x / (1 + e^x);
    # min(x, -x) is -|x|, so exp never overflows, and it keeps a NaN's sign bit; as e <= 1,
    # max(e, x >= 0) is the numerator, where a select took 0.69 against 0.47 ms at 3x32x32x16
    e = np.exp(np.minimum(x, -x))
    y = np.maximum(e, x >= 0)
    y /= 1.0 + e
    return y


def sigmoid_backward(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return y * (1.0 - y) * gy
