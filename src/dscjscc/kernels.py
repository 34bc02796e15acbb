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
depthwise layer is the groups=C case): ``_cols`` gathers input patches,
``_conv`` convolves them, ``_conv_input_adjoint`` is its adjoint with respect
to the input and ``_conv_weight_grad`` its gradient with respect to the
kernel.  A transposed convolution is the input-adjoint of the matching
convolution (Dumoulin & Visin, arXiv:1603.07285), so its backward pass is the
convolution itself, and its weight gradient is the convolution's with input
and upstream swapped.

In this layout every dense kernel is one GEMM on a channel-major matrix.  A
dense conv is W(Cout, C*k*k) @ cols(C*k*k, Ho*Wo*N), and the product is
already the (C, H, W, N) output; a pointwise conv's cols are the input
itself, reshaped without a copy (MobileNets, arXiv:1704.04861, runs its 1x1
layers the same way).  The weight gradient is gy(Cout, Ho*Wo*N) @ cols.T, and
the input adjoint's stamps are W.T @ gy.  Depthwise taps read a strided
(C, Ho, Wo, N) window view of the padded input, whose rows are runs of Wo*N
contiguous values at stride 1.  The layout replaced NCHW between layers, with
(H, W, C, N) copies inside the depthwise kernels and (N*Ho*Wo, C*k*k) im2col
rows inside the dense ones, so that each kernel converted its input and its
output.  On one CPU, the kernel calls of one batch-32 forward and backward
pass of all ten layers took 108 instead of 153 ms on dsc-jscc-100 and 135
instead of 182 ms on the baseline.

The input-adjoint gathers per output phase.  A stride-s transposed
convolution splits into s*s stride-1 sums, one per output phase: the rows
and columns that share an offset modulo s, each fed by the taps whose offset
matches (sub-pixel convolution: Shi et al., arXiv:1609.05158 and
arXiv:1609.07009).  Each phase is built as one contiguous block from the
in-range slices of its taps' stamps and written once into its strided slots
of the output, so no padded grid is zeroed, cropped or updated through
strided read-modify-write adds.  A stride-1 adjoint is instead, where it is
cheaper, the convolution of ``gy`` with the flipped kernel (see
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

def _cols(x: np.ndarray, k: int, stride: int, padding: int, depthwise: bool) -> np.ndarray:
    """Patches of the padded (C, H, W, N) input.

    Depthwise: a strided (C, Ho, Wo, N, k, k) window view, read-only, never
    written to and never copied.  Dense: the (C*k*k, Ho*Wo*N) im2col matrix,
    which for an unpadded stride-1 1x1 kernel is ``x`` itself, reshaped.
    """
    if padding:
        c, h, wd, n = x.shape
        xp = np.zeros((c, h + 2 * padding, wd + 2 * padding, n), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + wd] = x
        x = xp
    pt = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    if depthwise:
        return pt
    c, ho, wo, n = pt.shape[:4]
    return np.ascontiguousarray(pt.transpose(0, 4, 5, 1, 2, 3)).reshape(c * k * k, ho * wo * n)


def _conv(cols: np.ndarray, w: np.ndarray, shape: tuple[int, int, int], depthwise: bool) -> np.ndarray:
    """Convolve the patches ``cols`` with a (Cout, Cin, k, k) kernel; ``shape`` is the output (Ho, Wo, N)."""
    if depthwise:
        return np.einsum("chwnij,cij->chwn", cols, w[:, 0])
    return (w.reshape(w.shape[0], -1) @ cols).reshape(-1, *shape)


def _phase_taps(size: int, gsize: int, k: int, stride: int,
                padding: int) -> list[tuple[int, int, list[tuple[int, slice, slice]]]]:
    """For one spatial axis: each output phase's origin, length and taps.

    Phase ``r0`` holds outputs ``r0::stride``; a tap ``i`` lands on it when
    ``r0 + padding - i`` is a multiple of the stride, and is listed, in
    ascending order, with the block rows it adds to and the ``gy`` rows it
    reads (tap ``i`` feeds output ``r`` from ``gy`` row ``(r + padding - i) / stride``).
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

    A stride-1 adjoint with padding < k is the convolution of ``gy``, padded
    by k - 1 - padding, with the flipped kernel (read as (C, Cout, k, k) when
    dense).  It is taken for every depthwise layer and for a dense one whose
    im2col block is smaller than the k*k*C stamps it replaces, which for
    k = 5 means Cout < C; a pointwise layer's cols are ``gy`` itself, so its
    adjoint is the one GEMM W.T @ gy.  At batch 32 on one CPU the 32-channel
    8x8 depthwise tconv took 2.3 ms this way against 4.4 in gather form.

    Otherwise, gather form: output phase (y0, x0), rows ``y0::stride`` and
    columns ``x0::stride``, is one zeroed (C, ny, nx, N) block to which every
    tap landing on it adds the in-range slice of its stamp, taps in (i, j)
    order; the block is then written once into its strided slots of the
    output (at stride 1 the one phase is the output itself).  Depthwise, each
    stamp is a slice of ``gy`` times one tap of every channel's kernel.
    Dense, the stamps come tap-major from one GEMM, the (k*k*C, Cout) kernel
    times ``gy`` as (Cout, Ho*Wo*N), each a contiguous (C, Ho, Wo, N) slab of
    the (k, k, C, Ho, Wo, N) result.
    """
    cout, ho, wo, n = gy.shape
    k = w.shape[2]
    h, wd = size
    c = w.shape[0] if depthwise else w.shape[1]
    if stride == 1 and padding < k and (depthwise or k == 1 or cout < c):
        flipped = w[:, :, ::-1, ::-1] if depthwise else w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv(_cols(gy, k, 1, k - 1 - padding, depthwise), flipped, (h, wd, n), depthwise)
    dtype = np.result_type(gy, w)
    if not depthwise:
        stamps = (w.transpose(2, 3, 1, 0).reshape(-1, cout) @ gy.reshape(cout, -1)).reshape(k, k, c, ho, wo, n)
    out = np.empty((c, h, wd, n), dtype=dtype)
    cols = _phase_taps(wd, wo, k, stride, padding)
    for y0, ny, ytaps in _phase_taps(h, ho, k, stride, padding):
        for x0, nx, xtaps in cols:
            block = out if stride == 1 else np.empty((c, ny, nx, n), dtype=dtype)
            block.fill(0.0)
            for i, by, gy_rows in ytaps:
                for j, bx, gy_cols in xtaps:
                    src = (slice(None), gy_rows, gy_cols)
                    block[:, by, bx] += gy[src] * w[:, 0, i, j, None, None, None] if depthwise else stamps[i, j][src]
            if block is not out:
                out[:, y0::stride, x0::stride] = block
    return out


def _conv_weight_grad(cols: np.ndarray, gy: np.ndarray, w_shape: tuple[int, ...],
                      depthwise: bool) -> np.ndarray:
    """Gradient of ``_conv`` with respect to its kernel, given the patches it read."""
    if depthwise:
        return np.einsum("chwnij,chwn->cij", cols, gy)[:, None]
    return (gy.reshape(gy.shape[0], -1) @ cols.T).reshape(w_shape)


def _forward(op: str, x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int,
             padding: int, output_padding: int | None, depthwise: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and run one layer call; returns (y, patches), patches None for a transposed layer."""
    size = _validate(op, x, w, b, stride, padding, output_padding, depthwise)
    if output_padding is None:
        cols = _cols(x, w.shape[2], stride, padding, depthwise)
        y = _conv(cols, w, (*size, x.shape[3]), depthwise)
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
    if cols is None:
        cols = _cols(x, w.shape[2], stride, padding, depthwise)
    gx = _conv_input_adjoint(gy, w, stride, padding, x.shape[1:3], depthwise) if input_grad else None
    return gx, _conv_weight_grad(cols, gy, w.shape, depthwise), _channel_sum(gy)


def _tbackward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int,
               depthwise: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the adjoint of the input-adjoint is the convolution itself, read with
    # the (Cin,Cout,k,k) array as its (Cout',Cin',k,k) kernel
    cols = _cols(gy, w.shape[2], stride, padding, depthwise)
    gx = _conv(cols, w, x.shape[1:], depthwise)
    return gx, _conv_weight_grad(cols, x, w.shape, depthwise), _channel_sum(gy)


# ---------------------------------------------------------------------------
# the four layer kinds
# ---------------------------------------------------------------------------

def conv2d_forward_cached(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                          stride: int, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass returning (output, column matrix) so backward can reuse it."""
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
    # subgradient at exactly 0 takes the positive branch
    gx = slopes[:, None, None, None] * gy
    np.copyto(gx, gy, where=x >= 0)
    gs = _channel_sum(np.minimum(x, 0.0) * gy)
    return gx, gs


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    # one branch-free pass: x >= 0 gives 1 / (1 + e^-x) and x < 0 gives e^x / (1 + e^x);
    # min(x, -x) is -|x|, so exp never overflows, and it keeps a NaN's sign bit
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return y * (1.0 - y) * gy
