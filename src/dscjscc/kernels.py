"""NCHW convolution kernels built on one convolution and its two adjoints.

Everything here operates on plain float64 numpy arrays; the graph layer in
``autodiff`` wraps these into differentiable nodes.  Convolution semantics are
cross-correlation (no kernel flip), the universal deep-learning convention.

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

Depthwise layers run batch-innermost: ``_cols`` pads the input once into
(H, W, C, N) memory and returns a strided (Ho, Wo, C, N, k, k) window view
of it, which the forward and weight-gradient ``einsum`` calls read without a
copy, and the adjoint scatters (H, W, C, N) stamps into an (H, W, C, N) grid.
Every tap then reads long contiguous (C, N) runs.  Batch-outermost
(N, C, Ho, Wo, k, k) patches had runs one output row long, 8 elements in the
8x8 middle layers, and ``einsum(optimize=True)`` copied them (27 MB for a
stride-2 32x16x32x32 layer): the four depthwise kernels of a batch-32 train
step took about twice as long.

The input-adjoint is one scatter loop: every upstream pixel adds its weighted
k x k kernel into a strided grid, one strided add per tap, through
spatial-first (H, W, C, N) views for both kernel kinds.  A dense kernel's
stamps come tap-major from one GEMM, as a (k, k, C, N, Ho, Wo) block over an
(N, C, H, W) grid, so each add reads one contiguous slab.  The layout
matters: read pixel-major, as rows of C*k*k taps, every stamp is a view with
an innermost stride of C*k*k elements, and at batch 32 the 5x5 adjoints ran
2-3x slower.
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
        raise ShapeError(f"{op}: input must be rank 4 (N,C,H,W) with dims >= 1, got shape {x.shape}")
    if w.ndim != 4 or w.shape[2] != w.shape[3] or min(w.shape) < 1:
        raise ShapeError(f"{op}: kernel weights must be rank 4 with square K x K taps "
                         f"and dims >= 1, got shape {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"{op}: stride must be >= 1 and padding >= 0, got stride={stride}, padding={padding}")
    transposed = output_padding is not None
    if transposed and not 0 <= output_padding < stride:
        raise ShapeError(f"{op}: output_padding must satisfy 0 <= output_padding < stride, "
                         f"got output_padding={output_padding}, stride={stride}")
    _, c, h, wd = x.shape
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

def _rows(a: np.ndarray) -> np.ndarray:
    # (N,C,H,W) -> (N*H*W, C), one row per pixel
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).reshape(-1, a.shape[1])


def _cols(x: np.ndarray, k: int, stride: int, padding: int, depthwise: bool) -> np.ndarray:
    """Patches of the padded input.

    Dense: the (N*Ho*Wo, C*k*k) im2col matrix.  Depthwise: a strided
    (Ho, Wo, C, N, k, k) view of the input, padded once into batch-innermost
    (H, W, C, N) memory; read-only, never written to and never copied.
    """
    if depthwise:
        n, c, h, wd = x.shape
        xp = np.zeros((h + 2 * padding, wd + 2 * padding, c, n), dtype=x.dtype)
        xp[padding:padding + h, padding:padding + wd] = x.transpose(2, 3, 1, 0)
        return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))[::stride, ::stride]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    pt = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = pt.shape[:4]
    return np.ascontiguousarray(pt.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * k * k)


def _hwcn(a: np.ndarray) -> np.ndarray:
    # (N,C,H,W) -> batch-innermost (H,W,C,N) memory
    return np.ascontiguousarray(a.transpose(2, 3, 1, 0))


def _conv(cols: np.ndarray, w: np.ndarray, shape: tuple[int, int, int], depthwise: bool) -> np.ndarray:
    """Convolve the patches ``cols`` with a (Cout, Cin, k, k) kernel; ``shape`` is the output (N, Ho, Wo)."""
    if depthwise:
        return np.ascontiguousarray(np.einsum("hwcnij,cij->hwcn", cols, w[:, 0]).transpose(3, 2, 0, 1))
    y = cols @ w.reshape(w.shape[0], -1).T
    return np.ascontiguousarray(y.reshape(*shape, -1).transpose(0, 3, 1, 2))


def _conv_input_adjoint(gy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                        size: tuple[int, int], depthwise: bool) -> np.ndarray:
    """Adjoint of ``_conv`` with respect to its (H, W) = ``size`` input.

    Every pixel of ``gy`` adds its weighted k x k stamp into the strided,
    padded input grid; the padding is cropped off at the end.  The one
    scatter loop indexes spatial-first (H, W, C, N) views of the grid and of
    the stamps, for both kernel kinds; numpy runs each in-place add in the
    grid's memory order, so the views only fix the indexing.

    Depthwise: grid and ``gy`` live in batch-innermost (H, W, C, N) memory,
    and each stamp is ``gy`` times one tap of every channel's kernel, so each
    add walks contiguous (C, N) runs.  Dense: the stamps come tap-major from
    one GEMM, the (k*k*C, Cout) kernel times ``gy`` as (Cout, N*Ho*Wo), and
    the grid stays in (N, C, H, W) memory, so each add reads one contiguous
    (C, N, Ho, Wo) slab of the (k, k, C, N, Ho, Wo) result.  Storing the
    dense grid channel-major moved where the allocator placed the large
    temporaries and raised the peak resident set of a batch-32 train step by
    about 6 %.
    """
    n, _, ho, wo = gy.shape
    k = w.shape[2]
    h, wd = size
    hp, wp = h + 2 * padding, wd + 2 * padding
    dtype = np.result_type(gy, w)
    if depthwise:
        c = w.shape[0]
        gyt = _hwcn(gy)
        taps = np.repeat(w[:, 0].transpose(1, 2, 0)[..., None], n, axis=3)  # (k, k, C, N)
        grid = np.zeros((hp, wp, c, n), dtype=dtype)
    else:
        cout, c = w.shape[:2]
        gcol = (w.transpose(2, 3, 1, 0).reshape(-1, cout) @ gy.transpose(1, 0, 2, 3).reshape(cout, -1))
        gcol = gcol.reshape(k, k, c, n, ho, wo).transpose(0, 1, 4, 5, 2, 3)
        grid = np.zeros((n, c, hp, wp), dtype=dtype).transpose(2, 3, 1, 0)
    for i in range(k):
        for j in range(k):
            stamp = gyt * taps[i, j] if depthwise else gcol[i, j]
            grid[i:i + stride * ho:stride, j:j + stride * wo:stride] += stamp
    return np.ascontiguousarray(grid[padding:padding + h, padding:padding + wd].transpose(3, 2, 0, 1))


def _conv_weight_grad(cols: np.ndarray, gy: np.ndarray, w_shape: tuple[int, ...],
                      depthwise: bool) -> np.ndarray:
    """Gradient of ``_conv`` with respect to its kernel, given the patches it read."""
    if depthwise:
        return np.einsum("hwcnij,hwcn->cij", cols, _hwcn(gy))[:, None]
    return (_rows(gy).T @ cols).reshape(w_shape)


def _forward(op: str, x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int,
             padding: int, output_padding: int | None, depthwise: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and run one layer call; returns (y, patches), patches None for a transposed layer."""
    size = _validate(op, x, w, b, stride, padding, output_padding, depthwise)
    if output_padding is None:
        cols = _cols(x, w.shape[2], stride, padding, depthwise)
        y = _conv(cols, w, (x.shape[0], *size), depthwise)
    else:
        cols, y = None, _conv_input_adjoint(x, w, stride, padding, size, depthwise)
    if b is not None:
        y += b[None, :, None, None]
    return y, cols


def _backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int,
              depthwise: bool, cols: np.ndarray | None,
              input_grad: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    if cols is None:
        cols = _cols(x, w.shape[2], stride, padding, depthwise)
    gx = _conv_input_adjoint(gy, w, stride, padding, x.shape[2:], depthwise) if input_grad else None
    return gx, _conv_weight_grad(cols, gy, w.shape, depthwise), gy.sum(axis=(0, 2, 3))


def _tbackward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int,
               depthwise: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the adjoint of the input-adjoint is the convolution itself, read with
    # the (Cin,Cout,k,k) array as its (Cout',Cin',k,k) kernel
    cols = _cols(gy, w.shape[2], stride, padding, depthwise)
    gx = _conv(cols, w, (x.shape[0], x.shape[2], x.shape[3]), depthwise)
    return gx, _conv_weight_grad(cols, x, w.shape, depthwise), gy.sum(axis=(0, 2, 3))


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
        raise ShapeError(f"prelu: input must be rank 4 (N,C,H,W) with dims >= 1, got shape {x.shape}")
    if slopes.shape != (x.shape[1],):
        raise ShapeError(f"prelu: slopes length {slopes.shape} != channels {x.shape[1]}")
    s = slopes[None, :, None, None]
    return np.where(x >= 0, x, s * x)


def prelu_backward(x: np.ndarray, slopes: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # subgradient at exactly 0 takes the positive branch
    s = slopes[None, :, None, None]
    gx = np.where(x >= 0, gy, s * gy)
    gs = np.where(x >= 0, 0.0, x * gy).sum(axis=(0, 2, 3))
    return gx, gs


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return y * (1.0 - y) * gy
