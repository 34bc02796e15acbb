"""Dense NCHW convolution primitives with hand-written backward passes.

Everything here operates on plain float64 numpy arrays; the graph layer in
``autodiff`` wraps these into differentiable nodes.  Convolution semantics are
cross-correlation (no kernel flip), the universal deep-learning convention.

Weight layouts:
    standard conv        (Cout, Cin, K, K)
    transposed conv      (Cin, Cout, K, K)
    depthwise (both)     (C, 1, K, K)

A transposed convolution is computed in stamp form: every input pixel adds
its weighted kernel into the strided output grid.  That form is the exact
adjoint of the matching forward convolution and costs one GEMM at input
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor/kernel dimensions are incompatible, naming the offender."""


@dataclass
class ConvKernel:
    """Learnable contents of one convolution: weights plus optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.weights.ndim != 4:
            raise ShapeError(f"kernel weights must be rank 4, got rank {self.weights.ndim}")
        if self.weights.shape[2] != self.weights.shape[3]:
            raise ShapeError(f"kernel must be square, got {self.weights.shape[2]}x{self.weights.shape[3]}")
        if min(self.weights.shape) < 1:
            raise ShapeError(f"kernel dims must be >= 1, got {self.weights.shape}")


def conv_out_dim(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def tconv_out_dim(size: int, k: int, stride: int, padding: int, output_padding: int) -> int:
    return (size - 1) * stride - 2 * padding + k + output_padding


def _check_input(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be rank 4 (N,C,H,W), got rank {x.ndim}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} dims must all be >= 1, got {x.shape}")


def _pad_hw(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _patches(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    # (N,C,Hp,Wp) -> strided view (N,C,Ho,Wo,k,k); read-only, never written to
    v = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return v[:, :, ::stride, ::stride]


# ---------------------------------------------------------------------------
# standard convolution
# ---------------------------------------------------------------------------

def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    # (N,C,Hp,Wp) -> (N*Ho*Wo, C*k*k) column matrix
    pt = _patches(xp, k, stride)  # (N,C,Ho,Wo,k,k)
    n, c, ho, wo = pt.shape[:4]
    return np.ascontiguousarray(pt.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * k * k)


def conv2d_forward_cached(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                          stride: int, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass returning (output, column matrix) so backward can reuse it."""
    _check_input(x)
    n, c, h, wd = x.shape
    cout, cin, k, _ = w.shape
    if cin != c:
        raise ShapeError(f"conv2d: kernel expects {cin} input channels, input has {c}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: stride must be >= 1 and padding >= 0, got stride={stride}, padding={padding}")
    ho, wo = conv_out_dim(h, k, stride, padding), conv_out_dim(wd, k, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: output spatial dims ({ho},{wo}) collapse below 1 for input {h}x{wd}")
    col = _im2col(_pad_hw(x, padding), k, stride)
    y = np.ascontiguousarray(
        (col @ w.reshape(cout, cin * k * k).T).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2))
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"conv2d: bias length {b.shape} != output channels {cout}")
        y += b[None, :, None, None]
    return y, col


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                   stride: int, padding: int) -> np.ndarray:
    return conv2d_forward_cached(x, w, b, stride, padding)[0]


def conv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                    stride: int, padding: int,
                    col: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (gx, gw, gb) of a conv2d_forward call given upstream gy."""
    n, c, h, wd = x.shape
    cout, cin, k, _ = w.shape
    ho, wo = gy.shape[2], gy.shape[3]
    if col is None:
        col = _im2col(_pad_hw(x, padding), k, stride)
    gy2 = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(n * ho * wo, cout)
    gw = (gy2.T @ col).reshape(cout, cin, k, k)
    gb = gy.sum(axis=(0, 2, 3))
    gcol = (gy2 @ w.reshape(cout, cin * k * k)).reshape(n, ho, wo, cin, k, k)
    gcol = gcol.transpose(0, 3, 1, 2, 4, 5)  # (N,C,Ho,Wo,k,k)
    hp, wp = h + 2 * padding, wd + 2 * padding
    gxp = np.zeros((n, c, hp, wp), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcol[:, :, :, :, i, j]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return np.ascontiguousarray(gx), gw, gb


# ---------------------------------------------------------------------------
# depthwise convolution
# ---------------------------------------------------------------------------

def depthwise_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                             stride: int, padding: int) -> np.ndarray:
    _check_input(x)
    n, c, h, wd = x.shape
    ch, one, k, _ = w.shape
    if one != 1:
        raise ShapeError(f"depthwise kernel must have one input slot per group, got {one}")
    if ch != c:
        raise ShapeError(f"depthwise_conv2d: kernel has {ch} channels, input has {c}")
    ho, wo = conv_out_dim(h, k, stride, padding), conv_out_dim(wd, k, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"depthwise_conv2d: output spatial dims ({ho},{wo}) collapse below 1")
    pt = _patches(_pad_hw(x, padding), k, stride)
    y = np.einsum("nchwkl,ckl->nchw", pt, w[:, 0], optimize=True)
    if b is not None:
        if b.shape != (c,):
            raise ShapeError(f"depthwise_conv2d: bias length {b.shape} != channels {c}")
        y += b[None, :, None, None]
    return y


def depthwise_conv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                              stride: int, padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, c, h, wd = x.shape
    k = w.shape[2]
    ho, wo = gy.shape[2], gy.shape[3]
    xp = _pad_hw(x, padding)
    pt = _patches(xp, k, stride)
    gw = np.einsum("nchwkl,nchw->ckl", pt, gy, optimize=True)[:, None]
    gb = gy.sum(axis=(0, 2, 3))
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                gy * w[None, :, 0, i, j, None, None]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return gx, gw, gb


# ---------------------------------------------------------------------------
# transposed convolution (adjoint of conv2d)
# ---------------------------------------------------------------------------
# Forward is the stamp form: every input pixel scatters its weighted kernel
# into the (virtually padded) output grid with the given stride.  This is the
# exact adjoint of the matching conv2d, computed at input resolution.

def _validate_tconv(stride: int, padding: int, output_padding: int) -> None:
    if stride < 1 or padding < 0:
        raise ShapeError(f"tconv2d: stride must be >= 1 and padding >= 0, got stride={stride}, padding={padding}")
    if not 0 <= output_padding < stride:
        raise ShapeError(f"tconv2d: output_padding must satisfy 0 <= output_padding < stride, "
                         f"got output_padding={output_padding}, stride={stride}")


def _scatter_stamps(stamps: np.ndarray, stride: int, padding: int,
                    ho: int, wo: int) -> np.ndarray:
    # stamps: (N,Cout,H,W,k,k) per-input-pixel kernel contributions
    n, cout, h, w, k, _ = stamps.shape
    yp = np.zeros((n, cout, ho + 2 * padding, wo + 2 * padding), dtype=stamps.dtype)
    for i in range(k):
        for j in range(k):
            yp[:, :, i:i + stride * h:stride, j:j + stride * w:stride] += stamps[:, :, :, :, i, j]
    return np.ascontiguousarray(yp[:, :, padding:padding + ho, padding:padding + wo])


def tconv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                    stride: int, padding: int, output_padding: int) -> np.ndarray:
    _check_input(x)
    _validate_tconv(stride, padding, output_padding)
    n, c, h, wd = x.shape
    cin, cout, k, _ = w.shape
    if cin != c:
        raise ShapeError(f"tconv2d: kernel expects {cin} input channels, input has {c}")
    ho = tconv_out_dim(h, k, stride, padding, output_padding)
    wo = tconv_out_dim(wd, k, stride, padding, output_padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"tconv2d: output spatial dims ({ho},{wo}) collapse below 1")
    x2 = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * wd, cin)
    stamps = (x2 @ w.reshape(cin, cout * k * k)).reshape(n, h, wd, cout, k, k)
    y = _scatter_stamps(stamps.transpose(0, 3, 1, 2, 4, 5), stride, padding, ho, wo)
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"tconv2d: bias length {b.shape} != output channels {cout}")
        y += b[None, :, None, None]
    return y


def tconv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                     stride: int, padding: int, output_padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, c, h, wd = x.shape
    cin, cout, k, _ = w.shape
    # the adjoint of a stamp-scatter is a patch-gather: a plain conv2d of gy
    # with the same (Cin,Cout,k,k) array read as a (Cout',Cin',k,k) kernel
    gx = conv2d_forward(gy, w, None, stride, padding)
    gb = gy.sum(axis=(0, 2, 3))
    col = _im2col(_pad_hw(gy, padding), k, stride)  # (N*H*W, Cout*k*k)
    x2 = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * wd, cin)
    gw = (x2.T @ col).reshape(cin, cout, k, k)
    return gx, gw, gb


def depthwise_tconv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                              stride: int, padding: int, output_padding: int) -> np.ndarray:
    _check_input(x)
    _validate_tconv(stride, padding, output_padding)
    n, c, h, wd = x.shape
    ch, one, k, _ = w.shape
    if one != 1:
        raise ShapeError(f"depthwise kernel must have one input slot per group, got {one}")
    if ch != c:
        raise ShapeError(f"depthwise_tconv2d: kernel has {ch} channels, input has {c}")
    ho = tconv_out_dim(h, k, stride, padding, output_padding)
    wo = tconv_out_dim(wd, k, stride, padding, output_padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"depthwise_tconv2d: output spatial dims ({ho},{wo}) collapse below 1")
    stamps = x[:, :, :, :, None, None] * w[:, 0][None, :, None, None, :, :]
    y = _scatter_stamps(stamps, stride, padding, ho, wo)
    if b is not None:
        if b.shape != (c,):
            raise ShapeError(f"depthwise_tconv2d: bias length {b.shape} != channels {c}")
        y += b[None, :, None, None]
    return y


def depthwise_tconv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                               stride: int, padding: int, output_padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, c, h, wd = x.shape
    k = w.shape[2]
    gx = depthwise_conv2d_forward(gy, w, None, stride, padding)
    gb = gy.sum(axis=(0, 2, 3))
    pt = _patches(_pad_hw(gy, padding), k, stride)  # (N,C,H,W,k,k)
    gw = np.einsum("nchwij,nchw->cij", pt, x, optimize=True)[:, None]
    return gx, gw, gb


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def prelu_forward(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    _check_input(x)
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


# ---------------------------------------------------------------------------
# spec-surface wrappers taking ConvKernel
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, kernel: ConvKernel, stride: int = 1, padding: int = 0) -> np.ndarray:
    return conv2d_forward(x, kernel.weights, kernel.bias, stride, padding)


def depthwise_conv2d(x: np.ndarray, kernel: ConvKernel, stride: int = 1, padding: int = 0) -> np.ndarray:
    return depthwise_conv2d_forward(x, kernel.weights, kernel.bias, stride, padding)


def pointwise_conv2d(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    if kernel.weights.shape[2] != 1:
        raise ShapeError(f"pointwise_conv2d: kernel size must be 1, got {kernel.weights.shape[2]}")
    return conv2d_forward(x, kernel.weights, kernel.bias, 1, 0)


def tconv2d(x: np.ndarray, kernel: ConvKernel, stride: int = 1, padding: int = 0,
            output_padding: int = 0) -> np.ndarray:
    return tconv2d_forward(x, kernel.weights, kernel.bias, stride, padding, output_padding)


def depthwise_tconv2d(x: np.ndarray, kernel: ConvKernel, stride: int = 1, padding: int = 0,
                      output_padding: int = 0) -> np.ndarray:
    return depthwise_tconv2d_forward(x, kernel.weights, kernel.bias, stride, padding, output_padding)


def prelu(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    return prelu_forward(x, slopes)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return sigmoid_forward(x)
