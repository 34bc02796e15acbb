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
copy, and the adjoint's stamps are (H, W, C, N) too.  Every tap then reads
long contiguous (C, N) runs.  Batch-outermost (N, C, Ho, Wo, k, k) patches
had runs one output row long, 8 elements in the 8x8 middle layers, and
``einsum(optimize=True)`` copied them (27 MB for a stride-2 32x16x32x32
layer): the four depthwise kernels of a batch-32 train step took about
twice as long.

The input-adjoint gathers per output phase.  A stride-s transposed
convolution splits into s*s stride-1 sums, one per output phase: the rows
and columns that share an offset modulo s, each fed by the taps whose offset
matches (sub-pixel convolution: Shi et al., arXiv:1609.05158 and
arXiv:1609.07009).  Each phase is built as one contiguous block from the
in-range slices of its taps' stamps and written once into its strided slots
of the output, so no padded grid is zeroed, cropped or updated through
strided read-modify-write adds, and every output is the same sum, in the
same (i, j) tap order, as scattering all k*k stamps into a zeroed padded
grid gives.  Against that scatter, at batch 32 on one CPU, the last decoder
layer's stride-2 depthwise tconv (16 channels, 16x16 to 32x32) took 13.8 ms
instead of 23.4, and the dense stride-2 ones 10-14 % less.  A dense kernel's
stamps come tap-major from one GEMM, as a (k, k, C, N, Ho, Wo) block, so
each add reads one contiguous slab; read pixel-major, as rows of C*k*k taps,
every stamp had an innermost stride of C*k*k elements, and at batch 32 the
5x5 adjoints ran 2-3x slower.  A dense stride-1 adjoint whose ``gy`` has few
enough channels is instead the convolution of ``gy`` with the flipped kernel
(see ``_conv_input_adjoint``).
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

    Gather form: output phase (y0, x0), rows ``y0::stride`` and columns
    ``x0::stride``, is one contiguous (ny, nx, C, N) block to which every tap
    landing on it adds the in-range slice of its stamp, taps in (i, j) order;
    the block is then written once into its strided slots of the NCHW output
    (at stride 1 the one phase is the output itself).  A block starts as
    zeros, or as ``stamp + 0.0`` when its first tap covers all of it, so each
    output is bitwise the sum a zeroed padded grid would accumulate.

    Depthwise: each stamp is ``gy`` in batch-innermost (H, W, C, N) memory
    times one tap of every channel's kernel, and the blocks are (H, W, C, N)
    memory too.  Dense: the stamps come tap-major from one GEMM, the
    (k*k*C, Cout) kernel times ``gy`` as (Cout, N*Ho*Wo), each a contiguous
    (C, N, Ho, Wo) slab of the (k, k, C, N, Ho, Wo) result, and the blocks
    share that (C, N) memory order.

    A dense stride-1 adjoint with padding < k is also the convolution of
    ``gy``, padded by k - 1 - padding, with the flipped kernel read as
    (C, Cout, k, k).  That form is taken when its im2col block and output,
    k*k*Cout + C values per pixel, are smaller than the k*k*C stamps, which
    for k = 5 means Cout < 0.96 C.  A pointwise adjoint never takes it; its
    one stamp is written to the output in a single pass.  The flipped form
    sums in another order, so it matches the gather form to rounding, not
    bitwise.  At batch 32 it took the 8 -> 32 channel 8x8 tconv from 10.7
    to 3.2 ms and the 32 <- 8 input gradient from 8.4 to 2.4 ms; for
    pointwise layers the one-pass stamp was faster (32 <- 16 at 16x16: 1.03
    against 1.38 ms).  At stride 2 the stamps stay: one im2col GEMM per
    phase took 19.7 ms against 7.1 for the 32 -> 16 tconv and 26.6 against
    3.9 for the 16 -> 3 one.
    """
    n, cout, ho, wo = gy.shape
    k = w.shape[2]
    h, wd = size
    dtype = np.result_type(gy, w)
    c = w.shape[0] if depthwise else w.shape[1]
    if depthwise:
        gyt = _hwcn(gy)
        taps = np.repeat(w[:, 0].transpose(1, 2, 0)[..., None], n, axis=3)  # (k, k, C, N)
    elif stride == 1 and padding < k and k * k * cout + c < k * k * c:
        return _conv(_cols(gy, k, 1, k - 1 - padding, False), w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                     (n, h, wd), False)
    else:
        gcol = (w.transpose(2, 3, 1, 0).reshape(-1, cout) @ gy.transpose(1, 0, 2, 3).reshape(cout, -1))
        gcol = gcol.reshape(k, k, c, n, ho, wo).transpose(0, 1, 4, 5, 2, 3)
    out = np.empty((n, c, h, wd), dtype=dtype)
    spatial = out.transpose(2, 3, 1, 0)  # (H, W, C, N) view of the NCHW output
    cols = _phase_taps(wd, wo, k, stride, padding)
    for y0, ny, ytaps in _phase_taps(h, ho, k, stride, padding):
        for x0, nx, xtaps in cols:
            if depthwise:
                block = np.empty((ny, nx, c, n), dtype=dtype)
            elif stride == 1:
                block = spatial
            else:
                block = np.empty((c, n, ny, nx), dtype=dtype).transpose(2, 3, 0, 1)
            landing = [((i, j), (by, bx), (gy_rows, gy_cols))
                       for i, by, gy_rows in ytaps for j, bx, gy_cols in xtaps]
            zeroed = not landing or landing[0][1] != (slice(0, ny), slice(0, nx))
            if zeroed:
                block.fill(0.0)
            for t, (tap, dst, src) in enumerate(landing):
                stamp = gyt[src] * taps[tap] if depthwise else gcol[tap + src]
                if t == 0 and not zeroed:
                    np.add(stamp, 0.0, out=block)  # 0 + stamp: a -0.0 stamp gives +0.0, as in a zeroed block
                else:
                    block[dst] += stamp
            if block is not spatial:
                spatial[y0::stride, x0::stride] = block
    return out


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
    # one branch-free pass: x >= 0 gives 1 / (1 + e^-x) and x < 0 gives e^x / (1 + e^x);
    # min(x, -x) is -|x|, so exp never overflows, and it keeps a NaN's sign bit
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return y * (1.0 - y) * gy
