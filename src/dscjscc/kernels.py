"""Convolution kernels on batch-innermost (C, H, W, N) activations.

Everything here operates on plain float64 numpy arrays; the graph layer in
``autodiff`` wraps these into differentiable nodes.  Convolution semantics are
cross-correlation (no kernel flip), the universal deep-learning convention.

Kernels trust their operands and check none of them: a codec's layer
geometry is checked by ``model.LayerSpec``, its channel chain and each
layer's output size (at least 1x1) by ``model.ArchitectureSpec``, its weight,
bias and slope shapes by ``model.CodecModel``, and its input batch by
``CodecModel.encode_graph`` and ``decode_graph``.

Every activation, input, output and gradient alike, is a (C, H, W, N) array:
channels outermost, the batch innermost, and every kernel output is
C-contiguous in that order.  The codec converts its images to this layout
once, at the encoder input, and back at the latent and the decoder output
(see ``model``); no kernel converts.

Weight layouts:
    standard conv        (Cout, Cin, K, K)
    transposed conv      (Cin, Cout, K, K)
    depthwise (both)     (C, 1, K, K)

Each kind has one lowering, chosen by what bounds its speed.  A transposed
convolution is the input-adjoint of the matching convolution (Dumoulin &
Visin, arXiv:1603.07285), so its backward pass is the convolution itself, and
its weight gradient is the convolution's with input and upstream swapped.

Dense layers are compute-bound, and lower their input with MEC's patch copy
(Cho & Brand, arXiv:1706.06873): ``_cols`` copies the input once per tap
column, a k-fold copy where im2col makes a k*k-fold one, into a row-major
(rows, C, k, Wo*N) array, so that the k input rows an output row reads form
one (k*C*k, Wo*N) window with a single row stride.  The conv (``_conv``) is
one batched GEMM over output rows, the (Cout, k*C*k) kernel times each row's
window, written straight into the output; the weight gradient
(``_conv_weight_grad``) is each row's ``gy`` times its window transposed,
summed over rows.  The copy is amortised over Cout output channels.  A
pointwise conv's patches are the input itself, reshaped without a copy, and
it is one GEMM (MobileNets, arXiv:1704.04861, runs its 1x1 layers the same
way).  Every stride-1 input adjoint is the convolution of ``gy`` with the
flipped kernel; a strided one (``_conv_input_adjoint``) builds each output
phase, the rows and columns that share an offset modulo the stride (sub-pixel
convolution: Shi et al., arXiv:1609.05158), from the stamps of the taps that
land on it, and writes it once into its strided slots.

Depthwise layers do one multiply-add per tap and input element, so they are
memory-bound: memory traffic, not FLOPs, sets their speed (ShuffleNet V2,
Ma et al., arXiv:1807.11164), and a k-fold copy of the input costs more than
the multiplies it feeds (Zhang, Lo & Lu, arXiv:2001.02504).  So the depthwise
lowering (``_depthwise``) makes no such copy.  In the (C, H, W, N) layout the
k input rows an output row reads are one contiguous (k*W, N) slab of the
input and the output row one (Wo, N) block, so each channel's output row is
a per-channel (Wo, k*W) Toeplitz matrix of the taps and the column padding
times that slab, written in place; a transposed convolution does the same
for a tile of ``stride`` output rows and the L input rows they read.  An
edge tile takes only its rows inside the input, so nothing is padded.  The
interior tiles are one batched ``matmul``, each edge tile another, and every
input adjoint is the other direction's lowering.  The GEMM does W/k times
the useful multiply-adds, the rest by zeros, and is still faster than
copying the input k times.  The weight gradient (``_depthwise_weight_grad``)
copies the input once, padded, and reads ``gy`` in place, neither transposed,
in GEMMs on bands of output rows: 1.6-2.2 times the useful MACs at k = 5.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor/kernel dimensions are incompatible, naming the offender."""


def conv_out_dim(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def tconv_out_dim(size: int, k: int, stride: int, padding: int, output_padding: int) -> int:
    return (size - 1) * stride - 2 * padding + k + output_padding


def _view(a: np.ndarray, shape: tuple[int, ...], strides: tuple[int, ...], offset: int = 0) -> np.ndarray:
    """A read-only view of the contiguous ``a``, from its element ``offset``, that numpy checks stays inside ``a``."""
    view = np.ndarray(shape, a.dtype, a, offset * a.itemsize, strides)
    view.flags.writeable = False
    return view


# ---------------------------------------------------------------------------
# dense: MEC's row-shift copy
# ---------------------------------------------------------------------------

def _cols(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Patches of the (C, H, W, N) input, zero-padded by ``padding`` on each side.

    The row-shift copy X[r, c, j, wo*N + n] = x[c, r - padding, stride*wo + j - padding, n]
    of the stride*(Ho - 1) + k padded rows the output reads, zero outside
    ``x``: a contiguous (rows, C, k, Wo*N) array.  An unpadded stride-1 1x1
    kernel's patches are ``x`` itself, reshaped to (C, H*W*N).
    """
    c, h, wd, n = x.shape
    if k == 1 and stride == 1 and not padding:
        return x.reshape(c, -1)
    ho, wo = (conv_out_dim(d, k, stride, padding) for d in (h, wd))
    rows = stride * (ho - 1) + k
    buf = np.zeros((rows, c, k, wo, n), dtype=x.dtype)
    cols = buf.swapaxes(0, 1)
    r0, r1 = min(rows, padding), min(rows, h + padding)
    for j in range(k):
        # output column o reads input column stride*o + j - padding, in range for o in [a, b)
        a, b = max(0, -((j - padding) // stride)), min(wo, (wd - 1 + padding - j) // stride + 1)
        if r0 < r1 and a < b:
            x0 = stride * a + j - padding
            cols[:, r0:r1, j, a:b] = x[:, r0 - padding:r1 - padding, x0:x0 + stride * (b - a - 1) + 1:stride]
    return buf.reshape(rows, c, k, wo * n)


def _row_windows(cols: np.ndarray, ky: int, stride: int, ho: int) -> np.ndarray:
    """The (Ho, ky*C*kx, Wo*N) windows of ``cols``, one per output row, read-only.

    Output row r reads the ky consecutive rows from stride*r, one contiguous slab.
    """
    rows, c, kx, m = cols.shape
    return _view(cols, (ho, ky * c * kx, m), (stride * cols.strides[0], *cols.strides[2:]))


def _conv(cols: np.ndarray, w: np.ndarray, stride: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Convolve the patches ``cols`` with a (Cout, Cin, ky, kx) kernel; ``shape`` is the output (Ho, Wo, N).

    One GEMM per output row, all in one batched ``matmul``: the (Cout,
    ky*Cin*kx) kernel times the row's window, written into the output.
    """
    cout, _, ky, _ = w.shape
    if cols.ndim == 2:  # pointwise: the patches are the input itself
        return (w.reshape(cout, -1) @ cols).reshape(cout, *shape)
    y = np.empty((cout, shape[0], cols.shape[3]), dtype=np.result_type(cols, w))
    np.matmul(w.transpose(0, 2, 1, 3).reshape(cout, -1), _row_windows(cols, ky, stride, shape[0]),
              out=y.transpose(1, 0, 2))
    return y.reshape(cout, *shape)


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
                        size: tuple[int, int]) -> np.ndarray:
    """Adjoint of ``_conv`` with respect to its (H, W) = ``size`` input.

    At stride 1 it is the convolution of ``gy``, padded by k - 1 - padding,
    with the flipped kernel read as (C, Cout, k, k); when padding >= k,
    ``gy`` is cropped by padding - k + 1 instead, since its outermost rows
    and columns reach no input.  A pointwise layer's cols are ``gy`` itself,
    so its adjoint is the one GEMM W.T @ gy.

    At a larger stride, each output phase (y0, x0), rows ``y0::stride`` and
    columns ``x0::stride``, is built as one block and written once into its
    strided slots of the output; a phase no tap reaches is zero.  The block
    is zeroed and every tap landing on the phase adds the in-range slice of
    its stamp, taps in (i, j) order.  The stamps come tap-major from one
    GEMM, the (k*k*C, Cout) kernel times ``gy`` as (Cout, Ho*Wo*N), each a
    contiguous (C, Ho, Wo, N) slab of the (k, k, C, Ho, Wo, N) result.
    Against the stamps, a phase run as its own row-shift convolution took
    1.02-1.07x their time for dec3's tconv forward and enc1's input gradient
    and 1.92-1.95x for dec4's at batch 32, 1.44-1.68x at batch 1, and 1.01x
    over a baseline train step; stamps built per phase from only its taps
    took 1.00-1.15x at batch 32 and 1.37-1.50x at batch 1 (baseline at
    32x32x3, one pinned CPU of a 2-core Xeon VM, OpenBLAS on one thread).
    """
    cout, ho, wo, n = gy.shape
    c, k = w.shape[1], w.shape[2]
    h, wd = size
    if stride == 1:
        pad = k - 1 - padding
        if pad < 0:
            gy, pad = gy[:, -pad:ho + pad, -pad:wo + pad], 0
        return _conv(_cols(gy, k, 1, pad), w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, (h, wd, n))
    stamps = (w.transpose(2, 3, 1, 0).reshape(-1, cout) @ gy.reshape(cout, -1)).reshape(k, k, c, ho, wo, n)
    out = np.empty((c, h, wd, n), dtype=stamps.dtype)
    cols = _phase_taps(wd, wo, k, stride, padding)
    for y0, ny, ytaps in _phase_taps(h, ho, k, stride, padding):
        for x0, nx, xtaps in cols:
            block = np.zeros((c, ny, nx, n), dtype=stamps.dtype)
            for i, by, gy_rows in ytaps:
                for j, bx, gy_cols in xtaps:
                    block[:, by, bx] += stamps[i, j][:, gy_rows, gy_cols]
            out[:, y0::stride, x0::stride] = block
            del block  # before the next phase allocates its own
    return out


def _conv_weight_grad(cols: np.ndarray, gy: np.ndarray, stride: int, w_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``_conv`` with respect to its kernel, given the patches it read.

    Each output row's ``gy`` times its window transposed, summed over rows.
    """
    cout, ho = gy.shape[:2]
    ky = w_shape[2]
    if cols.ndim == 2:  # pointwise
        return (gy.reshape(cout, -1) @ cols.T).reshape(w_shape)
    kx, m = cols.shape[2:]
    gw = (gy.reshape(cout, ho, m).transpose(1, 0, 2) @ _row_windows(cols, ky, stride, ho).transpose(0, 2, 1)).sum(axis=0)
    return gw.reshape(cout, ky, -1, kx).transpose(0, 2, 1, 3).copy()  # C order: Adam is slower on a view


# ---------------------------------------------------------------------------
# depthwise: per-channel Toeplitz GEMMs on the input in place
# ---------------------------------------------------------------------------

def _toeplitz(w: np.ndarray, th: int, rows: int, row_taps: tuple[int, int, int], wo: int, wi: int,
              col_taps: tuple[int, int, int]) -> np.ndarray:
    """Each channel's (rows*Wi, th*Wo) matrix T[c, b*Wi + q, a*Wo + X] = w[c, 0, i, j], 0 where (i, j) is no tap.

    Output row a and column X of a tile read input row b and column q of its
    window through tap i = ia*a + ib*b + i0, with (ia, ib, i0) = ``row_taps``,
    and j = jx*X + jq*q + j0 likewise.  T is one strided view of a zero
    canvas that holds the kernel where every (i, j) the tile can ask for has
    a cell, copied once: a gather, not a scatter.
    """
    c, _, k, _ = w.shape

    def span(u: int, v: int, t: int, nu: int, nv: int) -> tuple[int, int]:
        # the kernel's taps 0..k-1 and every u*a + v*b + t (a < nu, b < nv) the tile asks for
        ends = [u * a + v * b + t for a in (0, nu - 1) for b in (0, nv - 1)]
        return min(0, *ends), max(k - 1, *ends)

    (i_lo, i_hi), (j_lo, j_hi) = span(*row_taps, th, rows), span(*col_taps, wo, wi)
    ni, nj = i_hi - i_lo + 1, j_hi - j_lo + 1
    canvas = np.zeros((c, ni, nj), dtype=w.dtype)
    canvas[:, -i_lo:k - i_lo, -j_lo:k - j_lo] = w[:, 0]
    (ia, ib, i0), (jx, jq, j0) = row_taps, col_taps
    e = canvas.itemsize
    return _view(canvas, (c, rows, wi, th, wo), (ni * nj * e, ib * nj * e, jq * e, ia * nj * e, jx * e),
                 (i0 - i_lo) * nj + j0 - j_lo).reshape(c, rows * wi, th * wo)


def _depthwise(u: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int, padding: int,
               size: tuple[int, int], transposed: bool) -> np.ndarray:
    """The depthwise convolution, or transposed convolution, of the (C, H, W, N) ``u`` to (C, *size, N), plus ``b``.

    Output rows go in tiles, each reading a window of consecutive input rows
    that is one contiguous (rows*W, N) slab: a tile is one output row and
    its k input rows for a convolution, ``stride`` output rows and the L
    they read for a transposed one.  A tile is one GEMM per channel, the
    tile's Toeplitz matrix T, transposed, times its slab, written straight
    into the tile's (th*Wo, N) block of the output.  The slab is ``u`` in
    place: a tile at an edge, whose window holds padding rows, takes just
    its rows inside ``u`` and the matching rows of T, as the padding would
    only add zeros, so no padded copy is made.  The batch is the GEMM's
    columns: that a batch column comes out the same in any batch is
    OpenBLAS's doing, not the layout's, and the row-independence tests check
    it.  GEMV sums differ from GEMM's, so a batch of 1 gets a zero second
    column and a 1-wide output a second one, dropped after.
    """
    c, h, wi, n = u.shape
    k = w.shape[2]
    ho, wo = size
    if transposed:  # output row s*t + a reads input rows t + r0 .. t + r0 + L - 1 through tap a + p - s*(r0 + b)
        r0 = -((k - 1 - padding) // stride)
        th, step, rows, tiles = stride, 1, (stride - 1 + padding) // stride - r0 + 1, -(-ho // stride)
        row_taps, col_taps = (1, -stride, padding - stride * r0), (1, -stride, padding)
    else:  # output row r reads input rows s*r - p .. s*r - p + k - 1
        r0, th, step, rows, tiles = -padding, 1, stride, k, ho
        row_taps, col_taps = (0, 1, 0), (-stride, 1, padding)
    nn, wt = max(n, 2), max(wo, 2)  # numpy hands a 1-row or 1-column GEMM to GEMV
    if nn > n or not u.flags.c_contiguous:  # the tiles read u in place: C order, and two columns at least
        u, x = np.zeros((c, h, wi, nn), dtype=u.dtype), u
        u[..., :n] = x
    # T as a transposed view: with T's transpose in memory, a batch column's sums varied with the batch
    tt = _toeplitz(w, th, rows, row_taps, wt, wi, col_taps)[:, None].swapaxes(2, 3)  # (C, 1, th*Wt, rows*Wi)
    y = np.empty((c, tiles * th, wt, nn), dtype=np.result_type(u, w))
    t0 = min(tiles, max(0, -(r0 // step)))  # tiles t0 .. t1 - 1 read rows of u alone
    t1 = min(tiles, max(t0, (h - rows - r0) // step + 1))
    sc, sr, _, se = u.strides
    for a, z in [(t0, t1)] + [(t, t + 1) for t in (*range(t0), *range(t1, tiles))]:  # the interior, each edge tile
        lo = step * a + r0
        r1, r2 = (min(max(r, 0), h) for r in (lo, lo + rows))  # the tile's rows inside u, all of them in the interior
        slab = _view(u, (c, z - a, (r2 - r1) * wi, nn), (sc, step * sr, nn * se, se), r1 * wi * nn)
        np.matmul(tt[..., (r1 - lo) * wi:(r2 - lo) * wi], slab, out=y.reshape(c, tiles, th * wt, nn)[:, a:z])
    if y.shape[1:] != (ho, wo, n):
        y = y[:, :ho, :wo, :n].copy()
    if b is not None:
        y += b[:, None, None, None]
    return y


def _depthwise_weight_grad(u: np.ndarray, g: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """gw[c, 0, i, j] = sum over r, o, n of g[c, r, o, n] * u[c, s*r + i - p, s*o + j - p, n], u zero outside.

    ``u`` is copied once, zero-padded, into min(s, k) column-phase planes
    P[c, q, R, m, n] = u[c, R - p, s*m + q - p, n]; a C-contiguous ``g`` is
    read in place as G, (Ho, Wo*N).  Tap column j reads plane j mod s from
    column j // s, a (rows, Wo*N) slab of contiguous rows, and G times it
    transposed holds tap (i, j)'s term for output row r at (r, s*r + i).
    Bands of b rows of G, each times the s*(b - 1) + k slab rows it reaches,
    go in one batched ``matmul`` a plane: (s*(b - 1) + k)/k times the useful MACs.
    """
    c, h, wi, n = u.shape
    ho, wo = g.shape[1:3]
    b = min(4, ho)  # b = 2, 4 and 8 were within noise in a dsc-jscc-100 step; 3 pads g there, and was slower
    bands, span = -(-ho // b), stride * (b - 1) + k  # span: the slab rows a band reaches
    rows, cols, planes = stride * (bands * b - 1) + k, wo + (k - 1) // stride, min(stride, k)
    pu = np.zeros((c, planes, rows, cols, n), dtype=u.dtype)
    r0, r1 = min(padding, rows), min(rows, h + padding)  # the plane rows that hold input rows
    for q in range(planes):  # plane column m holds input column s*m + q - p
        m0, m1 = max(0, -((q - padding) // stride)), min(cols, (wi - 1 + padding - q) // stride + 1)
        if r0 < r1 and m0 < m1:
            pu[:, q, r0:r1, m0:m1] = u[:, r0 - padding:r1 - padding, stride * m0 + q - padding::stride][:, :, :m1 - m0]
    g = (np.pad(g, ((0, 0), (0, bands * b - ho), (0, 0), (0, 0))) if bands * b > ho else g).reshape(c, 1, bands, b, -1)
    prod = np.empty((c, k, bands, b, span), dtype=np.result_type(pu, g))
    sc, sq, sr, _, se = pu.strides
    for q in range(planes):  # tap columns q, q + s, ...: each band's slab, (Wo*N, span) as a transposed view
        np.matmul(g, _view(pu, (c, len(range(q, k, stride)), bands, wo * n, span),
                  (sc, n * se, stride * b * sr, se, sr), q * sq // se), out=prod[:, q::stride])
    sc, sj, st, sa, se = prod.strides
    return _view(prod, (c, 1, k, k, bands, b), (sc, 0, se, sj, st, sa + stride * se)).sum(axis=(4, 5)).copy()  # C order


def _channel_sum(gy: np.ndarray) -> np.ndarray:
    return gy.reshape(gy.shape[0], -1).sum(axis=1)


# ---------------------------------------------------------------------------
# the four layer kinds, each kernel one or two calls of its lowering: a
# transposed kernel's forward is the input adjoint, and the adjoint of that is
# the convolution itself, read with the (Cin,Cout,k,k) array as its
# (Cout',Cin',k,k) kernel; its kernel gradient is the convolution's with input
# and upstream swapped
# ---------------------------------------------------------------------------

def conv2d_forward_cached(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                          stride: int, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass returning (output, patches) so backward can reuse them.

    The patches are the (rows, C, k, Wo*N) row-shift copy of ``_cols``, or the
    input itself, reshaped, for an unpadded stride-1 1x1 kernel.
    """
    k = w.shape[2]
    ho, wo = (conv_out_dim(d, k, stride, padding) for d in x.shape[1:3])
    cols = _cols(x, k, stride, padding)
    y = _conv(cols, w, stride, (ho, wo, x.shape[3]))
    if b is not None:
        y += b[:, None, None, None]
    return y, cols


def conv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                    stride: int, padding: int, col: np.ndarray | None = None, *,
                    input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (gx, gw, gb) of a conv2d_forward_cached call given upstream gy.

    gx is None, and not computed, when ``input_grad`` is false.
    """
    gw = _conv_weight_grad(_cols(x, w.shape[2], stride, padding) if col is None else col, gy, stride, w.shape)
    gx = _conv_input_adjoint(gy, w, stride, padding, x.shape[1:3]) if input_grad else None
    return gx, gw, _channel_sum(gy)


def depthwise_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                             stride: int, padding: int) -> np.ndarray:
    k = w.shape[2]
    size = tuple(conv_out_dim(d, k, stride, padding) for d in x.shape[1:3])
    return _depthwise(x, w, b, stride, padding, size, False)


def depthwise_conv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int, padding: int, *,
                              input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    gw = _depthwise_weight_grad(x, gy, w.shape[2], stride, padding)
    gx = _depthwise(gy, w, None, stride, padding, x.shape[1:3], True) if input_grad else None
    return gx, gw, _channel_sum(gy)


def tconv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                    stride: int, padding: int, output_padding: int) -> np.ndarray:
    k = w.shape[2]
    size = tuple(tconv_out_dim(d, k, stride, padding, output_padding) for d in x.shape[1:3])
    y = _conv_input_adjoint(x, w, stride, padding, size)
    if b is not None:
        y += b[:, None, None, None]
    return y


def tconv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                     stride: int, padding: int, output_padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cols = _cols(gy, w.shape[2], stride, padding)
    return _conv(cols, w, stride, x.shape[1:]), _conv_weight_grad(cols, x, stride, w.shape), _channel_sum(gy)


def depthwise_tconv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                              stride: int, padding: int, output_padding: int) -> np.ndarray:
    k = w.shape[2]
    size = tuple(tconv_out_dim(d, k, stride, padding, output_padding) for d in x.shape[1:3])
    return _depthwise(x, w, b, stride, padding, size, True)


def depthwise_tconv2d_backward(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                               stride: int, padding: int, output_padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (_depthwise(gy, w, None, stride, padding, x.shape[1:3], False),
            _depthwise_weight_grad(gy, x, w.shape[2], stride, padding), _channel_sum(gy))


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def prelu_forward(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
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
