"""Forward-pass semantics of every convolution primitive against naive oracles."""

import functools
import importlib.util
import inspect
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dscjscc
from dscjscc import autodiff as ad
from dscjscc import kernels
from dscjscc.autodiff import Tensor
from dscjscc.kernels import ShapeError, conv_out_dim, sigmoid_forward, tconv_out_dim
from oracles import block_diagonal_kernel, naive_conv2d, naive_depthwise_weight_grad, naive_tconv2d

rng = np.random.default_rng(1234)


def chwn(a):
    # (N, C, H, W), the layout of the oracles -> the kernels' batch-innermost (C, H, W, N)
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def on_nchw(kernel):
    """``kernel`` called on (N, C, H, W) arrays, the layout of the naive oracles.

    Rank-4 activations, x at position 0 and a backward call's gy at position 2,
    go in as (C, H, W, N); the result, or a tuple's first entry (y or gx),
    comes back as (N, C, H, W).  Weights and biases pass unchanged.
    """
    @functools.wraps(kernel)
    def call(*args, **kwargs):
        args = [chwn(a) if i in (0, 2) and np.ndim(a) == 4 else a for i, a in enumerate(args)]
        out = kernel(*args, **kwargs)
        first = out[0] if isinstance(out, tuple) else out
        first = None if first is None else first.transpose(3, 0, 1, 2)
        return (first, *out[1:]) if isinstance(out, tuple) else first
    return call


conv2d_forward_cached = on_nchw(kernels.conv2d_forward_cached)
depthwise_conv2d_forward = on_nchw(kernels.depthwise_conv2d_forward)
tconv2d_forward = on_nchw(kernels.tconv2d_forward)
depthwise_tconv2d_forward = on_nchw(kernels.depthwise_tconv2d_forward)
prelu_forward = on_nchw(kernels.prelu_forward)
conv2d_backward = on_nchw(kernels.conv2d_backward)
depthwise_conv2d_backward = on_nchw(kernels.depthwise_conv2d_backward)
tconv2d_backward = on_nchw(kernels.tconv2d_backward)
depthwise_tconv2d_backward = on_nchw(kernels.depthwise_tconv2d_backward)


def conv2d_forward(x, w, b, stride, padding):
    return conv2d_forward_cached(x, w, b, stride, padding)[0]


def pointwise(x, w, b):
    y = ad.pointwise_conv2d(Tensor(chwn(x)), Tensor(w), Tensor(b))
    return y.data.transpose(3, 0, 1, 2)


class TestConv2d:
    def test_all_ones_sums_to_nine(self):
        x = np.ones((1, 1, 3, 3))
        y = conv2d_forward(x, np.ones((1, 1, 3, 3)), None, 1, 0)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 9.0

    def test_identity_kernel(self):
        x = rng.standard_normal((2, 1, 5, 7))
        np.testing.assert_array_equal(conv2d_forward(x, np.ones((1, 1, 1, 1)), None, 1, 0), x)

    def test_matches_naive_loop(self):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 5, 5))
        b = rng.standard_normal(4)
        y = conv2d_forward(x, w, b, 2, 2)
        assert y.shape == (2, 4, 4, 4)
        np.testing.assert_allclose(y, naive_conv2d(x, w, b, 2, 2), atol=1e-12)


class TestDepthwiseConv2d:
    def test_selector_kernels(self):
        x = rng.standard_normal((1, 2, 4, 4))
        w = np.zeros((2, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        y = depthwise_conv2d_forward(x, w, None, 1, 0)
        np.testing.assert_array_equal(y[:, 0], x[:, 0])
        np.testing.assert_array_equal(y[:, 1], np.zeros_like(x[:, 1]))

    def test_grouped_equivalence(self):
        x = rng.standard_normal((1, 4, 6, 6))
        w = rng.standard_normal((4, 1, 3, 3))
        y_dw = depthwise_conv2d_forward(x, w, None, 1, 1)
        np.testing.assert_allclose(y_dw, naive_conv2d(x, block_diagonal_kernel(w), None, 1, 1), atol=1e-12)

    def test_all_ones_per_channel(self):
        x = np.ones((1, 3, 3, 3))
        y = depthwise_conv2d_forward(x, np.ones((3, 1, 3, 3)), None, 1, 0)
        assert y.shape == (1, 3, 1, 1)
        np.testing.assert_array_equal(y.reshape(3), [9.0, 9.0, 9.0])


class TestPointwiseConv2d:
    def test_identity_mixing(self):
        x = rng.standard_normal((2, 3, 4, 4))
        w = np.eye(3).reshape(3, 3, 1, 1)
        np.testing.assert_array_equal(pointwise(x, w, np.zeros(3)), x)

    def test_linearity_on_constant_input(self):
        v = 2.5
        x = np.full((1, 3, 2, 2), v)
        w = np.array([0.3, -1.2, 0.5]).reshape(1, 3, 1, 1)
        y = pointwise(x, w, np.zeros(1))
        np.testing.assert_allclose(y, np.full((1, 1, 2, 2), v * (0.3 - 1.2 + 0.5)))

    def test_delegates_to_conv2d_bitwise(self):
        x = rng.standard_normal((2, 5, 6, 6))
        w, b = rng.standard_normal((3, 5, 1, 1)), rng.standard_normal(3)
        np.testing.assert_array_equal(pointwise(x, w, b), conv2d_forward(x, w, b, 1, 0))

    def test_rejects_wide_kernel(self):
        with pytest.raises(ShapeError, match="kernel size"):
            pointwise(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1))


class TestTconv2d:
    def test_single_pixel_broadcast(self):
        v = 1.7
        x = np.full((1, 1, 1, 1), v)
        w = rng.standard_normal((1, 1, 3, 3))
        y = tconv2d_forward(x, w, None, 1, 0, 0)
        np.testing.assert_allclose(y[0, 0], v * w[0, 0])

    def test_adjoint_of_conv2d(self):
        for stride, padding in [(1, 0), (2, 2), (3, 1)]:
            x = rng.standard_normal((2, 3, 7, 7))
            w = rng.standard_normal((4, 3, 5, 5))
            y = conv2d_forward(x, w, None, stride, padding)
            u = rng.standard_normal(y.shape)
            opad = x.shape[2] - tconv_out_dim(y.shape[2], 5, stride, padding, 0)
            v = tconv2d_forward(u, w, None, stride, padding, opad)
            lhs, rhs = float(np.sum(y * u)), float(np.sum(x * v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_stride2_shape_formula(self):
        x = rng.standard_normal((1, 1, 4, 4))
        w = rng.standard_normal((1, 6, 5, 5))
        y = tconv2d_forward(x, w, None, 2, 2, 1)
        assert y.shape == (1, 6, 8, 8)

    def test_matches_naive_stamps(self):
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(2)
        y = tconv2d_forward(x, w, b, 2, 1, 1)
        np.testing.assert_allclose(y, naive_tconv2d(x, w, b, 2, 1, 1), atol=1e-12)


class TestDepthwiseTconv2d:
    def test_per_channel_broadcast(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 0], x[0, 1] = 2.0, -3.0
        w = rng.standard_normal((2, 1, 3, 3))
        y = depthwise_tconv2d_forward(x, w, None, 1, 0, 0)
        np.testing.assert_allclose(y[0, 0], 2.0 * w[0, 0])
        np.testing.assert_allclose(y[0, 1], -3.0 * w[1, 0])

    def test_grouped_equivalence(self):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((3, 1, 3, 3))
        y_dw = depthwise_tconv2d_forward(x, w, None, 2, 1, 1)
        # block-diagonal kernels read the same as (Cin, Cout, K, K) and (Cout, Cin, K, K)
        y_grp = naive_tconv2d(x, block_diagonal_kernel(w), None, 2, 1, 1)
        np.testing.assert_allclose(y_dw, y_grp, atol=1e-12)

    def test_shape_rule_matches_tconv(self):
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((4, 1, 5, 5))
        y = depthwise_tconv2d_forward(x, w, None, 2, 2, 1)
        assert y.shape[2] == tconv_out_dim(5, 5, 2, 2, 1)


class TestActivations:
    def test_prelu_nonnegative_passthrough(self):
        x = np.abs(rng.standard_normal((1, 2, 3, 3)))
        np.testing.assert_array_equal(prelu_forward(x, np.array([0.1, 0.9])), x)

    def test_prelu_zero_slope_is_relu(self):
        x = rng.standard_normal((1, 2, 4, 4))
        np.testing.assert_array_equal(prelu_forward(x, np.zeros(2)), np.maximum(x, 0.0))

    def test_prelu_definition(self):
        x = np.full((1, 1, 1, 1), -2.0)
        assert prelu_forward(x, np.array([0.25]))[0, 0, 0, 0] == -0.5

    def test_sigmoid_at_zero(self):
        assert sigmoid_forward(np.zeros((1, 1, 1, 1)))[0, 0, 0, 0] == 0.5

    def test_sigmoid_saturates(self):
        assert sigmoid_forward(np.full((1, 1, 1, 1), 50.0))[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_symmetry(self):
        x = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_allclose(sigmoid_forward(-x), 1.0 - sigmoid_forward(x), atol=1e-12)

    def test_sigmoid_equals_two_branch_formula_bitwise(self):
        x = rng.standard_normal((16, 3, 32, 32)) * 20
        x.flat[:16] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1000.0, -1000.0,
                       5e-324, -5e-324, 1e308, -1e308, 709.8, -709.8, 745.0, -745.5]
        # |x| > 700: e^-|x| runs through the subnormals down to 0 around 745
        x.flat[16:2016] = rng.choice([-1.0, 1.0], 2000) * rng.uniform(700.0, 760.0, 2000)
        pos = x >= 0
        expected = np.empty_like(x)
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(sigmoid_forward(x).view(np.int64), expected.view(np.int64))
        with np.errstate(over="raise", invalid="raise"):
            assert sigmoid_forward(np.array([[[[1000.0, -1000.0]]]])).tolist() == [[[[1.0, 0.0]]]]

    def test_prelu_backward_equals_two_branch_formula_bitwise(self):
        x = rng.standard_normal((3, 8, 8, 4))
        gy = rng.standard_normal(x.shape)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        x.flat[:6] = gy.flat[6:12] = special
        x.flat[12:18] = gy.flat[12:18] = special
        x.flat[18:24] = gy.flat[18:24] = special[::-1]
        slopes = np.array([0.25, -1.5, 0.0])
        pos = x >= 0
        with np.errstate(invalid="ignore"):  # 0 * inf, planted on purpose
            expected = slopes[:, None, None, None] * gy
            gx = kernels.prelu_backward(x, slopes, gy)[0]
        expected[pos] = gy[pos]
        np.testing.assert_array_equal(gx.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# randomized shape-formula properties
# ---------------------------------------------------------------------------

conv_cfg = st.tuples(
    st.integers(1, 3),   # batch
    st.integers(1, 4),   # channels in
    st.integers(1, 4),   # channels out
    st.integers(4, 9),   # spatial
    st.integers(1, 5),   # kernel
    st.integers(1, 3),   # stride
    st.integers(0, 4),   # padding
)


def _example_rng(*key) -> np.random.Generator:
    # derive data deterministically from the drawn example so reruns replay
    return np.random.default_rng(abs(hash(key)) % (1 << 32))


@given(conv_cfg)
@settings(max_examples=60)
def test_conv_shape_formula(cfg):
    n, cin, cout, h, k, s, p = cfg
    if conv_out_dim(h, k, s, p) < 1:
        return
    r = _example_rng(*cfg)
    y = conv2d_forward(r.standard_normal((n, cin, h, h)),
                       r.standard_normal((cout, cin, k, k)), None, s, p)
    d = conv_out_dim(h, k, s, p)
    assert y.shape == (n, cout, d, d)


@given(conv_cfg, st.integers(0, 2))
@settings(max_examples=60)
def test_tconv_shape_formula(cfg, opad):
    n, cin, cout, h, k, s, p = cfg
    if opad >= s:
        return
    d = tconv_out_dim(h, k, s, p, opad)
    if d < 1:
        return
    r = _example_rng(*cfg, opad)
    y = tconv2d_forward(r.standard_normal((n, cin, h, h)),
                        r.standard_normal((cin, cout, k, k)), None, s, p, opad)
    assert y.shape == (n, cout, d, d)


@given(st.integers(1, 4), st.integers(3, 8), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2))
@settings(max_examples=40)
def test_depthwise_equals_block_diagonal_conv(c, h, k, s, p):
    if conv_out_dim(h, k, s, p) < 1:
        return
    r = _example_rng(c, h, k, s, p)
    x = r.standard_normal((2, c, h, h))
    w = r.standard_normal((c, 1, k, k))
    y_dw = depthwise_conv2d_forward(x, w, None, s, p)
    np.testing.assert_allclose(y_dw, naive_conv2d(x, block_diagonal_kernel(w), None, s, p), atol=1e-12)


@given(st.integers(3, 7), st.integers(1, 4), st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=40)
def test_adjoint_identity_property(h, k, s, p):
    if conv_out_dim(h, k, s, p) < 1:
        return
    r = _example_rng(h, k, s, p)
    x = r.standard_normal((1, 2, h, h))
    w = r.standard_normal((3, 2, k, k))
    y = conv2d_forward(x, w, None, s, p)
    opad = h - tconv_out_dim(y.shape[2], k, s, p, 0)
    if not 0 <= opad < s:
        return
    u = r.standard_normal(y.shape)
    lhs = float(np.sum(y * u))
    rhs = float(np.sum(x * tconv2d_forward(u, w, None, s, p, opad)))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


@given(st.integers(2, 3), st.integers(1, 4), st.integers(1, 3), st.integers(2, 5), st.integers(1, 5),
       st.integers(1, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_dense_input_adjoint_matches_oracle(n, c1, shift, h, k, s, p):
    # batch > 1 and unequal channel counts, so a batch/channel mix-up in the
    # (C, N, H, W) stamp layout cannot cancel out
    c2 = (c1 - 1 + shift) % 4 + 1
    r = _example_rng(n, c1, shift, h, k, s, p)
    x = r.standard_normal((n, c1, h, h))
    wt = r.standard_normal((c1, c2, k, k))
    b = r.standard_normal(c2)
    for opad in range(s):
        if tconv_out_dim(h, k, s, p, opad) >= 1:
            np.testing.assert_allclose(tconv2d_forward(x, wt, b, s, p, opad),
                                       naive_tconv2d(x, wt, b, s, p, opad), atol=1e-12)
    ho = conv_out_dim(h, k, s, p)
    if ho < 1:
        return
    wc = r.standard_normal((c2, c1, k, k))
    gy = r.standard_normal((n, c2, ho, ho))
    gx = conv2d_backward(x, wc, gy, s, p)[0]
    opad = h - tconv_out_dim(ho, k, s, p, 0)  # the conv's input rows its last window leaves unread
    np.testing.assert_allclose(gx, naive_tconv2d(gy, wc, None, s, p, opad), atol=1e-12)


@given(st.integers(2, 3), st.integers(1, 2), st.integers(2, 12), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 4))
@settings(max_examples=40, deadline=None)
@example(n=2, shift=1, h=12, k=3, s=1, p=1)  # stride 1: every tile one output row, both directions
@example(n=3, shift=2, h=10, k=5, s=1, p=2)  # the codec's k=5, p=2 at stride 1
@example(n=2, shift=1, h=11, k=5, s=2, p=2)  # stride 2, odd outputs: the transposed last tile is cropped
@example(n=2, shift=2, h=5, k=2, s=4, p=0)  # stride above k: two rows of each transposed tile get no tap
def test_depthwise_kernels_match_block_diagonal_dense(n, shift, h, k, s, p):
    # batch != channels, so a batch/channel mix-up in the batch-innermost
    # (C, H, W, N) layout cannot cancel out; every path is checked against
    # the naive loops or the dense kernels on the block-diagonal kernel
    c = (n - 2 + shift) % 3 + 2
    r = _example_rng(n, shift, h, k, s, p)
    x = r.standard_normal((n, c, h, h))
    w = r.standard_normal((c, 1, k, k))
    b = r.standard_normal(c)
    wb = block_diagonal_kernel(w)
    diag = np.arange(c)
    for opad in range(s):
        d = tconv_out_dim(h, k, s, p, opad)
        if d < 1:
            continue
        np.testing.assert_allclose(depthwise_tconv2d_forward(x, w, b, s, p, opad),
                                   naive_tconv2d(x, wb, b, s, p, opad), atol=1e-12)
        gy = r.standard_normal((n, c, d, d))
        gx, gw, gb = depthwise_tconv2d_backward(x, w, gy, s, p, opad)
        gx_dense, gw_dense, gb_dense = tconv2d_backward(x, wb, gy, s, p, opad)
        np.testing.assert_allclose(gx, gx_dense, atol=1e-12)
        np.testing.assert_allclose(gw[:, 0], gw_dense[diag, diag], atol=1e-12)
        np.testing.assert_allclose(gb, gb_dense, atol=1e-12)
    ho = conv_out_dim(h, k, s, p)
    if ho < 1:
        return
    np.testing.assert_allclose(depthwise_conv2d_forward(x, w, b, s, p),
                               naive_conv2d(x, wb, b, s, p), atol=1e-12)
    gy = r.standard_normal((n, c, ho, ho))
    gx, gw, gb = depthwise_conv2d_backward(x, w, gy, s, p)
    gx_dense, gw_dense, gb_dense = conv2d_backward(x, wb, gy, s, p)
    np.testing.assert_allclose(gx, gx_dense, atol=1e-12)
    np.testing.assert_allclose(gw[:, 0], gw_dense[diag, diag], atol=1e-12)
    np.testing.assert_allclose(gb, gb_dense, atol=1e-12)


@given(st.integers(1, 2), st.integers(2, 4), st.sampled_from([-1, 0, 1]), st.integers(1, 5),
       st.integers(1, 5), st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
@example(n=2, c=4, more=-1, h=4, k=3, s=1, p=1)  # stride 1, fewer gy channels: the flipped-kernel route
@example(n=2, c=3, more=0, h=4, k=3, s=1, p=1)  # stride 1, as many gy channels
@example(n=1, c=2, more=1, h=5, k=5, s=1, p=2)  # stride 1, more gy channels
@example(n=2, c=3, more=-1, h=3, k=2, s=1, p=3)  # padding >= k: the route crops gy
@example(n=2, c=2, more=1, h=5, k=2, s=1, p=2)  # padding >= k, and the transposed forward keeps an output
@example(n=1, c=2, more=1, h=1, k=1, s=4, p=0)  # three of four phases get no tap
@example(n=2, c=2, more=0, h=2, k=5, s=3, p=2)
def test_input_adjoint_matches_oracle_at_every_stride(n, c, more, h, k, s, p):
    # strides up to 4, inputs smaller than the stride (output phases with no
    # taps, or no outputs at all), padding >= k (the stride-1 flipped-kernel
    # route crops gy) and gy with fewer, as many or more channels than the output
    cg = c + more
    r = _example_rng(n, c, more, h, k, s, p)
    x = r.standard_normal((n, cg, h, h))
    wt = r.standard_normal((cg, c, k, k))
    xd = r.standard_normal((n, c, h, h))
    wd = r.standard_normal((c, 1, k, k))
    for opad in range(s):
        if tconv_out_dim(h, k, s, p, opad) >= 1:
            np.testing.assert_allclose(tconv2d_forward(x, wt, None, s, p, opad),
                                       naive_tconv2d(x, wt, None, s, p, opad), atol=1e-12)
            np.testing.assert_allclose(depthwise_tconv2d_forward(xd, wd, None, s, p, opad),
                                       naive_tconv2d(xd, block_diagonal_kernel(wd), None, s, p, opad),
                                       atol=1e-12)
    ho = conv_out_dim(h, k, s, p)
    if ho < 1:
        return
    opad = h - tconv_out_dim(ho, k, s, p, 0)  # the conv's input rows its last window leaves unread
    gy = r.standard_normal((n, cg, ho, ho))
    gx = conv2d_backward(xd, wt, gy, s, p)[0]
    np.testing.assert_allclose(gx, naive_tconv2d(gy, wt, None, s, p, opad), atol=1e-12)
    gy = r.standard_normal((n, c, ho, ho))
    gx = depthwise_conv2d_backward(xd, wd, gy, s, p)[0]
    np.testing.assert_allclose(gx, naive_tconv2d(gy, block_diagonal_kernel(wd), None, s, p, opad),
                               atol=1e-12)


# (c, h, k, s, p); the last three are a 1x1 conv output and the codec's stride-2 layers, 16 and 32 wide
_ROW_CASES = [(3, 9, 5, 2, 2), (4, 8, 5, 1, 2), (2, 7, 3, 3, 1), (3, 6, 2, 4, 0), (4, 4, 4, 1, 0), (2, 16, 5, 2, 2),
              (2, 32, 5, 2, 2)]


def _check_rows_independent(depthwise, c, h, k, s, p):
    # both lowerings run the batch inside their GEMMs; each batch row of the
    # forward and input gradient of both kinds must come out as if run alone,
    # and bit for bit for the depthwise kind (a batch-1 decode must equal its
    # row of a 16-row one); its GEMMs take the batch as their columns, so
    # this measures what the BLAS does with them, not a property of the layout
    n, cout = 5, c if depthwise else c + 1
    r = _example_rng(c, h, k, s, p)
    x = r.standard_normal((c, h, h, n))
    if depthwise:
        conv, tconv = kernels.depthwise_conv2d_forward, kernels.depthwise_tconv2d_forward
        conv_back, tconv_back = kernels.depthwise_conv2d_backward, kernels.depthwise_tconv2d_backward
        w = wt = r.standard_normal((c, 1, k, k))
    else:
        conv, tconv = (lambda *a: kernels.conv2d_forward_cached(*a)[0]), kernels.tconv2d_forward
        conv_back, tconv_back = kernels.conv2d_backward, kernels.tconv2d_backward
        w, wt = r.standard_normal((cout, c, k, k)), r.standard_normal((c, cout, k, k))
    b = r.standard_normal(cout)
    ho, opad = conv_out_dim(h, k, s, p), s - 1
    hup = tconv_out_dim(h, k, s, p, opad)
    gy = r.standard_normal((cout, ho, ho, n))
    gyt = r.standard_normal((cout, hup, hup, n))
    calls = [
        lambda x, gy, gyt: conv(x, w, b, s, p),
        lambda x, gy, gyt: tconv(x, wt, b, s, p, opad),
        lambda x, gy, gyt: conv_back(x, w, gy, s, p)[0],
        lambda x, gy, gyt: tconv_back(x, wt, gyt, s, p, opad)[0],
    ]
    for call in calls:
        whole = call(x, gy, gyt)
        for i in range(n):
            row = call(x[..., i:i + 1], gy[..., i:i + 1], gyt[..., i:i + 1])
            if depthwise:
                np.testing.assert_array_equal(whole[..., i:i + 1], row)
            else:
                np.testing.assert_allclose(whole[..., i:i + 1], row, atol=1e-12)


@pytest.mark.parametrize("c, h, k, s, p", _ROW_CASES)
def test_depthwise_kernels_are_row_independent(c, h, k, s, p):
    _check_rows_independent(True, c, h, k, s, p)


@pytest.mark.parametrize("c, h, k, s, p", _ROW_CASES)
def test_dense_kernels_are_row_independent(c, h, k, s, p):
    _check_rows_independent(False, c, h, k, s, p)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.integers(1, 5),
       st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
@example(n=2, c=2, h=5, wd=11, k=5, s=2, p=2)  # wider than tall
@example(n=1, c=3, h=12, wd=4, k=3, s=3, p=4)  # taller than wide, padding >= k
@example(n=2, c=1, h=2, wd=7, k=4, s=4, p=1)  # stride above the height
@example(n=2, c=1, h=3, wd=5, k=1, s=8, p=2)  # the one output row reads padding only
@example(n=2, c=2, h=3, wd=6, k=5, s=1, p=2)  # h < k: every tile reads padding rows
@example(n=3, c=2, h=7, wd=5, k=3, s=1, p=0)  # p = 0, s = 1: every forward tile reads input rows alone
def test_depthwise_kernels_match_dense_on_non_square_inputs(n, c, h, wd, k, s, p):
    # the Toeplitz matrices depend on the width and the row padding on the
    # height, so H != W here; every op of the kind, gw included, against the
    # dense kernels on the block-diagonal kernel
    r = _example_rng(n, c, h, wd, k, s, p)
    x = r.standard_normal((n, c, h, wd))
    w = r.standard_normal((c, 1, k, k))
    b = r.standard_normal(c)
    wb = block_diagonal_kernel(w)
    diag = np.arange(c)
    for opad in range(s):
        dh, dw = (tconv_out_dim(d, k, s, p, opad) for d in (h, wd))
        if min(dh, dw) < 1:
            continue
        np.testing.assert_allclose(depthwise_tconv2d_forward(x, w, b, s, p, opad),
                                   tconv2d_forward(x, wb, b, s, p, opad), atol=1e-12)
        gy = r.standard_normal((n, c, dh, dw))
        gx, gw, gb = depthwise_tconv2d_backward(x, w, gy, s, p, opad)
        gx_dense, gw_dense, gb_dense = tconv2d_backward(x, wb, gy, s, p, opad)
        np.testing.assert_allclose(gx, gx_dense, atol=1e-12)
        np.testing.assert_allclose(gw[:, 0], gw_dense[diag, diag], atol=1e-12)
        np.testing.assert_allclose(gb, gb_dense, atol=1e-12)
    ho, wo = conv_out_dim(h, k, s, p), conv_out_dim(wd, k, s, p)
    if min(ho, wo) < 1:
        return
    np.testing.assert_allclose(depthwise_conv2d_forward(x, w, b, s, p), conv2d_forward(x, wb, b, s, p), atol=1e-12)
    gy = r.standard_normal((n, c, ho, wo))
    gx, gw, gb = depthwise_conv2d_backward(x, w, gy, s, p)
    gx_dense, gw_dense, gb_dense = conv2d_backward(x, wb, gy, s, p)
    np.testing.assert_allclose(gx, gx_dense, atol=1e-12)
    np.testing.assert_allclose(gw[:, 0], gw_dense[diag, diag], atol=1e-12)
    np.testing.assert_allclose(gb, gb_dense, atol=1e-12)


def test_depthwise_backward_makes_no_k_fold_copy():
    # the Toeplitz lowering reads its input in place: one batch-32 backward,
    # outputs included, peaks below the k-fold row-shift copy of its input
    c, h, n, k = 32, 8, 32, 5
    x = rng.standard_normal((c, h, h, n))
    w = rng.standard_normal((c, 1, k, k))
    gy = rng.standard_normal((c, h, h, n))
    rows = h - 1 + k
    tracemalloc.start()
    try:
        kernels.depthwise_conv2d_backward(x, w, gy, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * k * h * n * c * x.itemsize


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 11), st.integers(1, 11), st.integers(1, 5),
       st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
@example(n=2, c=2, h=3, wd=7, k=3, s=1, p=0)  # Ho = 1: one band of one row
@example(n=1, c=3, h=7, wd=10, k=3, s=1, p=1)  # Ho = 7, not a multiple of the band: g gets a zero row
@example(n=3, c=2, h=5, wd=9, k=3, s=2, p=0)  # Ho = 2, below the band height
@example(n=2, c=1, h=9, wd=11, k=2, s=4, p=1)  # stride above k: two phase planes for a stride of 4
@example(n=2, c=2, h=4, wd=6, k=2, s=1, p=3)  # padding >= k: whole slab rows and columns of zeros
@example(n=2, c=4, h=6, wd=1, k=3, s=1, p=1)  # width 1
def test_depthwise_weight_gradients_match_tap_oracle(n, c, h, wd, k, s, p):
    # the kernel gradient of both depthwise kinds, against a loop over the taps
    r = _example_rng(n, c, h, wd, k, s, p)
    x = r.standard_normal((n, c, h, wd))
    w = r.standard_normal((c, 1, k, k))
    ho, wo = conv_out_dim(h, k, s, p), conv_out_dim(wd, k, s, p)
    if min(ho, wo) >= 1:
        gy = r.standard_normal((n, c, ho, wo))
        gw = depthwise_conv2d_backward(x, w, gy, s, p)[1]
        np.testing.assert_allclose(gw, naive_depthwise_weight_grad(x, gy, k, s, p), atol=1e-12)
        assert gw.flags.c_contiguous
    for opad in range(s):
        dh, dw = (tconv_out_dim(d, k, s, p, opad) for d in (h, wd))
        if min(dh, dw) >= 1:
            gy = r.standard_normal((n, c, dh, dw))
            gw = depthwise_tconv2d_backward(x, w, gy, s, p, opad)[1]
            np.testing.assert_allclose(gw, naive_depthwise_weight_grad(gy, x, k, s, p), atol=1e-12)


def test_depthwise_weight_gradient_copies_only_its_input():
    # the kernel gradient reads gy in place and copies only the input, zero-padded, into its phase
    # planes: one batch-32 call peaks below that copy plus half of gy's bytes (1.28 MB against a
    # bound of 1.44 MB), where a transposed copy of gy, as an earlier lowering made, peaked at 1.84 MB
    c, h, n, k, p = 32, 8, 32, 5, 2
    x = rng.standard_normal((c, h, h, n))
    w = rng.standard_normal((c, 1, k, k))
    gy = rng.standard_normal((c, h, h, n))
    tracemalloc.start()
    try:
        kernels.depthwise_conv2d_backward(x, w, gy, 1, p, input_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (h + 2 * p) ** 2 * c * n * x.itemsize + gy.nbytes // 2


@pytest.mark.parametrize("s", [1, 2])
def test_depthwise_forward_reads_its_input_in_place(s):
    # every tile reads its rows of the input in place, an edge tile only those inside it, so one
    # batch-8 forward, output included, peaks below the input's bytes plus the output's
    c, h, n, k, p = 16, 32, 8, 5, 2
    x = rng.standard_normal((c, h, h, n))
    w = rng.standard_normal((c, 1, k, k))
    b = rng.standard_normal(c)
    ho = conv_out_dim(h, k, s, p)
    tracemalloc.start()
    try:
        kernels.depthwise_conv2d_forward(x, w, b, s, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + c * ho * ho * n * x.itemsize


@pytest.mark.parametrize("k, s, p", [(5, 2, 2), (5, 1, 2), (3, 3, 1), (2, 1, 0), (1, 2, 0)])
def test_dense_patches_are_a_k_fold_copy(k, s, p):
    # MEC's row-shift copy holds each input row the output reads once per tap
    # column, across all channels: no k*k factor, as im2col's patches have
    c, h, n = 3, 16, 4
    x = rng.standard_normal((c, h, h, n))
    y, cols = kernels.conv2d_forward_cached(x, rng.standard_normal((8, c, k, k)), None, s, p)
    ho, wo = y.shape[1:3]
    assert cols.size == (s * (ho - 1) + k) * c * k * wo * n


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("k, p", [(1, 1), (2, 3), (3, 3)])
def test_dense_weight_gradients_match_oracle_at_batch_one(k, s, p):
    # batch 1 makes Wo*N and the per-row GEMMs their smallest, and padding >= k
    # puts whole rows and columns of the row-shift copy outside the input;
    # the oracle is <gy, naive layer of a one-hot kernel> for every kernel entry
    r = _example_rng(k, s, p)
    x = r.standard_normal((1, 2, 5, 5))
    w, wt = r.standard_normal((3, 2, k, k)), r.standard_normal((2, 3, k, k))
    ho = conv_out_dim(5, k, s, p)
    gy = r.standard_normal((1, 3, ho, ho))
    expected = [np.sum(gy * naive_conv2d(x, u, None, s, p)) for u in np.eye(w.size).reshape(-1, *w.shape)]
    gw = conv2d_backward(x, w, gy, s, p)[1]
    np.testing.assert_allclose(gw, np.reshape(expected, w.shape), atol=1e-12)
    assert gw.flags.c_contiguous  # as every gradient is, for the optimizer's elementwise updates
    d = tconv_out_dim(5, k, s, p, s - 1)
    if d < 1:
        return
    gy = r.standard_normal((1, 3, d, d))
    units = np.eye(wt.size).reshape(-1, *wt.shape)
    expected = [np.sum(gy * naive_tconv2d(x, u, None, s, p, s - 1)) for u in units]
    np.testing.assert_allclose(tconv2d_backward(x, wt, gy, s, p, s - 1)[1], np.reshape(expected, wt.shape),
                               atol=1e-12)


@pytest.mark.parametrize("depthwise", [False, True])
def test_input_gradient_can_be_skipped(depthwise):
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((3, 1, 3, 3)) if depthwise else rng.standard_normal((4, 3, 3, 3))
    gy = rng.standard_normal((2, w.shape[0], 3, 3))
    backward = depthwise_conv2d_backward if depthwise else conv2d_backward
    gx, gw, gb = backward(x, w, gy, 2, 1)
    skipped = backward(x, w, gy, 2, 1, input_grad=False)
    assert gx.shape == x.shape and skipped[0] is None
    np.testing.assert_array_equal(skipped[1], gw)
    np.testing.assert_array_equal(skipped[2], gb)


# each kernel's parameters, keyword-only ones after "*": perfbench's tracer reads the
# weight as args[1], gy as args[2] (its bwd_out rule) and x as args[0], by position
KERNEL_PARAMETERS = {
    "conv2d_forward_cached": "x w b stride padding",
    "conv2d_backward": "x w gy stride padding col * input_grad",
    "depthwise_conv2d_forward": "x w b stride padding",
    "depthwise_conv2d_backward": "x w gy stride padding * input_grad",
    "tconv2d_forward": "x w b stride padding output_padding",
    "tconv2d_backward": "x w gy stride padding output_padding",
    "depthwise_tconv2d_forward": "x w b stride padding output_padding",
    "depthwise_tconv2d_backward": "x w gy stride padding output_padding",
    "prelu_forward": "x slopes",
    "prelu_backward": "x slopes gy",
    "sigmoid_forward": "x",
    "sigmoid_backward": "y gy",
}


def _parameters(fn) -> str:
    names = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(p.name)
    return " ".join(names)


def test_benchmark_kernel_names_exist(monkeypatch):
    # perfbench/ looks kernels and its other hooks up by name; a rename must fail here, not as a crashed benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    missing = [name for name in tracer.KERNEL_OPS if not callable(getattr(kernels, name, None))]
    assert tracer.KERNEL_OPS and not missing, f"kernels.py lacks {missing}"
    assert {name: _parameters(getattr(kernels, name)) for name in tracer.KERNEL_OPS} == KERNEL_PARAMETERS
    hooks = tracer.Tracer()
    try:
        hooks.install(dscjscc)
        patched = list(hooks._patches)
    finally:
        hooks.uninstall()
    assert len(patched) > len(tracer.KERNEL_OPS)
    changed = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, original in patched
               if getattr(owner, attr) is not original]
    assert not changed, f"uninstall left {changed} patched"


# Drives the library the way perfbench does, through each hook its workloads, ledger and report call
_BENCHMARK_HOOKS = """
import sys
from pathlib import Path
root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import ledger, report, workloads
lib = workloads.load_library(root)
for workload in workloads.WORKLOADS:
    for trace in (False, True):
        run = workloads.Run(lib, workload, 1, trace, work, workloads.Checks())
        run._set_tracing(trace)
        assert run._round_trip(run._fresh_model()) is not None, workload
        assert len(run._dataset(2, "data", "train")) == 2
        flops = ledger.layer_flops(run)
        assert set(flops) == set(ledger.LAYERS) and min(flops.values()) > 0, flops
        run._set_tracing(False)
        assert run.checks.failed == 0, (workload, trace)
small, paper = report.flop_ratio()
assert 0 < small < 1 and 0 < paper < 1, (small, paper)
"""


def test_benchmark_library_hooks_run(tmp_path):
    # workloads.load_library registers the checkout as dscjscc in sys.modules, so this runs in a child
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", _BENCHMARK_HOOKS, str(root), str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
