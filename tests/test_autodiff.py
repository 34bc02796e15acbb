"""Reverse-mode correctness: finite differences, hand-derived cases, determinism."""

import weakref

import numpy as np
import pytest

from dscjscc import autodiff as ad
from dscjscc import kernels
from dscjscc.autodiff import AutodiffError, Tensor
from oracles import DIFFERENTIABLE_OPS, finite_diff_check, gradcheck, sum_all

rng = np.random.default_rng(42)


@pytest.mark.parametrize("op", DIFFERENTIABLE_OPS)
def test_finite_diff_all_primitives(op):
    report = finite_diff_check(op, trials=10, seed=7)
    assert report.max_rel_error < 1e-4, f"{op}: {report.per_input}"


def test_finite_diff_is_deterministic():
    a = finite_diff_check("conv2d", trials=3, seed=11)
    b = finite_diff_check("conv2d", trials=3, seed=11)
    assert a.per_input == b.per_input


def test_prelu_away_from_kink_is_tight():
    assert finite_diff_check("prelu", trials=8, seed=3).max_rel_error < 1e-6


def test_sigmoid_is_tight():
    assert finite_diff_check("sigmoid", trials=8, seed=3).max_rel_error < 1e-6


def test_unknown_primitive_rejected():
    with pytest.raises(ValueError, match="unknown primitive"):
        finite_diff_check("softmax", trials=1, seed=0)


def test_conv_weight_gradient_analytic():
    # sum of conv output w.r.t. a 1x1 all-ones kernel on constant (C, H, W, N) input
    v = 3.5
    x = Tensor(np.full((1, 4, 6, 1), v))
    w = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    out = ad.conv2d(x, w, Tensor(np.zeros(1)), 1, 0)
    sum_all(out).backward()
    assert w.grad[0, 0, 0, 0] == pytest.approx(4 * 6 * v)


def test_identity_pointwise_passes_upstream_gradient():
    x = Tensor(rng.standard_normal((3, 4, 4, 2)), requires_grad=True)  # (C, H, W, N)
    w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
    y = ad.pointwise_conv2d(x, w, Tensor(np.zeros(3)))
    g = rng.standard_normal(y.data.shape)
    sum_all(ad.scale(y, g)).backward()
    np.testing.assert_array_equal(x.grad, g)


def test_backward_without_graph_raises():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(AutodiffError, match="no recorded graph"):
        t.backward()


def test_backward_needs_scalar_or_upstream():
    x = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
    y = ad.sigmoid(x)
    with pytest.raises(AutodiffError, match="scalar"):
        y.backward()


def test_gradients_accumulate_across_reuse():
    x = Tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True)
    y = ad.scale(x, 3.0)
    z = ad.scale(x, 5.0)
    total = sum_all(ad.add_constant(y, np.zeros_like(y.data)))
    total2 = sum_all(z)
    total.backward()
    total2.backward()
    np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 8.0))


def test_fan_out_gradients_add_out_of_place():
    # x feeds two reshapes; it keeps the first one's gradient as handed, a view
    # of that node's own, and adds the second out of place, leaving the first intact
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    a, b = ad.reshape(x, (3, 2)), ad.reshape(x, (6,))
    ga, gb = rng.standard_normal((3, 2)), rng.standard_normal(6)
    sum_all(ad.scale(a, ga)).backward()
    g1 = x.grad
    sum_all(ad.scale(b, gb)).backward()
    np.testing.assert_array_equal(g1, ga.reshape(2, 3))
    np.testing.assert_array_equal(x.grad, ga.reshape(2, 3) + gb.reshape(2, 3))


def test_second_backward_of_one_loss_raises():
    # a pass that re-ran the consumed graph would add its gradient to x again
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ad.mse_mean(ad.scale(ad.scale(x, 3.0), 1.0), Tensor(np.zeros(2)))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(AutodiffError, match="consumed"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_through_a_node_another_loss_consumed_raises():
    # h has passed l1's gradient on and dropped its VJP: l2's gradient through h
    # can be neither re-sent with l1's nor dropped without a word
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = ad.scale(x, 2.0)
    l1 = ad.mse_mean(h, Tensor(np.zeros(2)))
    l2 = sum_all(ad.scale(h, np.array([0.5, 1.5])))
    l1.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    with pytest.raises(AutodiffError, match="consumed"):
        l2.backward()


def test_backward_releases_interior_nodes_and_leaves_keep_gradients():
    x = Tensor(rng.standard_normal((2, 5, 5, 3)), requires_grad=True)  # (C, H, W, N)
    w = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    slopes = Tensor(np.full(4, 0.25), requires_grad=True)
    h = ad.sigmoid(ad.prelu(ad.conv2d(x, w, b, 2, 1), slopes))
    loss = ad.mse_mean(ad.reshape(h, (-1,)), Tensor(np.zeros(h.data.size)))
    interior, todo = [], [loss]
    while todo:
        node = todo.pop()
        if node._backward is not None and all(node is not n for n in interior):
            interior.append(node)
            todo.extend(node._parents)
    assert len(interior) == 5  # mse, reshape, sigmoid, prelu, conv2d
    loss.backward()
    for node in interior:
        assert node.grad is None and node._parents == ()
    for leaf in (x, w, b, slopes):
        assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape


def test_interior_activation_is_freed_by_backward():
    x = Tensor(rng.standard_normal((2, 5, 5, 3)), requires_grad=True)  # (C, H, W, N)
    h = ad.prelu(x, Tensor(np.full(2, 0.25)))
    activation = weakref.ref(h.data)
    loss = sum_all(ad.sigmoid(h))  # the sigmoid's VJP reads h's array, and the loss holds it
    del h
    assert activation() is not None
    loss.backward()
    assert activation() is None


def test_power_normalize_zero_norm_rejected():
    z = Tensor(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="zero-norm"):
        ad.power_normalize(z, 2, 1.0)


def test_gradcheck_on_composed_graph():
    x = rng.standard_normal((2, 5, 5, 1))  # (C, H, W, N)
    w1 = rng.standard_normal((3, 2, 3, 3)) * 0.4
    w2 = rng.standard_normal((2, 3, 1, 1)) * 0.4

    def build(t):
        h = ad.conv2d(t["x"], t["w1"], Tensor(np.zeros(3)), 2, 1)
        h = ad.sigmoid(h)
        h = ad.pointwise_conv2d(h, t["w2"], Tensor(np.zeros(2)))
        return sum_all(h)

    errs = gradcheck(build, {"x": x, "w1": w1, "w2": w2})
    assert max(errs.values()) < 1e-6


def test_forward_is_bitwise_deterministic():
    x = rng.standard_normal((3, 8, 8, 2))  # (C, H, W, N)
    w = rng.standard_normal((4, 3, 5, 5))
    a = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), 2, 2).data
    b = ad.conv2d(Tensor(x.copy()), Tensor(w.copy()), Tensor(np.zeros(4)), 2, 2).data
    np.testing.assert_array_equal(a, b)


def test_constants_record_no_graph():
    x = rng.standard_normal((2, 6, 6, 3))  # (C, H, W, N)
    w = rng.standard_normal((4, 2, 3, 3))
    b = Tensor(np.zeros(4))
    y = ad.prelu(ad.conv2d(Tensor(x), Tensor(w), b, 1, 1), Tensor(np.full(4, 0.25)))
    assert not y.requires_grad and y._parents == () and y._backward is None
    # one parent that requires a gradient still records the node and back-propagates
    wt = Tensor(w, requires_grad=True)
    out = ad.conv2d(Tensor(x), wt, b, 1, 1)
    assert out.requires_grad and len(out._parents) == 3 and out._backward is not None
    sum_all(out).backward()
    expected = kernels.conv2d_backward(x, w, np.ones_like(out.data), 1, 1, input_grad=False)[1]
    np.testing.assert_array_equal(wt.grad, expected)
