"""Independent brute-force reference implementations used only by tests.

These stay deliberately naive (nested Python loops, no shared code with the
package's vectorized kernels) so they can serve as oracles.  Beside them sit
the small helpers only tests call (one-shot AWGN, smoothed loss endpoints).  The
finite-difference checker at the end compares each differentiable primitive's
analytic gradient against central differences of its own forward pass.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dscjscc.autodiff import (Tensor, _node, conv2d, depthwise_conv2d, depthwise_tconv2d,
                              mse_mean, pointwise_conv2d, power_normalize, prelu, scale, sigmoid,
                              tconv2d, transpose)
from dscjscc.channel import AwgnChannel
from dscjscc.kernels import ShapeError, tconv_out_dim


def naive_conv2d(x, w, b, stride, padding):
    """Six nested loops of direct cross-correlation."""
    n, c, h, wd = x.shape
    cout, cin, k, _ = w.shape
    assert cin == c
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    y = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for o in range(cout):
            for hi in range(ho):
                for wi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[ni, ci, hi * stride + ki, wi * stride + kj] * w[o, ci, ki, kj]
                    y[ni, o, hi, wi] = acc + (b[o] if b is not None else 0.0)
    return y


def naive_tconv2d(x, w, b, stride, padding, output_padding):
    """Direct stamp accumulation: each input pixel adds its scaled kernel."""
    n, c, h, wd = x.shape
    cin, cout, k, _ = w.shape
    assert cin == c
    ho = (h - 1) * stride - 2 * padding + k + output_padding
    wo = (wd - 1) * stride - 2 * padding + k + output_padding
    yp = np.zeros((n, cout, ho + 2 * padding, wo + 2 * padding))
    for ni in range(n):
        for ci in range(c):
            for hi in range(h):
                for wi in range(wd):
                    v = x[ni, ci, hi, wi]
                    for o in range(cout):
                        for ki in range(k):
                            for kj in range(k):
                                yp[ni, o, hi * stride + ki, wi * stride + kj] += v * w[ci, o, ki, kj]
    y = yp[:, :, padding:padding + ho, padding:padding + wo]
    if b is not None:
        y = y + b[None, :, None, None]
    return y


def naive_depthwise_weight_grad(u, g, k, stride, padding):
    """Kernel gradient of a depthwise conv, one tap at a time, on (N, C, H, W) arrays.

    gw[c, 0, i, j] = sum over n, r, o of g[n, c, r, o] * u[n, c, s*r + i - p, s*o + j - p], u zero
    outside: ``u`` is the conv's input and ``g`` its output's gradient.  A depthwise transposed conv
    with input x and output gradient gy has the kernel gradient of u = gy and g = x, as each of its
    taps (i, j) adds x[r, o] * w[i, j] to output (s*r + i - p, s*o + j - p).
    """
    n, c, h, wd = u.shape
    ho, wo = g.shape[2:]
    up = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    up[:, :, padding:padding + h, padding:padding + wd] = u
    gw = np.zeros((c, 1, k, k))
    for i in range(k):
        for j in range(k):
            window = up[:, :, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            gw[:, 0, i, j] = np.sum(g * window, axis=(0, 2, 3))
    return gw


def block_diagonal_kernel(w_depthwise):
    """Embed a (C,1,K,K) depthwise kernel into a grouped (C,C,K,K) standard kernel."""
    c, _, k, _ = w_depthwise.shape
    w = np.zeros((c, c, k, k))
    for ci in range(c):
        w[ci, ci] = w_depthwise[ci, 0]
    return w


def oracle_param_count(model):
    """Brute-force scalar count over every instantiated parameter tensor."""
    total = 0
    for tensor in model.params.values():
        count = 0
        for _ in tensor.data.flat:
            count += 1
        total += count
    return total


def reshape_to_complex(feature):
    """Pair consecutive row-major scalars of an (N, c, H, W) map into (N, k) complex."""
    if feature.ndim != 4:
        raise ShapeError(f"reshape_to_complex: expected rank-4 feature map, got rank {feature.ndim}")
    n = feature.shape[0]
    flat = feature.reshape(n, -1)
    if flat.shape[1] % 2 != 0:
        raise ShapeError(f"reshape_to_complex: element count {flat.shape[1]} per item is odd")
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def mse_loss(x, xhat):
    """Batch-mean of per-sample squared-error sums (the training objective's raw form)."""
    x, xhat = np.asarray(x, dtype=np.float64), np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ShapeError(f"mse_loss: shape mismatch {x.shape} vs {xhat.shape}")
    batch = x.shape[0]
    return float(np.sum((x - xhat) ** 2) / batch)


def naive_mse_sum_per_sample(x, xhat):
    """Batch mean of per-sample squared-error sums via explicit loops."""
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        a = x[i].reshape(-1)
        b = xhat[i].reshape(-1)
        s = 0.0
        for j in range(a.size):
            d = a[j] - b[j]
            s += d * d
        total += s
    return total / n


def awgn(z, config):
    """One noisy transmission; the draw is a pure function of (z.shape, config)."""
    return AwgnChannel(config).transmit(z)


def smoothed_endpoints(history, window=20):
    """Mean loss over the first and last `window` steps."""
    losses = [r.loss for r in history]
    w = min(window, len(losses))
    return float(np.mean(losses[:w])), float(np.mean(losses[-w:]))


def numeric_param_grad(loss_fn, arr, indices, step=1e-4):
    """Central differences of loss_fn at the given flat indices of arr (in place)."""
    flat = arr.reshape(-1)
    grads = {}
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + step
        fp = loss_fn()
        flat[idx] = orig - step
        fm = loss_fn()
        flat[idx] = orig
        grads[idx] = (fp - fm) / (2 * step)
    return grads


def sum_all(x):
    """Sum of every element, as a graph node: the scalar that the gradient checks differentiate."""
    return _node(np.array(x.data.sum()), (x,), lambda gy: (np.full_like(x.data, float(gy)),))


@dataclass
class FiniteDiffReport:
    op: str
    trials: int
    seed: int
    per_input: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_input.values()) if self.per_input else 0.0


def _numeric_grad(fn: Callable[[], float], arr: np.ndarray, step: float) -> np.ndarray:
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = fn()
        flat[i] = orig - step
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def gradcheck(build: Callable[[dict[str, Tensor]], Tensor],
              inputs: dict[str, np.ndarray], step: float = 1e-4) -> dict[str, float]:
    """Compare analytic gradients of a scalar-valued graph against central differences.

    Returns per-input max |analytic - numeric| normalised by the numeric
    gradient's largest magnitude.
    """
    tensors = {k: Tensor(v, requires_grad=True) for k, v in inputs.items()}
    out = build(tensors)
    out.backward()
    errors: dict[str, float] = {}
    for name, t in tensors.items():
        def value() -> float:
            fresh = {k: Tensor(v.data) for k, v in tensors.items()}
            return float(build(fresh).data)

        num = _numeric_grad(value, t.data, step)
        denom = max(float(np.max(np.abs(num))), 1e-12)
        errors[name] = float(np.max(np.abs(t.grad - num))) / denom
    return errors


def _weighted(out: Callable[[dict[str, Tensor]], Tensor], inputs: dict[str, np.ndarray],
              rng: np.random.Generator) -> tuple[Callable[[dict[str, Tensor]], Tensor], dict[str, np.ndarray]]:
    # weight the output sum randomly so the full Jacobian is exercised
    r = rng.standard_normal(out({k: Tensor(v) for k, v in inputs.items()}).shape)
    return (lambda t: sum_all(scale(out(t), r))), inputs


def _trial_config(op: str, rng: np.random.Generator) -> tuple[Callable[[dict[str, Tensor]], Tensor], dict[str, np.ndarray]]:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    h = int(rng.integers(3, 7))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, k))
    x = rng.standard_normal((c, h, h, n))  # (C, H, W, N), the kernels' layout
    if op == "conv2d":
        cout = int(rng.integers(1, 4))
        w = rng.standard_normal((cout, c, k, k)) * 0.5
        b = rng.standard_normal(cout) * 0.1
        return _weighted(lambda t: conv2d(t["x"], t["w"], t["b"], stride, padding),
                         {"x": x, "w": w, "b": b}, rng)
    if op == "depthwise_conv2d":
        w = rng.standard_normal((c, 1, k, k)) * 0.5
        b = rng.standard_normal(c) * 0.1
        return _weighted(lambda t: depthwise_conv2d(t["x"], t["w"], t["b"], stride, padding),
                         {"x": x, "w": w, "b": b}, rng)
    if op == "pointwise_conv2d":
        cout = int(rng.integers(1, 4))
        w = rng.standard_normal((cout, c, 1, 1)) * 0.5
        b = rng.standard_normal(cout) * 0.1
        return _weighted(lambda t: pointwise_conv2d(t["x"], t["w"], t["b"]), {"x": x, "w": w, "b": b}, rng)
    if op == "tconv2d":
        cout = int(rng.integers(1, 4))
        op_pad = int(rng.integers(0, stride))
        w = rng.standard_normal((c, cout, k, k)) * 0.5
        b = rng.standard_normal(cout) * 0.1
        if tconv_out_dim(h, k, stride, padding, op_pad) < 1:
            return _trial_config(op, rng)
        return _weighted(lambda t: tconv2d(t["x"], t["w"], t["b"], stride, padding, op_pad),
                         {"x": x, "w": w, "b": b}, rng)
    if op == "depthwise_tconv2d":
        op_pad = int(rng.integers(0, stride))
        w = rng.standard_normal((c, 1, k, k)) * 0.5
        b = rng.standard_normal(c) * 0.1
        if tconv_out_dim(h, k, stride, padding, op_pad) < 1:
            return _trial_config(op, rng)
        return _weighted(lambda t: depthwise_tconv2d(t["x"], t["w"], t["b"], stride, padding, op_pad),
                         {"x": x, "w": w, "b": b}, rng)
    if op == "prelu":
        # keep samples away from the kink at 0
        xa = x + np.sign(x) * 0.05
        xa[np.abs(xa) < 1e-3] = 0.1
        slopes = rng.uniform(0.1, 0.5, size=c)
        return _weighted(lambda t: prelu(t["x"], t["s"]), {"x": xa, "s": slopes}, rng)
    if op == "sigmoid":
        return _weighted(lambda t: sigmoid(t["x"]), {"x": x}, rng)
    if op == "power_normalize":
        m = 2 * int(rng.integers(2, 6))
        z = rng.standard_normal((n, m)) + 0.1
        kk, p = m // 2, float(rng.uniform(0.5, 2.0))
        return _weighted(lambda t: power_normalize(t["z"], kk, p), {"z": z}, rng)
    if op == "transpose":
        axes = tuple(int(a) for a in rng.permutation(4))
        return _weighted(lambda t: transpose(t["x"], axes), {"x": x}, rng)
    if op == "mse_mean":
        y = rng.standard_normal(x.shape)
        return (lambda t: mse_mean(t["a"], t["b"]), {"a": x, "b": y})
    raise ValueError(f"finite_diff_check: unknown primitive {op!r}")


DIFFERENTIABLE_OPS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "tconv2d",
                      "depthwise_tconv2d", "prelu", "sigmoid", "power_normalize", "mse_mean",
                      "transpose")


def finite_diff_check(op: str, trials: int = 10, seed: int = 0, step: float = 1e-4) -> FiniteDiffReport:
    """Run randomized central-difference checks for one primitive."""
    rng = np.random.default_rng(seed)
    report = FiniteDiffReport(op=op, trials=trials, seed=seed)
    for _ in range(trials):
        build, inputs = _trial_config(op, rng)
        for name, err in gradcheck(build, inputs, step=step).items():
            report.per_input[name] = max(report.per_input.get(name, 0.0), err)
    return report
