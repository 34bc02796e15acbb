"""Independent brute-force reference implementations used only by tests.

These stay deliberately naive (nested Python loops, no shared code with the
package's vectorized kernels) so they can serve as oracles.
"""

import numpy as np

from dscjscc.kernels import ShapeError


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
