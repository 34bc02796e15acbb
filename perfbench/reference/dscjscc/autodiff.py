"""Minimal reverse-mode engine over the convolution primitives.

A :class:`Tensor` wraps a float64 numpy array and remembers how it was
produced.  Calling :meth:`Tensor.backward` on a scalar (or with an explicit
upstream gradient) walks the recorded graph in reverse topological order and
accumulates gradients into every leaf created with ``requires_grad=True``.

Only the operations the codec needs exist here; there is no broadcasting
beyond per-channel parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .kernels import ShapeError


class AutodiffError(RuntimeError):
    """Backward invoked on a tensor with no recorded graph, or bad upstream shape."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, upstream: np.ndarray | None = None) -> None:
        if not self.requires_grad:
            raise AutodiffError("backward called on a tensor with no recorded graph")
        if upstream is None:
            if self.data.size != 1:
                raise AutodiffError("backward without an upstream gradient needs a scalar output")
            upstream = np.ones_like(self.data)
        else:
            upstream = np.asarray(upstream, dtype=np.float64)
            if upstream.shape != self.data.shape:
                raise AutodiffError(f"upstream gradient shape {upstream.shape} != output shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(upstream)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=parents,
                  backward_fn=backward_fn if req else None)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int) -> Tensor:
    y, col = kernels.conv2d_forward_cached(x.data, w.data, None if b is None else b.data,
                                           stride, padding)
    parents = (x, w) if b is None else (x, w, b)

    def backward(gy: np.ndarray) -> None:
        gx, gw, gb = kernels.conv2d_backward(x.data, w.data, gy, stride, padding, col=col)
        if x.requires_grad:
            x._accumulate(gx)
        if w.requires_grad:
            w._accumulate(gw)
        if b is not None and b.requires_grad:
            b._accumulate(gb)

    return _node(y, parents, backward)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int) -> Tensor:
    y = kernels.depthwise_conv2d_forward(x.data, w.data, None if b is None else b.data, stride, padding)
    parents = (x, w) if b is None else (x, w, b)

    def backward(gy: np.ndarray) -> None:
        gx, gw, gb = kernels.depthwise_conv2d_backward(x.data, w.data, gy, stride, padding)
        if x.requires_grad:
            x._accumulate(gx)
        if w.requires_grad:
            w._accumulate(gw)
        if b is not None and b.requires_grad:
            b._accumulate(gb)

    return _node(y, parents, backward)


def pointwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    if w.data.shape[2] != 1 or w.data.shape[3] != 1:
        raise ShapeError(f"pointwise_conv2d: kernel size must be 1, got {w.data.shape[2:]}")
    return conv2d(x, w, b, 1, 0)


def tconv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int,
            output_padding: int) -> Tensor:
    y = kernels.tconv2d_forward(x.data, w.data, None if b is None else b.data,
                                stride, padding, output_padding)
    parents = (x, w) if b is None else (x, w, b)

    def backward(gy: np.ndarray) -> None:
        gx, gw, gb = kernels.tconv2d_backward(x.data, w.data, gy, stride, padding, output_padding)
        if x.requires_grad:
            x._accumulate(gx)
        if w.requires_grad:
            w._accumulate(gw)
        if b is not None and b.requires_grad:
            b._accumulate(gb)

    return _node(y, parents, backward)


def depthwise_tconv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int,
                      output_padding: int) -> Tensor:
    y = kernels.depthwise_tconv2d_forward(x.data, w.data, None if b is None else b.data,
                                          stride, padding, output_padding)
    parents = (x, w) if b is None else (x, w, b)

    def backward(gy: np.ndarray) -> None:
        gx, gw, gb = kernels.depthwise_tconv2d_backward(x.data, w.data, gy, stride, padding, output_padding)
        if x.requires_grad:
            x._accumulate(gx)
        if w.requires_grad:
            w._accumulate(gw)
        if b is not None and b.requires_grad:
            b._accumulate(gb)

    return _node(y, parents, backward)


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    y = kernels.prelu_forward(x.data, slopes.data)

    def backward(gy: np.ndarray) -> None:
        gx, gs = kernels.prelu_backward(x.data, slopes.data, gy)
        if x.requires_grad:
            x._accumulate(gx)
        if slopes.requires_grad:
            slopes._accumulate(gs)

    return _node(y, (x, slopes), backward)


def sigmoid(x: Tensor) -> Tensor:
    y = kernels.sigmoid_forward(x.data)

    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(kernels.sigmoid_backward(y, gy))

    return _node(y, (x,), backward)


def scale(x: Tensor, c: float) -> Tensor:
    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(c * gy)

    return _node(x.data * c, (x,), backward)


def add_constant(x: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (e.g. a channel-noise realisation); gradient passes through."""
    if c.shape != x.data.shape:
        raise ShapeError(f"add_constant: constant shape {c.shape} != tensor shape {x.data.shape}")

    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(gy)

    return _node(x.data + c, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(gy.reshape(x.data.shape))

    return _node(x.data.reshape(shape), (x,), backward)


def power_normalize(x: Tensor, k: int, power: float) -> Tensor:
    """Rescale each batch row of a real (N, 2k) tensor to squared norm k*power.

    The rows carry interleaved real/imaginary pairs, so the complex-vector
    power constraint reduces to a plain Euclidean rescale of the row.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"power_normalize: expected rank-2 (N, 2k) input, got rank {x.data.ndim}")
    norms = np.sqrt(np.sum(x.data ** 2, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise ValueError("power_normalize: zero-norm input has no direction to preserve")
    target = math.sqrt(k * power)
    y = x.data * (target / norms)

    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            # d/du [t*u/|u|] = t/|u| * (I - u u^T / |u|^2), applied per row
            dots = np.sum(x.data * gy, axis=1, keepdims=True)
            gx = (target / norms) * (gy - x.data * (dots / norms ** 2))
            x._accumulate(gx)

    return _node(y, (x,), backward)


def mse_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean over every element of (a - b)^2."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse: shape mismatch {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    val = np.array(np.mean(diff ** 2))

    def backward(gy: np.ndarray) -> None:
        g = (2.0 / diff.size) * diff * gy
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _node(val, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, float(gy)))

    return _node(np.array(x.data.sum()), (x,), backward)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

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


def _trial_config(op: str, rng: np.random.Generator) -> tuple[Callable[[dict[str, Tensor]], Tensor], dict[str, np.ndarray]]:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    h = int(rng.integers(3, 7))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, k))
    x = rng.standard_normal((n, c, h, h))
    # weight the output sum randomly so the full Jacobian is exercised
    if op == "conv2d":
        cout = int(rng.integers(1, 4))
        w = rng.standard_normal((cout, c, k, k)) * 0.5
        b = rng.standard_normal(cout) * 0.1
        ho = kernels.conv_out_dim(h, k, stride, padding)
        r = rng.standard_normal((n, cout, ho, ho))
        return (lambda t: sum_all(_mul_const(conv2d(t["x"], t["w"], t["b"], stride, padding), r)),
                {"x": x, "w": w, "b": b})
    if op == "depthwise_conv2d":
        w = rng.standard_normal((c, 1, k, k)) * 0.5
        b = rng.standard_normal(c) * 0.1
        ho = kernels.conv_out_dim(h, k, stride, padding)
        r = rng.standard_normal((n, c, ho, ho))
        return (lambda t: sum_all(_mul_const(depthwise_conv2d(t["x"], t["w"], t["b"], stride, padding), r)),
                {"x": x, "w": w, "b": b})
    if op == "pointwise_conv2d":
        cout = int(rng.integers(1, 4))
        w = rng.standard_normal((cout, c, 1, 1)) * 0.5
        b = rng.standard_normal(cout) * 0.1
        r = rng.standard_normal((n, cout, h, h))
        return (lambda t: sum_all(_mul_const(pointwise_conv2d(t["x"], t["w"], t["b"]), r)),
                {"x": x, "w": w, "b": b})
    if op == "tconv2d":
        cout = int(rng.integers(1, 4))
        op_pad = int(rng.integers(0, stride))
        w = rng.standard_normal((c, cout, k, k)) * 0.5
        b = rng.standard_normal(cout) * 0.1
        ho = kernels.tconv_out_dim(h, k, stride, padding, op_pad)
        if ho < 1:
            return _trial_config(op, rng)
        r = rng.standard_normal((n, cout, ho, ho))
        return (lambda t: sum_all(_mul_const(tconv2d(t["x"], t["w"], t["b"], stride, padding, op_pad), r)),
                {"x": x, "w": w, "b": b})
    if op == "depthwise_tconv2d":
        op_pad = int(rng.integers(0, stride))
        w = rng.standard_normal((c, 1, k, k)) * 0.5
        b = rng.standard_normal(c) * 0.1
        ho = kernels.tconv_out_dim(h, k, stride, padding, op_pad)
        if ho < 1:
            return _trial_config(op, rng)
        r = rng.standard_normal((n, c, ho, ho))
        return (lambda t: sum_all(_mul_const(depthwise_tconv2d(t["x"], t["w"], t["b"], stride, padding, op_pad), r)),
                {"x": x, "w": w, "b": b})
    if op == "prelu":
        # keep samples away from the kink at 0
        xa = x + np.sign(x) * 0.05
        xa[np.abs(xa) < 1e-3] = 0.1
        slopes = rng.uniform(0.1, 0.5, size=c)
        r = rng.standard_normal(xa.shape)
        return (lambda t: sum_all(_mul_const(prelu(t["x"], t["s"]), r)), {"x": xa, "s": slopes})
    if op == "sigmoid":
        r = rng.standard_normal(x.shape)
        return (lambda t: sum_all(_mul_const(sigmoid(t["x"]), r)), {"x": x})
    if op == "power_normalize":
        m = 2 * int(rng.integers(2, 6))
        z = rng.standard_normal((n, m)) + 0.1
        kk, p = m // 2, float(rng.uniform(0.5, 2.0))
        r = rng.standard_normal(z.shape)
        return (lambda t: sum_all(_mul_const(power_normalize(t["z"], kk, p), r)), {"z": z})
    if op == "mse_mean":
        y = rng.standard_normal(x.shape)
        return (lambda t: mse_mean(t["a"], t["b"]), {"a": x, "b": y})
    raise ValueError(f"finite_diff_check: unknown primitive {op!r}")


def _mul_const(x: Tensor, c: np.ndarray) -> Tensor:
    def backward(gy: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(c * gy)

    return _node(x.data * c, (x,), backward)


DIFFERENTIABLE_OPS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "tconv2d",
                      "depthwise_tconv2d", "prelu", "sigmoid", "power_normalize", "mse_mean")


def finite_diff_check(op: str, trials: int = 10, seed: int = 0, step: float = 1e-4) -> FiniteDiffReport:
    """Run randomized central-difference checks for one primitive."""
    rng = np.random.default_rng(seed)
    report = FiniteDiffReport(op=op, trials=trials, seed=seed)
    for _ in range(trials):
        build, inputs = _trial_config(op, rng)
        for name, err in gradcheck(build, inputs, step=step).items():
            report.per_input[name] = max(report.per_input.get(name, 0.0), err)
    return report
