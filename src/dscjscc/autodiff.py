"""Minimal reverse-mode engine over the convolution primitives.

A :class:`Tensor` wraps a float64 numpy array and remembers how it was
produced.  :meth:`Tensor.backward` on a scalar walks the recorded graph in
reverse topological order, accumulates gradients into every leaf created with
``requires_grad=True`` and consumes the graph: each other node drops its
gradient, VJP and parents once it has run, and a later pass through it raises.
No gradient is ever written in place: a node keeps the array its child hands
it, the child's own gradient or a view of it, and a second gradient is added
out of place.  An operation none of whose inputs requires a gradient records
nothing, so in a pass over constants, such as the codec's ``encode`` and
``decode``, each result is freed once the next operation has read it.

Only the operations the codec needs exist here; there is no broadcasting
beyond per-channel parameters.  Convolution and activation nodes take and
give batch-innermost (C, H, W, N) arrays, the layout of ``kernels``;
``transpose`` converts at the model's edges.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import kernels
from .kernels import ShapeError


class AutodiffError(RuntimeError):
    """Backward invoked on a tensor with no recorded graph, on a non-scalar, or on a consumed graph."""


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
        """Keep ``g`` as the gradient, or add it to the one already kept; never in place."""
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Add d(self)/d(leaf) to each leaf's ``.grad`` and consume the graph: a later pass raises."""
        if not self.requires_grad:
            raise AutodiffError("backward called on a tensor with no recorded graph")
        if self.data.size != 1:
            raise AutodiffError("backward needs a scalar output, such as a loss")
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

        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            vjp, gy = node._backward, node.grad
            if vjp is not None:  # a leaf keeps its gradient for the optimizer
                node.grad, node._backward, node._parents = None, _released, ()
                del node  # its output goes before its VJP runs, unless the VJP reads it
                vjp(gy)


def _released(gy: np.ndarray) -> None:
    raise AutodiffError("backward reached a node whose graph an earlier backward consumed")


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> Tensor:
    """Graph node whose backward sends ``vjp(gy)[i]``, one gradient per parent, to ``parents[i]``.

    A parent keeps the array it is handed, so ``vjp`` may pass ``gy`` on, or a
    view of it, and must never write into ``gy``: no gradient is written in place.
    """
    if not any(p.requires_grad for p in parents):
        # a constant keeps neither its parents nor ``vjp``, nor the arrays ``vjp`` holds
        return Tensor(data)

    def backward(gy: np.ndarray) -> None:
        for p, g in zip(parents, vjp(gy)):
            if p.requires_grad:
                p._accumulate(g)

    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int) -> Tensor:
    # backward rebuilds the patches: kept, a dense layer's k-fold copy of x would live until its VJP ran
    y, _ = kernels.conv2d_forward_cached(x.data, w.data, b.data, stride, padding)
    return _node(y, (x, w, b),
                 lambda gy: kernels.conv2d_backward(x.data, w.data, gy, stride, padding,
                                                    input_grad=x.requires_grad))


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int) -> Tensor:
    y = kernels.depthwise_conv2d_forward(x.data, w.data, b.data, stride, padding)
    return _node(y, (x, w, b),
                 lambda gy: kernels.depthwise_conv2d_backward(x.data, w.data, gy, stride, padding,
                                                              input_grad=x.requires_grad))


def pointwise_conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    if w.data.shape[2] != 1 or w.data.shape[3] != 1:
        raise ShapeError(f"pointwise_conv2d: kernel size must be 1, got {w.data.shape[2:]}")
    return conv2d(x, w, b, 1, 0)


def tconv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int,
            output_padding: int) -> Tensor:
    y = kernels.tconv2d_forward(x.data, w.data, b.data, stride, padding, output_padding)
    return _node(y, (x, w, b),
                 lambda gy: kernels.tconv2d_backward(x.data, w.data, gy, stride, padding, output_padding))


def depthwise_tconv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int,
                      output_padding: int) -> Tensor:
    y = kernels.depthwise_tconv2d_forward(x.data, w.data, b.data, stride, padding, output_padding)
    return _node(y, (x, w, b),
                 lambda gy: kernels.depthwise_tconv2d_backward(x.data, w.data, gy, stride, padding,
                                                               output_padding))


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    y = kernels.prelu_forward(x.data, slopes.data)
    return _node(y, (x, slopes), lambda gy: kernels.prelu_backward(x.data, slopes.data, gy))


def sigmoid(x: Tensor) -> Tensor:
    y = kernels.sigmoid_forward(x.data)
    return _node(y, (x,), lambda gy: (kernels.sigmoid_backward(y, gy),))


def scale(x: Tensor, c: float | np.ndarray) -> Tensor:
    """Multiply by a constant scalar or same-shape array."""
    return _node(x.data * c, (x,), lambda gy: (c * gy,))


def add_constant(x: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (e.g. a channel-noise realisation); gradient passes through."""
    if c.shape != x.data.shape:
        raise ShapeError(f"add_constant: constant shape {c.shape} != tensor shape {x.data.shape}")
    return _node(x.data + c, (x,), lambda gy: (gy,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _node(x.data.reshape(shape), (x,), lambda gy: (gy.reshape(x.data.shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """``x`` with its axes permuted, as a view; the gradient takes the inverse permutation."""
    inverse = tuple(np.argsort(axes))
    # a C-contiguous copy: the next kernels sum in that layout's order, and a view moves their last bits
    return _node(x.data.transpose(axes), (x,), lambda gy: (np.ascontiguousarray(gy.transpose(inverse)),))


def power_normalize(x: Tensor, k: int, power: float) -> Tensor:
    """Rescale each batch row of a real (N, 2k) tensor to squared norm k*power.

    The rows carry interleaved real/imaginary pairs, so the complex-vector
    power constraint reduces to a plain Euclidean rescale of the row.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"power_normalize: expected rank-2 (N, 2k) input, got rank {x.data.ndim}")
    with np.errstate(over="ignore"):  # past about 1e154 the squares overflow; reject that below
        norms = np.sqrt(np.sum(x.data ** 2, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise ValueError("power_normalize: zero-norm input has no direction to preserve")
    if not np.all(np.isfinite(norms)):
        raise ValueError("power_normalize: input norm is not finite")
    target = math.sqrt(k * power)
    y = x.data * (target / norms)

    def vjp(gy: np.ndarray) -> tuple[np.ndarray]:
        # d/du [t*u/|u|] = t/|u| * (I - u u^T / |u|^2), applied per row
        dots = np.sum(x.data * gy, axis=1, keepdims=True)
        return ((target / norms) * (gy - x.data * (dots / norms ** 2)),)

    return _node(y, (x,), vjp)


def mse_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean over every element of (a - b)^2."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse: shape mismatch {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    val = np.array(np.mean(diff ** 2))

    def vjp(gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = (2.0 / diff.size) * diff * gy
        return g, -g

    return _node(val, (a, b), vjp)

