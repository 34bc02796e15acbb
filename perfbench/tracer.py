"""Spans recorded from outside the library, by wrapping its module functions.

A :class:`Tracer` replaces public functions of the dscjscc modules (and the
per-layer ``model._apply_layer``, the one private hook, because no public
function runs a single layer) with wrappers that record a span: name, start,
end and parent.  ``uninstall`` puts every
original back, so traced and untraced units can alternate in one process.

Kernel spans are recorded only for the outermost kernel call.  A kernel that
calls another one (``tconv2d_backward`` runs ``conv2d_forward`` for its input
gradient) is one operation, and its MACs and bytes are counted once.  MACs
and bytes are computed from array shapes, not measured: bytes are the sizes of
the arrays that cross the kernel boundary, which ignores cache behaviour.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

# kernels.py function -> (op name, MAC rule).  "out" charges one MAC per
# output element and kernel tap (conv, depthwise conv), "in" per input
# element and tap (the stamp-form transposed convs); backward does both
# gradient products, so twice the forward count.
KERNEL_OPS = {
    "conv2d_forward_cached": ("conv2d_fwd", "out"),
    "conv2d_backward": ("conv2d_bwd", "bwd_out"),
    "depthwise_conv2d_forward": ("dwconv_fwd", "out"),
    "depthwise_conv2d_backward": ("dwconv_bwd", "bwd_out"),
    "tconv2d_forward": ("tconv_fwd", "in"),
    "tconv2d_backward": ("tconv_bwd", "bwd_in"),
    "depthwise_tconv2d_forward": ("dwtconv_fwd", "in"),
    "depthwise_tconv2d_backward": ("dwtconv_bwd", "bwd_in"),
    "prelu_forward": ("prelu_fwd", None),
    "prelu_backward": ("prelu_bwd", None),
    "sigmoid_forward": ("sigmoid_fwd", None),
    "sigmoid_backward": ("sigmoid_bwd", None),
}
KERNEL_NAMES = tuple(op for op, _ in KERNEL_OPS.values())


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    macs: int = 0
    nbytes: int = 0
    items: int = 0  # images handled by a model.encode / model.decode call
    child_ms: float = 0.0  # filled by Tracer.self_times
    keys: list | None = None  # image digests seen by model.encode

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _nbytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, tuple):
            total += _nbytes(v)
        else:
            total += getattr(v, "nbytes", 0)
    return total


def _kernel_macs(rule: str | None, args, result) -> int:
    if rule is None:
        return 0
    taps = args[1][0].size  # per-output-channel slice of the weight
    if rule == "out":
        out = result[0] if isinstance(result, tuple) else result
        return out.size * taps
    if rule == "bwd_out":
        return 2 * args[2].size * taps
    if rule == "in":
        return args[0].size * taps
    return 2 * args[0].size * taps  # bwd_in


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_kernel = False
        self._layer_counter: dict[int, int] = {}

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def _wrap_kernel(self, kernels, attr: str, op: str, rule: str | None) -> None:
        original = getattr(kernels, attr)
        tracer = self
        name = "kernels." + op

        def traced(*args, **kwargs):
            if tracer._in_kernel:
                return original(*args, **kwargs)
            tracer._in_kernel = True
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer._in_kernel = False
            span.macs = _kernel_macs(rule, args, result)
            span.nbytes = _nbytes(args) + _nbytes(kwargs.values()) + _nbytes((result,))
            return result

        self._patch(kernels, attr, traced)

    def _wrap_layers(self, model) -> None:
        """Forward spans per codec layer; the layer's graph nodes get backward spans."""
        original = model._apply_layer
        tracer = self

        def traced(x, spec, params):
            parent = tracer._stack[-1] if tracer._stack else -1
            side = "enc" if parent >= 0 and tracer.spans[parent].name == "model.encode_graph" else "dec"
            index = tracer._layer_counter.get(parent, 0)
            tracer._layer_counter[parent] = index + 1
            layer = f"layer.{side}{index}"
            span = tracer._open(layer + ".fwd")
            try:
                y = original(x, spec, params)
            finally:
                tracer._close(span)
            span.items = x.data.shape[0]
            tracer._time_backward(y, x, layer + ".bwd")
            return y

        self._patch(model, "_apply_layer", traced)

    def _time_backward(self, y, x, name: str) -> None:
        # every graph node between the layer's input and output belongs to it
        todo, seen = [y], set()
        while todo:
            node = todo.pop()
            if node is x or id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                node._backward = self._timed_closure(node._backward, name)
            todo.extend(node._parents)

    def _timed_closure(self, fn, name: str):
        def traced(gy):
            span = self._open(name)
            try:
                fn(gy)
            finally:
                self._close(span)
        return traced

    # -- installation -----------------------------------------------------
    def install(self, dscjscc_modules) -> None:
        m = dscjscc_modules
        for attr, (op, rule) in KERNEL_OPS.items():
            self._wrap_kernel(m.kernels, attr, op, rule)
        self._wrap_layers(m.model)
        self._wrap(m.model.CodecModel, "encode_graph", "model.encode_graph")
        self._wrap(m.model.CodecModel, "decode_graph", "model.decode_graph")
        self._wrap(m.model.CodecModel, "encode", "model.encode", _note_encode)
        self._wrap(m.model.CodecModel, "decode", "model.decode", _note_decode)
        self._wrap(m.channel.AwgnChannel, "noise_block", "channel.noise_block")
        self._wrap(m.channel.AwgnChannel, "transmit", "channel.transmit")
        self._wrap(m.autodiff.Tensor, "backward", "autodiff.backward")
        self._wrap(m.training, "train", "training.train")
        self._wrap(m.training, "train_step", "training.train_step")
        self._wrap(m.training.Adam, "step", "training.adam_step")
        self._wrap(m.metrics, "evaluate_sweep", "metrics.evaluate_sweep")
        self._wrap(m.metrics, "psnr", "metrics.psnr")
        self._wrap(m.checkpoint, "save_checkpoint", "checkpoint.save", _note_checkpoint)
        self._wrap(m.checkpoint, "load_checkpoint", "checkpoint.load")
        self._wrap(m.data, "synthetic_dataset", "data.synthetic_dataset")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._layer_counter.clear()

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> None:
        """Fill child_ms; a span's self time is its duration minus its children's."""
        for span in self.spans:
            span.child_ms = 0.0
        for span in self.spans:
            if span.parent >= 0:
                self.spans[span.parent].child_ms += span.ms

    def under(self, roots: list[int]) -> list[Span]:
        """Spans that descend from any of the given root span indices."""
        inside = set(roots)
        out = []
        for i, span in enumerate(self.spans):
            if span.parent in inside:
                inside.add(i)
                out.append(span)
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(f'{{"id":{i},"name":"{s.name}","start":{s.start!r},"end":{s.end!r},'
                        f'"parent":{s.parent},"self_ms":{s.ms - s.child_ms!r}}}\n')


def _note_encode(span: Span, args, result) -> None:
    images = args[1]
    batch = images[None] if images.ndim == 3 else images
    span.items = batch.shape[0]
    span.keys = [hashlib.blake2b(im.tobytes(), digest_size=16).digest() for im in batch]


def _note_decode(span: Span, args, result) -> None:
    span.items = 1 if result.ndim == 3 else result.shape[0]


def _note_checkpoint(span: Span, args, result) -> None:
    span.nbytes = Path(args[1]).stat().st_size
