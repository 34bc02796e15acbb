"""Codec architecture description, variant builder, and end-to-end forward pass.

The base network is a 5-layer convolutional encoder mirrored by a 5-layer
transposed-convolutional decoder.  One builder, ``build_variant_architecture``,
lays out every variant's ten layers: its masks pick which are
depthwise-separable, and every other hyperparameter is the same for all.
The encoder output is reshaped into interleaved complex symbols and
rescaled to a fixed average transmit power before hitting the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kernels import ShapeError, conv_out_dim, tconv_out_dim


class LayerKind(Enum):
    CONV = "Conv"
    DSCONV = "DSConv"
    TCONV = "TConv"
    DSTCONV = "DSTConv"

    @property
    def is_transposed(self) -> bool:
        return self in (LayerKind.TCONV, LayerKind.DSTCONV)

    @property
    def is_separable(self) -> bool:
        return self in (LayerKind.DSCONV, LayerKind.DSTCONV)


class Activation(Enum):
    PRELU = "prelu"
    SIGMOID = "sigmoid"
    NONE = "none"


@dataclass(frozen=True)
class LayerSpec:
    kind: LayerKind
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    output_padding: int | None = None
    activation: Activation = Activation.PRELU

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.out_channels < 1 or self.kernel < 1:
            raise ShapeError(f"layer spec requires positive channel/kernel sizes, got {self}")
        if self.kind.is_transposed and self.output_padding is None:
            raise ShapeError(f"{self.kind.value} layer requires output_padding")
        if not self.kind.is_transposed and self.output_padding is not None:
            raise ShapeError(f"{self.kind.value} layer must not carry output_padding")
        if self.stride < 1 or self.padding < 0:
            raise ShapeError(f"{self.kind.value} layer: stride must be >= 1 and padding >= 0, "
                             f"got stride={self.stride}, padding={self.padding}")
        if self.output_padding is not None and not 0 <= self.output_padding < self.stride:
            raise ShapeError(f"{self.kind.value} layer: output_padding must satisfy 0 <= output_padding < stride, "
                             f"got output_padding={self.output_padding}, stride={self.stride}")

    def out_dim(self, size: int) -> int:
        if self.kind.is_transposed:
            return tconv_out_dim(size, self.kernel, self.stride, self.padding, self.output_padding)
        return conv_out_dim(size, self.kernel, self.stride, self.padding)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Five encoder layers, five decoder layers, and the (W, H, C) input they map back to.

    The latent geometry follows from the layers: ``channel_count`` is the
    encoder's last output channel count and ``latent_dims`` its output
    (H_bar, W_bar).
    """

    encoder: tuple[LayerSpec, ...]
    decoder: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.encoder) != 5 or len(self.decoder) != 5:
            raise ShapeError(f"architecture must have 5+5 layers, got {len(self.encoder)}+{len(self.decoder)}")
        w, h, c = self.input_shape
        # each layer takes the channels and (H, W) the one before it gives, and dec4 gives back C
        channels, dims, out_dims = c, (h, w), iter(self.out_dims)
        for side, layers, transposed in (("enc", self.encoder, False), ("dec", self.decoder, True)):
            for i, layer in enumerate(layers):
                if layer.kind.is_transposed != transposed:
                    raise ShapeError(f"{side}{i} layer kind {layer.kind.value} invalid")
                if layer.in_channels != channels:
                    raise ShapeError(f"{side}{i} takes {layer.in_channels} channels, but gets {channels}")
                channels, out = layer.out_channels, next(out_dims)
                if min(out) < 1:
                    raise ShapeError(f"{side}{i} maps {dims[0]}x{dims[1]} to {out[0]}x{out[1]}")
                dims = out
        if channels != c:
            raise ShapeError(f"dec4 gives {channels} channels, but the input has {c}")
        if self.out_dims[-1] != (h, w):
            hh, ww = self.out_dims[-1]
            raise ShapeError(f"decoder maps latent back to {hh}x{ww}, expected {h}x{w}")
        if (self.channel_count * self.latent_dims[0] * self.latent_dims[1]) % 2 != 0:
            raise ShapeError(f"channel_count {self.channel_count} at latent "
                             f"{self.latent_dims[0]}x{self.latent_dims[1]} gives an odd symbol count")

    @cached_property  # k, latent_dims and the codec's graph read it on every call
    def out_dims(self) -> tuple[tuple[int, int], ...]:
        """(H, W) after each layer, the five encoder layers first."""
        w, h, _ = self.input_shape
        dims = []
        for layer in self.encoder + self.decoder:
            h, w = layer.out_dim(h), layer.out_dim(w)
            dims.append((h, w))
        return tuple(dims)

    @property
    def channel_count(self) -> int:
        return self.encoder[-1].out_channels

    @property
    def latent_dims(self) -> tuple[int, int]:
        return self.out_dims[len(self.encoder) - 1]

    @property
    def n(self) -> int:
        w, h, c = self.input_shape
        return w * h * c

    @property
    def k(self) -> int:
        return self.channel_count * self.latent_dims[0] * self.latent_dims[1] // 2

    @property
    def rho(self) -> Fraction:
        return Fraction(self.k, self.n)


class VariantId(Enum):
    """The paper's eleven codecs.  ``masks`` holds each one's (encoder, decoder)
    masks, one character per layer: D depthwise-separable, C standard.  Members
    are declared in the complexity table's order (baseline, ratio sweep to 60,
    position sweep, high ratios); ``VARIANT_ORDER`` and the table rely on it.
    """

    BASELINE = "baseline", "CCCCC", "CCCCC"
    R20 = "dsc-jscc-20", "DCCCC", "DCCCC"
    R40 = "dsc-jscc-40", "DDCCC", "DDCCC"
    R60_E1D1 = "dsc-jscc-60-e1d1", "DDDCC", "DDDCC"
    R60_E2D1 = "dsc-jscc-60-e2d1", "CDDDC", "DDDCC"
    R60_E2D2 = "dsc-jscc-60-e2d2", "CDDDC", "CDDDC"
    R60_E2D3 = "dsc-jscc-60-e2d3", "CDDDC", "CCDDD"
    R60_E1D2 = "dsc-jscc-60-e1d2", "DDDCC", "CDDDC"
    R60_E3D2 = "dsc-jscc-60-e3d2", "CCDDD", "CDDDC"
    R80 = "dsc-jscc-80", "DDDDC", "DDDDC"
    R100 = "dsc-jscc-100", "DDDDD", "DDDDD"

    def __new__(cls, name: str, enc_mask: str, dec_mask: str) -> "VariantId":
        member = object.__new__(cls)
        member._value_ = name
        member.masks = (enc_mask, dec_mask)
        return member

    @classmethod
    def from_name(cls, name: str) -> "VariantId":
        for v in cls:
            if v.value == name:
                return v
        raise ValueError(f"unknown variant {name!r}; expected one of "
                         + ", ".join(v.value for v in cls))


VARIANT_ORDER = tuple(VariantId)


def build_variant_architecture(variant: VariantId,
                               input_shape: tuple[int, int, int] = (256, 256, 3),
                               channel_count: int = 8) -> ArchitectureSpec:
    """The variant's 5+5 layers: kernel 5, padding 2, strides 2,2,1,1,1 mirrored.

    Each layer is separable where the variant's mask says D and standard where
    it says C; every other hyperparameter is the same for all variants.
    Spatial dims shrink by 4x into the latent, so width and height must be
    multiples of 4 for the decoder to land back on the input shape exactly.
    """
    w, h, c = input_shape
    if w < 4 or h < 4 or c < 1:
        raise ShapeError(f"input shape {input_shape} too small for the 5+5 codec")
    if w % 4 != 0 or h % 4 != 0:
        raise ShapeError(f"input spatial dims must be multiples of 4 to round-trip, got {w}x{h}")
    enc_mask, dec_mask = variant.masks
    enc_layers, dec_layers, cin = [], [], c
    for m, cout, s in zip(enc_mask, (16, 32, 32, 32, channel_count), (2, 2, 1, 1, 1)):
        enc_layers.append(LayerSpec(LayerKind.DSCONV if m == "D" else LayerKind.CONV, cin, cout, 5, s, 2))
        cin = cout
    for i, (m, cout, s) in enumerate(zip(dec_mask, (32, 32, 32, 16, c), (1, 1, 1, 2, 2))):
        act = Activation.SIGMOID if i == 4 else Activation.PRELU
        dec_layers.append(LayerSpec(LayerKind.DSTCONV if m == "D" else LayerKind.TCONV, cin, cout, 5, s, 2,
                                    output_padding=s - 1, activation=act))
        cin = cout
    return ArchitectureSpec(tuple(enc_layers), tuple(dec_layers), input_shape)


# ---------------------------------------------------------------------------
# pixel and symbol plumbing
# ---------------------------------------------------------------------------

def normalize_pixels(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if not np.all((image >= 0.0) & (image <= 255.0)):  # NaN fails both comparisons
        raise ValueError(f"pixel values must be finite and lie in [0, 255], got range "
                         f"[{image.min():.3f}, {image.max():.3f}]")
    return image / 255.0


def denormalize_pixels(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if not np.all((image >= 0.0) & (image <= 1.0)):  # NaN fails both comparisons
        raise ValueError(f"normalized pixels must be finite and lie in [0, 1], got range "
                         f"[{image.min():.3f}, {image.max():.3f}]")
    return image * 255.0


# ---------------------------------------------------------------------------
# parameter initialisation and the codec itself
# ---------------------------------------------------------------------------

def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_layer_params(spec: LayerSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Create the named parameter arrays for one layer, in a fixed order."""
    k = spec.kernel
    cin, cout = spec.in_channels, spec.out_channels
    params: dict[str, np.ndarray] = {}
    if spec.kind is LayerKind.CONV:
        params["weight"] = _glorot(rng, (cout, cin, k, k), cin * k * k, cout * k * k)
        params["bias"] = np.zeros(cout)
    elif spec.kind is LayerKind.TCONV:
        params["weight"] = _glorot(rng, (cin, cout, k, k), cin * k * k, cout * k * k)
        params["bias"] = np.zeros(cout)
    else:
        params["dw_weight"] = _glorot(rng, (cin, 1, k, k), k * k, k * k)
        params["dw_bias"] = np.zeros(cin)
        params["pw_weight"] = _glorot(rng, (cout, cin, 1, 1), cin, cout)
        params["pw_bias"] = np.zeros(cout)
    if spec.activation is Activation.PRELU:
        params["prelu"] = np.full(cout, 0.25)
    return params


# axis orders between the (N, C, H, W) images and latents and the (C, H, W, N) layers
_TO_CHWN = (1, 2, 3, 0)
_TO_NCHW = (3, 0, 1, 2)


def _apply_layer(x: Tensor, spec: LayerSpec, params: dict[str, Tensor]) -> Tensor:
    if spec.kind is LayerKind.CONV:
        x = ad.conv2d(x, params["weight"], params["bias"], spec.stride, spec.padding)
    elif spec.kind is LayerKind.TCONV:
        x = ad.tconv2d(x, params["weight"], params["bias"], spec.stride, spec.padding,
                       spec.output_padding)
    elif spec.kind is LayerKind.DSCONV:
        x = ad.depthwise_conv2d(x, params["dw_weight"], params["dw_bias"],
                                spec.stride, spec.padding)
        x = ad.pointwise_conv2d(x, params["pw_weight"], params["pw_bias"])
    else:
        x = ad.depthwise_tconv2d(x, params["dw_weight"], params["dw_bias"],
                                 spec.stride, spec.padding, spec.output_padding)
        x = ad.pointwise_conv2d(x, params["pw_weight"], params["pw_bias"])
    if spec.activation is Activation.PRELU:
        x = ad.prelu(x, params["prelu"])
    elif spec.activation is Activation.SIGMOID:
        x = ad.sigmoid(x)
    return x


class CodecModel:
    """A built codec: architecture plus instantiated parameters.

    Parameters live as autodiff Tensors keyed "enc{i}.{name}" / "dec{i}.{name}"
    in a deterministic order, all drawn from one seeded generator.
    """

    def __init__(self, architecture: ArchitectureSpec, variant: VariantId | None = None,
                 power: float = 1.0, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        if not (math.isfinite(power) and power > 0):
            raise ValueError(f"power must be finite and > 0, got {power}")
        if variant is not None:
            masks = tuple("".join("D" if layer.kind.is_separable else "C" for layer in side)
                          for side in (architecture.encoder, architecture.decoder))
            if masks != variant.masks:
                raise ShapeError(f"'variant' {variant.value} calls for {'/'.join(variant.masks)}"
                                 f" layers, but the layers give {'/'.join(masks)}")
        self.architecture = architecture
        self.variant = variant
        self.power = float(power)
        self.params: dict[str, Tensor] = {}
        # per side and layer: its parameters by name, and constants sharing their arrays
        self._layers: dict[str, list[tuple[dict[str, Tensor], dict[str, Tensor]]]] = {"enc": [], "dec": []}
        rng = np.random.default_rng(seed)
        for side, layers in (("enc", architecture.encoder), ("dec", architecture.decoder)):
            for i, spec in enumerate(layers):
                fresh = init_layer_params(spec, rng)
                trained, fixed = {}, {}
                for name, arr in fresh.items():
                    key = f"{side}{i}.{name}"
                    if params is not None:
                        if key not in params:
                            raise ShapeError(f"checkpoint missing parameter {key}")
                        if params[key].shape != arr.shape:
                            raise ShapeError(f"parameter {key} has shape {params[key].shape}, "
                                             f"expected {arr.shape}")
                        arr = np.array(params[key], dtype=np.float64)  # a copy: training must not edit the caller's
                    self.params[key] = trained[name] = Tensor(arr, requires_grad=True)
                    fixed[name] = Tensor(trained[name].data)
                self._layers[side].append((trained, fixed))
        if params is not None and len(params) != len(self.params):
            extra = set(params) - set(self.params)
            raise ShapeError(f"checkpoint carries unknown parameters: {sorted(extra)}")

    # -- bandwidth bookkeeping -------------------------------------------
    @property
    def k(self) -> int:
        return self.architecture.k

    # -- graph-building pieces (used by training) ------------------------
    def encode_graph(self, x_raw: Tensor, *, constant: bool = False) -> Tensor:
        """Raw [0,255] images -> power-normalized (N, 2k) symbols; a ``constant`` pass records no graph."""
        w, h, c = self.architecture.input_shape
        if x_raw.data.ndim != 4 or x_raw.data.shape[1:] != (c, h, w) or x_raw.data.shape[0] < 1:
            raise ShapeError(f"encode: input shape {x_raw.data.shape} does not match "
                             f"architecture (N,{c},{h},{w}) with N >= 1")
        n = x_raw.data.shape[0]
        x = ad.transpose(ad.scale(x_raw, 1.0 / 255.0), _TO_CHWN)
        for spec, (trained, fixed) in zip(self.architecture.encoder, self._layers["enc"]):
            x = _apply_layer(x, spec, fixed if constant else trained)
        # symbols in each image's (c, h, w) order, as an NCHW latent flattens
        flat = ad.reshape(ad.transpose(x, _TO_NCHW), (n, 2 * self.k))
        return ad.power_normalize(flat, self.k, self.power)

    def decode_graph(self, symbols: Tensor, *, constant: bool = False) -> Tensor:
        """(N, 2k) interleaved symbols -> reconstructed images in [0, 1]; ``constant`` as in ``encode_graph``."""
        if symbols.data.ndim != 2 or symbols.data.shape[1] != 2 * self.k or symbols.data.shape[0] < 1:
            raise ShapeError(f"decode: symbol block shape {symbols.data.shape} != (N, {2 * self.k}) with N >= 1")
        hbar, wbar = self.architecture.latent_dims
        x = ad.reshape(symbols, (symbols.data.shape[0], self.architecture.channel_count, hbar, wbar))
        x = ad.transpose(x, _TO_CHWN)
        for spec, (trained, fixed) in zip(self.architecture.decoder, self._layers["dec"]):
            x = _apply_layer(x, spec, fixed if constant else trained)
        return ad.transpose(x, _TO_NCHW)

    # -- public ndarray surface ------------------------------------------
    def encode(self, image: np.ndarray) -> np.ndarray:
        """Images in [0,255] -> complex symbol vectors of length k per item."""
        image = np.asarray(image, dtype=np.float64)
        single = image.ndim == 3
        if single:
            image = image[None]
        normalize_pixels(image)  # range check
        # power_normalize returns an F-ordered block when N > 1; the view needs C order
        z = np.ascontiguousarray(self.encode_graph(Tensor(image), constant=True).data).view(np.complex128)
        return z[0] if single else z

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Complex symbol vectors -> reconstructed images in [0, 255]."""
        z = np.asarray(z)
        single = z.ndim == 1
        zb = z[None, :] if single else z
        if zb.shape[1] != self.k:
            raise ShapeError(f"decode: expected {self.k} symbols per item, got {zb.shape[1]}")
        flat = np.ascontiguousarray(zb, dtype=np.complex128).view(np.float64)
        x01 = self.decode_graph(Tensor(flat), constant=True).data
        out = denormalize_pixels(x01)
        return out[0] if single else out
