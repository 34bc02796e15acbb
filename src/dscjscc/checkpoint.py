"""Binary checkpoints: "DSCJ" magic, versioned JSON header, f32 tensor blocks.

Layout (all integers little-endian u32):

    b"DSCJ" | version | header_len | header JSON (utf-8)
    then per tensor: name_len | name | rank | dims... | float32 data

Parameters are stored as 32-bit reals; loading widens back to float64 and
rejects a NaN or infinite weight.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from enum import Enum
from pathlib import Path

import numpy as np

from .complexity import layer_params
from .model import (Activation, ArchitectureSpec, CodecModel, LayerKind, LayerSpec,
                    VariantId)

MAGIC = b"DSCJ"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _by_value(items: list[tuple[str, object]]) -> dict:
    """An ``asdict`` factory that writes each enum as its value."""
    return {key: value.value if isinstance(value, Enum) else value for key, value in items}


def _field(obj, key: str, kind: type | tuple[type, ...], where: str):
    """``obj[key]``; a missing or wrongly typed field is a CheckpointError naming it."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise CheckpointError(f"{where} lacks field {key!r}")
    value = obj[key]
    # JSON true/false load as bool, which isinstance() would accept as int
    if isinstance(value, bool) or not isinstance(value, kind):
        raise CheckpointError(f"{where} field {key!r} has type {type(value).__name__}")
    return value


def _int_tuple(obj, key: str, where: str) -> tuple[int, ...]:
    value = _field(obj, key, list, where)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise CheckpointError(f"{where} field {key!r} must hold integers, got {value!r}")
    return tuple(value)


def _layer_from_dict(d, where: str) -> LayerSpec:
    return LayerSpec(
        kind=LayerKind(_field(d, "kind", str, where)),
        in_channels=_field(d, "in_channels", int, where),
        out_channels=_field(d, "out_channels", int, where),
        kernel=_field(d, "kernel", int, where),
        stride=_field(d, "stride", int, where),
        padding=_field(d, "padding", int, where),
        output_padding=_field(d, "output_padding", (int, type(None)), where),
        activation=Activation(_field(d, "activation", str, where)),
    )


def _stated(arch: ArchitectureSpec) -> tuple[dict, dict]:
    """Values that the layers fix and a v1 header states too: (in "architecture", at the top)."""
    return ({"channel_count": arch.channel_count, "latent_dims": list(arch.latent_dims)},
            {"c": arch.channel_count, "rho": f"{arch.rho.numerator}/{arch.rho.denominator}"})


def save_checkpoint(model: CodecModel, path: str | Path) -> None:
    arch_stated, top_stated = _stated(model.architecture)
    header = {
        "architecture": {**asdict(model.architecture, dict_factory=_by_value), **arch_stated},
        "variant": model.variant.value if model.variant is not None else None,
        "power": model.power,
        **top_stated,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    for name, tensor in model.params.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        arr = tensor.data
        out += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        try:
            with np.errstate(over="raise"):  # a weight beyond float32's range would load as inf
                out += arr.astype("<f4").tobytes()
        except FloatingPointError:
            raise CheckpointError(f"{path}: tensor {name!r} holds a weight beyond float32's range") from None
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path: str | Path) -> CodecModel:
    """The codec saved at ``path``; a file that holds none is a CheckpointError naming ``path``."""
    data = Path(path).read_bytes()
    try:
        return _decode(path, data)
    except CheckpointError:
        raise
    except ValueError as e:  # text that is not UTF-8 or JSON, or a value the layers or model reject
        raise CheckpointError(f"{path}: {e}") from e


def _decode(path: str | Path, data: bytes) -> CodecModel:
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        chunk = data[pos:pos + n]
        pos += n
        return chunk

    version = struct.unpack("<I", take(4))[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported "
                              f"(expected {FORMAT_VERSION})")
    header_len = struct.unpack("<I", take(4))[0]
    header = json.loads(take(header_len).decode("utf-8"))

    where = f"{path}: header"
    adict = _field(header, "architecture", dict, where)
    arch_where = f"{where} architecture"
    arch = ArchitectureSpec(
        encoder=tuple(_layer_from_dict(d, f"{arch_where} encoder layer {i}")
                      for i, d in enumerate(_field(adict, "encoder", list, arch_where))),
        decoder=tuple(_layer_from_dict(d, f"{arch_where} decoder layer {i}")
                      for i, d in enumerate(_field(adict, "decoder", list, arch_where))),
        input_shape=_int_tuple(adict, "input_shape", arch_where),
    )
    arch_stated, top_stated = _stated(arch)
    for obj, at, derived in ((adict, arch_where, arch_stated), (header, where, top_stated)):
        for key, value in derived.items():
            stated = _field(obj, key, type(value), at)
            if stated != value:
                raise CheckpointError(f"{at} field {key!r} is {stated!r}, but the layers give {value!r}")
    variant_name = _field(header, "variant", (str, type(None)), where)
    variant = VariantId(variant_name) if variant_name is not None else None
    power = _field(header, "power", (int, float), where)

    params: dict[str, np.ndarray] = {}
    while pos < len(data):
        name_len = struct.unpack("<I", take(4))[0]
        name = take(name_len).decode("utf-8")
        if name in params:
            raise CheckpointError(f"{path}: tensor {name!r} is stored twice")
        rank = struct.unpack("<I", take(4))[0]
        dims = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        count = math.prod(dims)
        arr = np.frombuffer(take(4 * count), dtype="<f4").reshape(dims)
        if not np.isfinite(arr).all():  # before CodecModel's widening copy, which warns on a signalling NaN
            raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite weight")
        params[name] = arr
    # checked before CodecModel allocates the header's layers, which may declare more than memory holds
    declared = sum(map(layer_params, arch.encoder + arch.decoder))
    stored = sum(arr.size for arr in params.values())
    if declared != stored:
        raise CheckpointError(f"{path}: the header's layers hold {declared} parameters, but the file stores {stored}")
    return CodecModel(arch, variant=variant, power=power, params=params)
