"""Checkpoint format: byte-stable round trips, tamper rejection, scalar counts."""

import json
import math
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscjscc.autodiff import Tensor
from dscjscc.checkpoint import (FORMAT_VERSION, MAGIC, CheckpointError,
                                load_checkpoint, save_checkpoint)
from dscjscc.model import (ArchitectureSpec, CodecModel, VariantId, build_variant_architecture,
                           init_layer_params)
from test_model import COLLAPSED_DECODER, COLLAPSED_ENCODER


def rewrite_header(path, edit):
    """Apply edit(header dict) to a saved checkpoint's JSON header in place."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length:])


def save_collapsed_codec(path):
    """Save the 8x8x3 codec of ``COLLAPSED_ENCODER`` and ``_DECODER``, each header field and tensor as its layers give.

    ``ArchitectureSpec`` rejects those layers, so the spec is assembled without its check.
    """
    arch = object.__new__(ArchitectureSpec)
    for field, value in (("encoder", COLLAPSED_ENCODER), ("decoder", COLLAPSED_DECODER), ("input_shape", (8, 8, 3))):
        object.__setattr__(arch, field, value)
    rng = np.random.default_rng(0)
    params = {f"{side}{i}.{name}": Tensor(arr)
              for side, layers in (("enc", arch.encoder), ("dec", arch.decoder))
              for i, spec in enumerate(layers) for name, arr in init_layer_params(spec, rng).items()}
    save_checkpoint(SimpleNamespace(architecture=arch, variant=None, power=1.0, params=params), path)


# header field -> an edit that removes it or gives it the wrong type
HEADER_EDITS = {
    "architecture": lambda h: h.pop("architecture"),
    "power": lambda h: h.update(power="high"),
    "input_shape": lambda h: h["architecture"].update(input_shape=[16, "16", 3]),
    "stride": lambda h: h["architecture"]["decoder"][2].pop("stride"),
    "encoder": lambda h: h["architecture"].update(encoder={}),
}


@pytest.fixture()
def small_model():
    arch = build_variant_architecture(VariantId.R60_E2D2, (16, 16, 3), 4)
    return CodecModel(arch, variant=VariantId.R60_E2D2, power=1.5, seed=8)


class TestRoundTrip:
    def test_save_load_save_identical_bytes(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.dscj", tmp_path / "b.dscj"
        save_checkpoint(small_model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_restored(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        loaded = load_checkpoint(p)
        assert loaded.variant is VariantId.R60_E2D2
        assert loaded.power == 1.5
        assert loaded.architecture == small_model.architecture
        assert loaded.k == small_model.k and loaded.architecture.rho == small_model.architecture.rho

    def test_f32_representable_params_bitwise(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        first = load_checkpoint(p)
        save_checkpoint(first, p)
        second = load_checkpoint(p)
        for k in first.params:
            np.testing.assert_array_equal(first.params[k].data, second.params[k].data)

    def test_decode_agrees_after_reload(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        loaded = load_checkpoint(p)
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(1, 3, 16, 16))
        a = loaded.decode(loaded.encode(img))
        b = loaded.decode(loaded.encode(img))
        np.testing.assert_array_equal(a, b)

    def test_baseline_scalar_count(self, tmp_path):
        arch = build_variant_architecture(VariantId.BASELINE, (256, 256, 3), 8)
        model = CodecModel(arch, variant=VariantId.BASELINE, seed=0)
        p = tmp_path / "base.dscj"
        save_checkpoint(model, p)
        loaded = load_checkpoint(p)
        assert sum(t.data.size for t in loaded.params.values()) == 143_667


class TestTampering:
    def test_bad_magic_rejected(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_unknown_version_rejected(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_VERSION + 7)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        p.write_bytes(p.read_bytes()[:-37])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field", HEADER_EDITS)
    def test_incomplete_header_rejected(self, small_model, tmp_path, field):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        rewrite_header(p, HEADER_EDITS[field])
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(p)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000],
                             ids=["quiet-nan", "signalling-nan", "inf"])
    def test_non_finite_weight_rejected(self, small_model, tmp_path, bits):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        raw = bytearray(p.read_bytes())
        # the last tensor's data ends the file; overwrite its final float32
        raw[-4:] = struct.pack("<I", bits)
        p.write_bytes(bytes(raw))
        name = list(small_model.params)[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError, match=f"tensor '{name}' holds a NaN or infinite"):
                load_checkpoint(p)

    def test_header_magic_constant(self):
        assert MAGIC == b"DSCJ"

    @pytest.mark.parametrize("key,edit", [
        ("channel_count", lambda h: h["architecture"].update(channel_count=6)),
        ("latent_dims", lambda h: h["architecture"].update(latent_dims=[4, 8])),
        ("c", lambda h: h.update(c=6)),
        ("rho", lambda h: h.update(rho="1/12")),
        ("variant", lambda h: h.update(variant="dsc-jscc-100")),
    ], ids=["channel_count", "latent_dims", "c", "rho", "variant"])
    def test_stated_value_that_disagrees_with_layers_rejected(self, small_model, tmp_path, key, edit):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        rewrite_header(p, edit)
        with pytest.raises(CheckpointError, match=f"'{key}' .* but the layers give"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["architecture"]["encoder"].__setitem__(1, 5),
         "encoder layer 1 must be a JSON object, got int"),
        (lambda h: h["architecture"]["decoder"][0].update(output_padding=None),
         "TConv layer requires output_padding"),
        (lambda h: h["architecture"]["encoder"][0].update(output_padding=0),
         "Conv layer must not carry output_padding"),
        (lambda h: h["architecture"]["encoder"].pop(), r"architecture must have 5\+5 layers, got 4\+5"),
        (lambda h: h["architecture"]["decoder"][0].update(kind="Conv", output_padding=None),
         "dec0 layer kind Conv invalid"),
        (lambda h: h["architecture"]["decoder"][4].update(output_padding=0),
         "decoder maps latent back to 15x15, expected 16x16"),
    ], ids=["layer-not-an-object", "tconv-without-output-padding", "conv-with-output-padding",
            "four-encoder-layers", "conv-in-decoder", "decoder-misses-input-size"])
    def test_layers_that_make_no_codec_rejected(self, small_model, tmp_path, edit, message):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        rewrite_header(p, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(p)

    def test_codec_with_a_layer_output_below_one_pixel_rejected(self, tmp_path):
        p = tmp_path / "collapsed.dscj"
        save_collapsed_codec(p)
        with pytest.raises(CheckpointError, match="enc0 maps 8x8 to 0x0"):
            load_checkpoint(p)

    def test_tensor_stored_twice_rejected(self, small_model, tmp_path):
        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        name, slopes = b"enc0.prelu", np.full(small_model.params["enc0.prelu"].data.size, 9.0, dtype="<f4")
        p.write_bytes(p.read_bytes() + struct.pack("<I", len(name)) + name
                      + struct.pack("<II", 1, slopes.size) + slopes.tobytes())
        with pytest.raises(CheckpointError, match="tensor 'enc0.prelu' is stored twice"):
            load_checkpoint(p)

    def test_header_that_declares_more_parameters_than_stored_rejected(self, small_model, tmp_path):
        # 10**12 latent channels: rejected by counting, before CodecModel would allocate their weights
        huge = build_variant_architecture(VariantId.R60_E2D2, (16, 16, 3), 10 ** 12)

        def declare_huge_c(h):
            h["architecture"]["encoder"][4]["out_channels"] = h["architecture"]["decoder"][0]["in_channels"] = 10 ** 12
            h["architecture"]["channel_count"] = h["c"] = 10 ** 12
            h["rho"] = f"{huge.rho.numerator}/{huge.rho.denominator}"

        p = tmp_path / "m.dscj"
        save_checkpoint(small_model, p)
        rewrite_header(p, declare_huge_c)
        with pytest.raises(CheckpointError, match=r"the header's layers hold \d+ parameters, but the file stores"):
            load_checkpoint(p)


def structure_offsets(raw):
    """Offsets of every byte of a checkpoint that is not float32 tensor data."""
    (length,) = struct.unpack("<I", raw[8:12])
    offsets, pos = list(range(12 + length)), 12 + length
    while pos < len(raw):
        (name_len,) = struct.unpack("<I", raw[pos:pos + 4])
        (rank,) = struct.unpack("<I", raw[pos + 4 + name_len:pos + 8 + name_len])
        meta = 8 + name_len + 4 * rank
        dims = struct.unpack(f"<{rank}I", raw[pos + 8 + name_len:pos + meta])
        offsets += range(pos, pos + meta)
        pos += meta + 4 * math.prod(dims)
    return offsets


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    arch = build_variant_architecture(VariantId.R60_E2D2, (16, 16, 3), 4)
    path = tmp_path_factory.mktemp("fuzz") / "m.dscj"
    save_checkpoint(CodecModel(arch, variant=VariantId.R60_E2D2, seed=2), path)
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(saved_checkpoint, data):
    raw = saved_checkpoint.read_bytes()
    # half the draws aim at the header and tensor metadata, which are a small part of the file
    offset = st.integers(0, len(raw) - 1) | st.sampled_from(structure_offsets(raw))
    mutated = bytearray(raw)
    for pos, value in data.draw(st.lists(st.tuples(offset, st.integers(0, 255)),
                                         min_size=1, max_size=3)):
        mutated[pos] = value
    target = saved_checkpoint.with_name("mutated.dscj")
    target.write_bytes(bytes(mutated))
    try:
        load_checkpoint(target)
    except CheckpointError as e:
        assert str(e).startswith(str(target))
