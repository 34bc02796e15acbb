"""Architecture construction, variant patterns, pixel/symbol plumbing, codec contracts."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscjscc import autodiff as ad
from dscjscc import model as model_module
from dscjscc.autodiff import Tensor
from dscjscc.channel import AwgnChannel, ChannelConfig
from dscjscc.kernels import ShapeError
from dscjscc.model import (VARIANT_ORDER, VARIANT_PATTERNS, Activation, ArchitectureSpec, CodecModel,
                           LayerKind, LayerSpec, VariantId, build_variant,
                           build_variant_architecture, default_base_architecture,
                           denormalize_pixels, normalize_pixels)
from dscjscc.training import Adam, train_step
from oracles import reshape_to_complex

rng = np.random.default_rng(7)

# An 8x8x3 codec whose enc0 (k9, no padding) maps 8x8 to 0x0, and whose dec4 (k9) maps 0x0 back to 8x8
COLLAPSED_ENCODER = (LayerSpec(LayerKind.CONV, 3, 4, 9, 1, 0),) + (LayerSpec(LayerKind.CONV, 4, 4, 1, 1, 0),) * 4
COLLAPSED_DECODER = ((LayerSpec(LayerKind.TCONV, 4, 4, 1, 1, 0, 0),) * 4
                     + (LayerSpec(LayerKind.TCONV, 4, 3, 9, 1, 0, 0, Activation.SIGMOID),))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


class TestBaseArchitecture:
    def test_paper_scale_geometry(self):
        arch = default_base_architecture((256, 256, 3), 8)
        assert arch.latent_dims == (64, 64)
        assert arch.k == 16384
        assert arch.n == 196608
        assert arch.rho == Fraction(1, 12)

    def test_desk_scale_geometry(self):
        arch = default_base_architecture((32, 32, 3), 8)
        assert arch.latent_dims == (8, 8)
        assert arch.k == 256

    def test_layer_structure(self):
        arch = default_base_architecture((256, 256, 3), 8)
        assert [l.out_channels for l in arch.encoder] == [16, 32, 32, 32, 8]
        assert [l.stride for l in arch.encoder] == [2, 2, 1, 1, 1]
        assert [l.out_channels for l in arch.decoder] == [32, 32, 32, 16, 3]
        assert [l.stride for l in arch.decoder] == [1, 1, 1, 2, 2]
        assert all(l.kernel == 5 and l.padding == 2 for l in arch.encoder + arch.decoder)
        assert all(l.activation is Activation.PRELU for l in arch.encoder)
        assert [l.activation for l in arch.decoder[:4]] == [Activation.PRELU] * 4
        assert arch.decoder[4].activation is Activation.SIGMOID
        assert [l.output_padding for l in arch.decoder] == [0, 0, 0, 1, 1]

    def test_non_roundtrip_shape_rejected(self):
        with pytest.raises(ShapeError, match="multiples of 4"):
            default_base_architecture((34, 34, 3), 8)

    def test_odd_symbol_count_rejected(self):
        # latent 1x1 with odd c cannot pair into complex symbols
        with pytest.raises(ShapeError, match="odd symbol count"):
            default_base_architecture((4, 4, 3), 3)

    @pytest.mark.parametrize("side, index, field, value, message", [
        ("decoder", 4, "out_channels", 5, "dec4 gives 5 channels, but the input has 3"),
        ("encoder", 0, "in_channels", 4, "enc0 takes 4 channels, but gets 3"),
        ("decoder", 2, "in_channels", 16, "dec2 takes 16 channels, but gets 32"),
    ])
    def test_channels_that_do_not_chain_rejected(self, side, index, field, value, message):
        arch = default_base_architecture((16, 16, 3), 8)
        layers = list(getattr(arch, side))
        layers[index] = replace(layers[index], **{field: value})
        with pytest.raises(ShapeError, match=message):
            replace(arch, **{side: tuple(layers)})

    def test_layer_output_below_one_pixel_rejected(self):
        with pytest.raises(ShapeError, match="enc0 maps 8x8 to 0x0"):
            ArchitectureSpec(COLLAPSED_ENCODER, COLLAPSED_DECODER, (8, 8, 3))


    @pytest.mark.parametrize("kind, stride, padding, output_padding, message", [
        (LayerKind.CONV, 0, 2, None, "Conv layer: stride must be >= 1"),
        (LayerKind.DSCONV, 1, -1, None, "DSConv layer: stride must be >= 1 and padding >= 0"),
        (LayerKind.TCONV, 2, 2, 2, "TConv layer: output_padding must satisfy"),
    ])
    def test_layer_geometry_rejected(self, kind, stride, padding, output_padding, message):
        with pytest.raises(ShapeError, match=message):
            LayerSpec(kind, 8, 8, 5, stride, padding, output_padding)


class TestVariantBuilder:
    def test_r20_pattern(self):
        arch = build_variant_architecture(VariantId.R20, (32, 32, 3), 8)
        assert [l.kind for l in arch.encoder] == [LayerKind.DSCONV] + [LayerKind.CONV] * 4
        assert [l.kind for l in arch.decoder] == [LayerKind.DSTCONV] + [LayerKind.TCONV] * 4

    def test_e2d2_pattern(self):
        arch = build_variant_architecture(VariantId.R60_E2D2, (32, 32, 3), 8)
        assert [l.kind for l in arch.encoder] == [LayerKind.CONV, LayerKind.DSCONV,
                                                  LayerKind.DSCONV, LayerKind.DSCONV,
                                                  LayerKind.CONV]
        assert [l.kind for l in arch.decoder] == [LayerKind.TCONV, LayerKind.DSTCONV,
                                                  LayerKind.DSTCONV, LayerKind.DSTCONV,
                                                  LayerKind.TCONV]

    def test_e3d2_pattern(self):
        arch = build_variant_architecture(VariantId.R60_E3D2, (32, 32, 3), 8)
        enc = "".join("D" if l.kind.is_separable else "C" for l in arch.encoder)
        dec = "".join("D" if l.kind.is_separable else "C" for l in arch.decoder)
        assert (enc, dec) == ("CCDDD", "CDDDC")

    def test_golden_patterns_all_variants(self):
        # layer-kind masks for every model (D = separable)
        expected = {
            VariantId.BASELINE: ("CCCCC", "CCCCC"),
            VariantId.R20: ("DCCCC", "DCCCC"),
            VariantId.R40: ("DDCCC", "DDCCC"),
            VariantId.R60_E1D1: ("DDDCC", "DDDCC"),
            VariantId.R60_E2D1: ("CDDDC", "DDDCC"),
            VariantId.R60_E2D2: ("CDDDC", "CDDDC"),
            VariantId.R60_E2D3: ("CDDDC", "CCDDD"),
            VariantId.R60_E1D2: ("DDDCC", "CDDDC"),
            VariantId.R60_E3D2: ("CCDDD", "CDDDC"),
            VariantId.R80: ("DDDDC", "DDDDC"),
            VariantId.R100: ("DDDDD", "DDDDD"),
        }
        assert VARIANT_PATTERNS == expected
        for variant, (em, dm) in expected.items():
            arch = build_variant_architecture(variant, (32, 32, 3), 8)
            enc = "".join("D" if l.kind.is_separable else "C" for l in arch.encoder)
            dec = "".join("D" if l.kind.is_separable else "C" for l in arch.decoder)
            assert (enc, dec) == (em, dm)

    def test_builder_purity(self):
        base = default_base_architecture((64, 64, 3), 8)
        for variant in VARIANT_ORDER:
            arch = build_variant(variant, base)
            for a, b in zip(base.encoder + base.decoder, arch.encoder + arch.decoder):
                assert (a.in_channels, a.out_channels, a.kernel, a.stride,
                        a.padding, a.output_padding, a.activation) == \
                       (b.in_channels, b.out_channels, b.kernel, b.stride,
                        b.padding, b.output_padding, b.activation)

    def test_variant_ids_cover_exactly_eleven(self):
        assert len(VariantId) == 11
        assert VariantId.from_name("dsc-jscc-60-e2d2") is VariantId.R60_E2D2
        with pytest.raises(ValueError, match="unknown variant"):
            VariantId.from_name("dsc-jscc-37")

    @pytest.mark.parametrize("size", [32, 64, 256])
    def test_shape_roundtrip_rule_all_variants(self, size):
        for variant in VARIANT_ORDER:
            arch = build_variant_architecture(variant, (size, size, 3), 8)
            h = size
            for layer in arch.encoder:
                h = layer.out_dim(h)
            assert h == size // 4
            for layer in arch.decoder:
                h = layer.out_dim(h)
            assert h == size


class TestPixelPlumbing:
    def test_normalize_endpoints(self):
        assert normalize_pixels(np.array([0.0]))[0] == 0.0
        assert normalize_pixels(np.array([255.0]))[0] == 1.0
        assert normalize_pixels(np.array([127.5]))[0] == 0.5

    def test_normalize_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            normalize_pixels(np.array([-1.0]))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            normalize_pixels(np.array([255.5]))

    def test_denormalize_endpoints(self):
        assert denormalize_pixels(np.array([0.0]))[0] == 0.0
        assert denormalize_pixels(np.array([1.0]))[0] == 255.0
        assert denormalize_pixels(np.array([0.5]))[0] == 127.5

    def test_denormalize_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            denormalize_pixels(np.array([1.5]))

    def test_denormalize_inverts_normalize(self):
        x = rng.uniform(0, 255, size=(2, 3, 4, 4))
        np.testing.assert_allclose(denormalize_pixels(normalize_pixels(x)), x, atol=1e-12)


class TestComplexReshape:
    def test_pairing_definition(self):
        feat = np.array([3.0, 4.0]).reshape(1, 2, 1, 1)
        z = reshape_to_complex(feat)
        assert z.shape == (1, 1)
        assert z[0, 0] == 3.0 + 4.0j

    def test_roundtrip_identity(self):
        # decode() interleaves complex symbols back into the latent map it decodes
        arch = build_variant_architecture(VariantId.R60_E2D2, (16, 16, 3), 4)
        m = CodecModel(arch, variant=VariantId.R60_E2D2, seed=2)
        feat = rng.standard_normal((2, 4, 4, 4))
        direct = m.decode_graph(Tensor(feat.reshape(2, -1))).data * 255.0
        np.testing.assert_array_equal(m.decode(reshape_to_complex(feat)), direct)

    def test_isometry(self):
        feat = rng.standard_normal((3, 2, 4, 4))
        z = reshape_to_complex(feat)
        np.testing.assert_allclose(np.sum(np.abs(z) ** 2, axis=1),
                                   np.sum(feat ** 2, axis=(1, 2, 3)), rtol=1e-12)

    def test_odd_count_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            reshape_to_complex(np.ones((1, 3, 1, 1)))


def _interleave(z: np.ndarray) -> Tensor:
    # (N, k) complex rows -> the (N, 2k) real/imaginary rows the encoder normalizes
    rows = np.empty((z.shape[0], 2 * z.shape[1]))
    rows[:, 0::2], rows[:, 1::2] = z.real, z.imag
    return Tensor(rows)


def _power_normalize(z: np.ndarray, k: int, power: float) -> np.ndarray:
    out = ad.power_normalize(_interleave(z), k, power).data
    return out[:, 0::2] + 1j * out[:, 1::2]


class TestPowerNormalize:
    def test_idempotent_on_constraint_set(self):
        k = 8
        z = rng.standard_normal((1, k)) + 1j * rng.standard_normal((1, k))
        z = z * np.sqrt(k / np.sum(np.abs(z) ** 2))
        np.testing.assert_allclose(_power_normalize(z, k, 1.0), z, rtol=1e-12)

    def test_unit_rescale(self):
        z = np.zeros((1, 4), dtype=complex)
        z[0, 0] = 2.0
        out = _power_normalize(z, 1, 1.0)
        assert out[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(out[0, 1:], np.zeros(3))

    def test_scale_invariance(self):
        z = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        for alpha in (0.5, 3.0, 1e6):
            np.testing.assert_allclose(_power_normalize(alpha * z, 3, 2.0),
                                       _power_normalize(z, 3, 2.0), rtol=1e-10)

    def test_zero_norm_rejected(self):
        # one zero row in an otherwise valid batch is enough
        z = np.ones((3, 4), dtype=complex)
        z[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            _power_normalize(z, 4, 1.0)

    def test_encoder_output_whose_norm_overflows_rejected(self):
        # past about 1e154 the squared norm overflows: the symbols would be scaled to zero power
        arch = build_variant_architecture(VariantId.R60_E2D2, (16, 16, 3), 4)
        m = CodecModel(arch, variant=VariantId.R60_E2D2, seed=3)
        m.params["enc4.weight"].data *= 1e160
        with pytest.raises(ValueError, match="input norm is not finite"):
            m.encode(rng.uniform(0, 255, size=(2, 3, 16, 16)))

    @given(st.integers(2, 10), st.floats(0.1, 10.0))
    @settings(max_examples=30)
    def test_norm_contract_property(self, k, p):
        z = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k)) + 0.1
        out = _power_normalize(z, k, p)
        np.testing.assert_allclose(np.sum(np.abs(out) ** 2, axis=1), k * p, rtol=1e-12)


class TestCodec:
    def _model(self, variant=VariantId.R60_E2D2, size=32, c=8, seed=3):
        arch = build_variant_architecture(variant, (size, size, 3), c)
        return CodecModel(arch, variant=variant, seed=seed)

    def test_encode_length_contract(self):
        m = self._model()
        z = m.encode(rng.uniform(0, 255, size=(2, 3, 32, 32)))
        assert z.shape == (2, m.k)
        assert m.k == 256

    def test_power_constraint(self):
        m = self._model()
        z = m.encode(rng.uniform(0, 255, size=(3, 3, 32, 32)))
        np.testing.assert_allclose(np.sum(np.abs(z) ** 2, axis=1),
                                   m.k * m.power, rtol=1e-6)

    def test_encode_deterministic(self):
        m = self._model()
        img = rng.uniform(0, 255, size=(1, 3, 32, 32))
        np.testing.assert_array_equal(m.encode(img), m.encode(img.copy()))

    def test_decode_shape_and_range(self):
        m = self._model()
        z = m.encode(rng.uniform(0, 255, size=(2, 3, 32, 32)))
        xhat = m.decode(z)
        assert xhat.shape == (2, 3, 32, 32)
        assert xhat.min() >= 0.0 and xhat.max() <= 255.0

    def test_noiseless_roundtrip_deterministic(self):
        m = self._model()
        img = rng.uniform(0, 255, size=(1, 3, 32, 32))
        a = m.decode(m.encode(img))
        b = m.decode(m.encode(img))
        np.testing.assert_array_equal(a, b)

    def test_encode_rejects_wrong_shape(self):
        m = self._model()
        with pytest.raises(ShapeError, match="does not match"):
            m.encode(rng.uniform(0, 255, size=(1, 3, 16, 16)))

    def test_encode_rejects_nan_pixel(self):
        m = self._model()
        img = rng.uniform(0, 255, size=(1, 3, 32, 32))
        img[0, 1, 5, 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            m.encode(img)

    def test_decode_rejects_nan_symbols(self):
        m = self._model()
        z = m.encode(rng.uniform(0, 255, size=(1, 3, 32, 32)))
        z[0, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            m.decode(z)

    def test_decode_rejects_wrong_length(self):
        m = self._model()
        with pytest.raises(ShapeError, match="symbols"):
            m.decode(np.ones(100, dtype=complex))

    @pytest.mark.parametrize("variant", list(VARIANT_ORDER))
    def test_forward_roundtrip_shape_every_variant(self, variant):
        arch = build_variant_architecture(variant, (32, 32, 3), 8)
        m = CodecModel(arch, variant=variant, seed=0)
        img = rng.uniform(0, 255, size=(1, 3, 32, 32))
        assert m.decode(m.encode(img)).shape == img.shape

    @pytest.mark.parametrize("variant", list(VARIANT_ORDER))
    def test_decode_is_row_independent(self, variant):
        # The sweep decodes many (image, draw) rows per call, so no row may
        # depend on its neighbours or its position.  The 1x1 GEMMs are not
        # bitwise batch-invariant, hence a tolerance rather than equality.
        m = self._model(variant, size=16, c=4, seed=4)
        z = m.encode(rng.uniform(0, 255, size=(5, 3, 16, 16)))
        block = z + 0.3 * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape))
        rows = np.concatenate([m.decode(block[i:i + 1]) for i in range(len(block))])
        np.testing.assert_allclose(m.decode(block), rows, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.decode(block[::-1])[::-1], rows, rtol=0, atol=1e-12)

    @staticmethod
    def _check_passes_equal_graph(m, images, z):
        """``encode`` and ``decode`` equal the graph passes on trainable parameters, bit for bit."""
        graph = m.encode_graph(Tensor(images))
        assert graph.requires_grad
        np.testing.assert_array_equal(_bits(m.encode(images).view(np.float64)), _bits(graph.data))
        flat = z.view(np.float64)
        np.testing.assert_array_equal(_bits(m.decode(z)), _bits(m.decode_graph(Tensor(flat)).data * 255.0))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("variant", list(VARIANT_ORDER))
    def test_encode_and_decode_equal_the_graph_bitwise(self, variant, batch):
        m = self._model(variant, size=16, c=4, seed=6)
        images = rng.uniform(0, 255, size=(batch, 3, 16, 16))
        z = m.encode(images)
        noisy = z + 0.3 * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape))
        self._check_passes_equal_graph(m, images, noisy)
        symbols = m.encode_graph(Tensor(images), constant=True)
        assert not symbols.requires_grad and symbols._parents == ()

    def test_encode_and_decode_see_trained_weights(self):
        # the constants share their arrays with the parameters that Adam updates in place
        m = self._model(size=16, c=4, seed=6)
        images = rng.uniform(0, 255, size=(4, 3, 16, 16))
        before = m.encode(images[:1])
        train_step(m, images, AwgnChannel(ChannelConfig(snr_db=10.0, seed=1)), Adam(m.params))
        z = m.encode(images[:1])
        assert not np.array_equal(z, before)
        self._check_passes_equal_graph(m, images[:1], z)

    def test_each_layer_runs_through_the_module_hook(self, monkeypatch):
        # perfbench's tracer times the layers by replacing model._apply_layer
        m = self._model(size=16, c=4, seed=6)
        apply, calls = model_module._apply_layer, []

        def counted(x, spec, params):
            calls.append(spec)
            return apply(x, spec, params)

        monkeypatch.setattr(model_module, "_apply_layer", counted)
        images = rng.uniform(0, 255, size=(2, 3, 16, 16))
        m.decode(m.encode(images))
        assert calls == list(m.architecture.encoder + m.architecture.decoder)
        train_step(m, images, AwgnChannel(ChannelConfig(snr_db=10.0, seed=1)), Adam(m.params))
        assert len(calls) == 20

    def test_decode_frees_each_activation_after_use(self):
        # a decode that kept its graph would hold all ten layers' activations at once
        m = self._model(VariantId.R60_E2D2)
        z = m.encode(rng.uniform(0, 255, size=(16, 3, 32, 32)))
        flat = Tensor(z.view(np.float64))
        peaks = []
        for decode in (lambda: m.decode(z), lambda: m.decode_graph(flat)):
            tracemalloc.start()
            try:
                decode()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.6 * peaks[1], peaks

    def test_every_parameter_receives_gradient(self):
        m = self._model(size=16, seed=5)
        x = Tensor(rng.uniform(0, 255, size=(2, 3, 16, 16)))
        symbols = m.encode_graph(x)
        xhat = m.decode_graph(symbols)
        loss = ad.mse_mean(xhat, ad.scale(x, 1.0 / 255.0))
        loss.backward()
        for name, p in m.params.items():
            assert p.grad is not None and np.any(p.grad != 0.0), name

    def test_checkpoint_param_shapes_validated(self):
        m = self._model()
        for key, shape in (("enc0.weight", (1, 1, 1, 1)),
                           ("enc1.dw_weight", (8, 1, 5, 5)),  # the layer has 16 input channels
                           ("dec0.weight", (8, 32, 5, 3)),  # taps that are not square
                           ("enc0.prelu", (15,))):  # one slope per output channel, of 16
            bad = {k: t.data for k, t in m.params.items()}
            bad[key] = np.zeros(shape)
            with pytest.raises(ShapeError, match=f"parameter {key} has shape"):
                CodecModel(m.architecture, params=bad)

    def test_checkpoint_with_an_unknown_parameter_rejected(self):
        m = self._model()
        extra = {k: t.data for k, t in m.params.items()}
        extra["enc5.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ShapeError, match=r"unknown parameters: \['enc5.weight'\]"):
            CodecModel(m.architecture, params=extra)

    def test_empty_batch_rejected(self):
        m = self._model()
        with pytest.raises(ShapeError, match="with N >= 1"):
            m.encode(np.zeros((0, 3, 32, 32)))
        with pytest.raises(ShapeError, match="with N >= 1"):
            m.decode(np.zeros((0, m.k), dtype=np.complex128))

    def test_model_built_from_arrays_owns_copies(self):
        # training a model built from another model's arrays must leave that model as it was
        a = self._model(size=16, c=4, seed=6)
        before = {k: t.data.copy() for k, t in a.params.items()}
        b = CodecModel(a.architecture, params={k: t.data for k, t in a.params.items()})
        train_step(b, rng.uniform(0, 255, size=(2, 3, 16, 16)),
                   AwgnChannel(ChannelConfig(snr_db=10.0, seed=1)), Adam(b.params))
        assert not np.array_equal(b.params["enc0.weight"].data, before["enc0.weight"])
        for k, t in a.params.items():
            assert np.array_equal(t.data, before[k]), k
