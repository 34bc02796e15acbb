"""MSE conventions, PSNR definition, and the SNR sweep evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscjscc.channel import AwgnChannel, ChannelConfig
from dscjscc.data import synthetic_dataset
from dscjscc.kernels import ShapeError
from dscjscc.metrics import (_DECODE_BATCH, PSNR_CAP_DB, _stream_seed, evaluate_sweep,
                             mse_pixel_mean, psnr, sweep_to_csv)
from dscjscc.model import CodecModel, VariantId, build_variant_architecture
from oracles import mse_loss, naive_mse_sum_per_sample

rng = np.random.default_rng(11)


class TestMse:
    def test_identical_is_zero(self):
        x = rng.standard_normal((2, 3, 4, 4))
        assert mse_loss(x, x.copy()) == 0.0
        assert mse_pixel_mean(x, x.copy()) == 0.0

    def test_single_pixel_difference(self):
        x = np.zeros((1, 1, 1, 1))
        y = np.full((1, 1, 1, 1), 3.0)
        assert mse_loss(x, y) == 9.0

    def test_matches_naive_double_loop(self):
        x = rng.standard_normal((3, 2, 5, 5))
        y = rng.standard_normal((3, 2, 5, 5))
        assert mse_loss(x, y) == pytest.approx(naive_mse_sum_per_sample(x, y), abs=1e-12)

    def test_pixel_mean_relates_to_sum(self):
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.standard_normal((4, 3, 8, 8))
        per_sample_elems = 3 * 8 * 8
        assert mse_loss(x, y) == pytest.approx(mse_pixel_mean(x, y) * per_sample_elems, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="mismatch"):
            mse_loss(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)))


class TestPsnr:
    def test_identical_hits_cap(self):
        x = rng.uniform(0, 255, size=(1, 3, 8, 8))
        assert psnr(x, x.copy()) == PSNR_CAP_DB

    def test_unit_mse(self):
        x = np.zeros((1, 1, 2, 2))
        y = np.ones((1, 1, 2, 2))
        assert psnr(x, y) == pytest.approx(10 * math.log10(65025), rel=1e-12)
        assert psnr(x, y) == pytest.approx(48.13, abs=0.01)

    def test_peak_squared_mse_is_zero_db(self):
        x = np.zeros((1, 1, 4, 4))
        y = np.full((1, 1, 4, 4), 255.0)
        assert psnr(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        x = rng.uniform(0, 255, size=(1, 3, 4, 4))
        y = rng.uniform(0, 255, size=(1, 3, 4, 4))
        assert psnr(x, y) == psnr(y, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mse_rejected(self, bad):
        x = rng.uniform(0, 255, size=(1, 3, 4, 4))
        with pytest.raises(ValueError, match="non-finite MSE"):
            psnr(x, x + bad)

    @given(st.floats(0.01, 1000.0), st.floats(1.01, 5.0))
    @settings(max_examples=30)
    def test_strictly_decreasing_in_mse(self, mse, factor):
        x = np.zeros((1, 1, 1, 1))
        a = psnr(x, np.full((1, 1, 1, 1), math.sqrt(mse)))
        b = psnr(x, np.full((1, 1, 1, 1), math.sqrt(mse * factor)))
        assert b < a


@pytest.fixture(scope="module")
def model_and_data():
    arch = build_variant_architecture(VariantId.R100, (16, 16, 3), 4)
    model = CodecModel(arch, variant=VariantId.R100, seed=2)
    data = synthetic_dataset(4, 16, seed=9, split="test")
    return model, data


class TestEvaluateSweep:

    def test_row_per_snr_point(self, model_and_data):
        model, data = model_and_data
        rows = evaluate_sweep(model, data, [0.0, 5.0, 10.0, 15.0, 19.0], seed=1)
        assert [r.snr_db for r in rows] == [0.0, 5.0, 10.0, 15.0, 19.0]
        assert all(r.n_images == 4 and r.n_draws == 1 for r in rows)

    def test_repeatable(self, model_and_data):
        model, data = model_and_data
        a = evaluate_sweep(model, data, [5.0, 15.0], draws_per_image=2, seed=3)
        b = evaluate_sweep(model, data, [5.0, 15.0], draws_per_image=2, seed=3)
        assert a == b

    def test_noiseless_evaluation_twice_identical(self, model_and_data):
        model, data = model_and_data
        a = evaluate_sweep(model, data, [math.inf], seed=0)
        b = evaluate_sweep(model, data, [math.inf], seed=0)
        assert a == b

    def test_empty_snr_list_rejected(self, model_and_data):
        model, data = model_and_data
        with pytest.raises(ValueError, match="snr_list"):
            evaluate_sweep(model, data, [], seed=0)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_no_draws_rejected(self, model_and_data, draws):
        model, data = model_and_data
        with pytest.raises(ValueError, match="draws_per_image"):
            evaluate_sweep(model, data, [10.0], draws_per_image=draws, seed=0)

    def test_csv_header(self, model_and_data):
        model, data = model_and_data
        rows = evaluate_sweep(model, data, [10.0], seed=4)
        csv = sweep_to_csv(rows)
        assert csv.startswith("snr_db,mean_psnr_db,std_psnr_db,n_images,n_draws\n")
        assert len(csv.strip().split("\n")) == 2

    def test_encodes_each_image_once_and_keeps_noise_streams(self, model_and_data, monkeypatch):
        model, data = model_and_data
        snrs, draws, seed = [0.0, 10.0, 19.0], 2, 5
        expected = []
        for si, snr_db in enumerate(snrs):
            values = []
            for ii in range(len(data)):
                image = data.images[ii:ii + 1]
                ch = AwgnChannel(ChannelConfig(power=model.power, snr_db=snr_db,
                                               seed=_stream_seed(seed, si, ii)))
                z = model.encode(image)
                values += [psnr(image, model.decode(ch.transmit(z))) for _ in range(draws)]
            expected.append((float(np.mean(values)), float(np.std(values))))
        encoded = []
        real_encode = model.encode
        monkeypatch.setattr(model, "encode", lambda image: encoded.append(image) or real_encode(image))
        rows = evaluate_sweep(model, data, snrs, draws_per_image=draws, seed=seed)
        assert len(encoded) == len(data)
        assert [(r.mean_psnr_db, r.std_psnr_db) for r in rows] == expected

    def test_decodes_each_snr_point_in_slices_of_noisy_draws(self, model_and_data, monkeypatch):
        model, data = model_and_data
        snrs, draws, seed = [0.0, 19.0], 5, 6
        n_rows = len(data) * draws
        assert n_rows % _DECODE_BATCH  # a slice straddles two images
        calls = []
        real_decode = model.decode
        monkeypatch.setattr(model, "decode", lambda z: calls.append(z.copy()) or real_decode(z))
        evaluate_sweep(model, data, snrs, draws_per_image=draws, seed=seed)
        per_snr = math.ceil(n_rows / _DECODE_BATCH)
        assert len(calls) == len(snrs) * per_snr
        assert all(len(z) <= _DECODE_BATCH for z in calls)
        for si, snr_db in enumerate(snrs):
            expected = []
            for ii in range(len(data)):
                ch = AwgnChannel(ChannelConfig(power=model.power, snr_db=snr_db,
                                               seed=_stream_seed(seed, si, ii)))
                z = model.encode(data.images[ii:ii + 1])
                expected += [ch.transmit(z) for _ in range(draws)]
            got = np.concatenate(calls[si * per_snr:(si + 1) * per_snr])
            np.testing.assert_array_equal(got, np.concatenate(expected))
