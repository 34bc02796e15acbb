"""Channel statistics, seed determinism, and gradient transparency."""

import math

import numpy as np
import pytest

from dscjscc import autodiff as ad
from dscjscc.autodiff import Tensor
from dscjscc.channel import AwgnChannel, ChannelConfig, sigma_from_snr
from oracles import awgn, sum_all

rng = np.random.default_rng(2024)


class TestSigmaFromSnr:
    def test_zero_db(self):
        assert sigma_from_snr(0.0, 1.0) == 1.0

    def test_ten_db(self):
        assert sigma_from_snr(10.0, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_nineteen_db(self):
        assert sigma_from_snr(19.0, 1.0) == pytest.approx(10 ** -1.9, rel=1e-12)
        assert sigma_from_snr(19.0, 1.0) == pytest.approx(0.012589, abs=1e-6)

    def test_power_scales_linearly(self):
        assert sigma_from_snr(10.0, 4.0) == pytest.approx(0.4, rel=1e-12)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            sigma_from_snr(10.0, 0.0)


class TestChannelConfig:
    def test_snr_derives_sigma(self):
        cfg = ChannelConfig(snr_db=10.0)
        assert cfg.sigma2 == pytest.approx(0.1)

    def test_sigma_derives_snr(self):
        cfg = ChannelConfig(sigma2=0.01)
        assert cfg.snr_db == pytest.approx(20.0)

    def test_noiseless_mode(self):
        cfg = ChannelConfig(sigma2=0.0)
        assert cfg.snr_db == math.inf

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            ChannelConfig(sigma2=0.5, snr_db=10.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"power": math.nan, "snr_db": 10.0}, "transmit power"),
        ({"power": math.inf, "snr_db": 10.0}, "transmit power"),
        ({"snr_db": math.nan}, "noise power"),
        ({"sigma2": math.nan}, "noise power"),
        ({"snr_db": -math.inf}, "noise power"),
    ], ids=["power-nan", "power-inf", "snr-nan", "sigma2-nan", "snr-minus-inf"])
    def test_non_finite_value_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ChannelConfig(**kwargs)

    def test_missing_both_rejected(self):
        with pytest.raises(ValueError, match="sigma2 or snr_db"):
            ChannelConfig()


class TestAwgn:
    def test_zero_noise_identity(self):
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(awgn(z, ChannelConfig(sigma2=0.0)), z)

    def test_seed_determinism(self):
        z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        cfg = ChannelConfig(sigma2=0.3, seed=99)
        np.testing.assert_array_equal(awgn(z, cfg), awgn(z, ChannelConfig(sigma2=0.3, seed=99)))

    def test_different_seeds_differ(self):
        z = np.zeros(64, dtype=complex)
        a = awgn(z, ChannelConfig(sigma2=0.5, seed=1))
        b = awgn(z, ChannelConfig(sigma2=0.5, seed=2))
        assert not np.array_equal(a, b)

    def test_empirical_variance(self):
        # per-symbol noise power over 1e6 symbols within 2%
        z = np.zeros(1_000_000, dtype=complex)
        noisy = awgn(z, ChannelConfig(sigma2=0.5, seed=7))
        var = float(np.mean(np.abs(noisy - z) ** 2))
        assert abs(var - 0.5) / 0.5 < 0.02

    def test_empirical_mean_within_three_se(self):
        n = 1_000_000
        sigma2 = 0.5
        noise = awgn(np.zeros(n, dtype=complex), ChannelConfig(sigma2=sigma2, seed=13))
        se = math.sqrt(sigma2 / 2 / n)
        assert abs(float(np.mean(noise.real))) < 3 * se
        assert abs(float(np.mean(noise.imag))) < 3 * se

    def test_mean_preserving_over_draws(self):
        # law of large numbers: averaging noisy copies converges back to z
        k = 16
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        sigma2 = 0.25
        draws = 100_000
        ch = AwgnChannel(ChannelConfig(sigma2=sigma2, seed=5))
        noisy = ch.transmit(np.tile(z, (draws, 1)))
        avg = noisy.mean(axis=0)
        se = math.sqrt(sigma2 / 2 / draws)
        assert np.all(np.abs((avg - z).real) < 5 * se)
        assert np.all(np.abs((avg - z).imag) < 5 * se)

    def test_stream_advances_within_instance(self):
        ch = AwgnChannel(ChannelConfig(sigma2=0.5, seed=3))
        z = np.zeros(32, dtype=complex)
        assert not np.array_equal(ch.transmit(z), ch.transmit(z))

    def test_noise_block_matches_interleaved_stats(self):
        ch = AwgnChannel(ChannelConfig(sigma2=0.8, seed=21))
        block = ch.noise_block((1000, 64))
        # per real component variance sigma2/2
        assert np.var(block) == pytest.approx(0.4, rel=0.05)


class TestGradientTransparency:
    def test_noise_addition_passes_gradient_unchanged(self):
        x = Tensor(rng.standard_normal((3, 10)), requires_grad=True)
        noise = rng.standard_normal((3, 10))
        y = ad.add_constant(x, noise)
        g = rng.standard_normal((3, 10))
        sum_all(ad.scale(y, g)).backward()
        np.testing.assert_array_equal(x.grad, g)

    def test_complex_normals_shape_and_dtype(self):
        out = AwgnChannel(ChannelConfig(sigma2=2.0)).transmit(np.zeros((5, 7)))
        assert out.shape == (5, 7) and out.dtype == np.complex128
