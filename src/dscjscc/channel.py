"""Differentiable noisy-channel simulation.

Noise power sigma2 is per complex symbol (sigma2/2 per real component), so an
AWGN draw adds circularly symmetric complex Gaussian noise of total power
sigma2 to each symbol.  All Gaussian sampling goes through a Box-Muller
transform of PCG64 uniforms so a fixed seed replays bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sigma_from_snr(snr_db: float, power: float = 1.0) -> float:
    """Noise power per complex symbol for a given SNR in dB; inf when it is too large for a float."""
    if power <= 0.0:
        raise ValueError(f"transmit power must be positive, got {power}")
    try:
        return power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def snr_from_sigma(sigma2: float, power: float = 1.0) -> float:
    if sigma2 <= 0.0:
        return math.inf
    return 10.0 * math.log10(power / sigma2)


@dataclass
class ChannelConfig:
    """Transmit power, noise power, and their dB bookkeeping.

    Give sigma2, snr_db, or both if they agree; a missing one is derived.
    sigma2 == 0 (snr_db == inf) is the explicit noiseless mode.
    """

    power: float = 1.0
    sigma2: float | None = None
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.power < math.inf:  # NaN fails too
            raise ValueError(f"transmit power must be finite and positive, got {self.power}")
        if self.sigma2 is None and self.snr_db is None:
            raise ValueError("channel config needs sigma2 or snr_db")
        if self.sigma2 is None:
            self.sigma2 = sigma_from_snr(self.snr_db, self.power)
        elif self.snr_db is None:
            self.snr_db = snr_from_sigma(self.sigma2, self.power)
        else:
            derived = sigma_from_snr(self.snr_db, self.power)
            if not math.isclose(derived, self.sigma2, rel_tol=1e-9):
                raise ValueError(f"sigma2={self.sigma2} and snr_db={self.snr_db} disagree "
                                 f"(snr implies sigma2={derived})")
        if not 0.0 <= self.sigma2 < math.inf:  # NaN fails too; snr_db=inf gives sigma2=0
            raise ValueError(f"noise power must be finite and non-negative, got {self.sigma2}")


def _standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller: pairs of PCG64 uniforms -> standard normals."""
    m = (count + 1) // 2
    u1 = 1.0 - rng.random(m)  # (0, 1], keeps log finite
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:count]


class AwgnChannel:
    """AWGN channel owning its own PRNG stream; one instance per worker."""

    def __init__(self, config: ChannelConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def transmit(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        if self.config.sigma2 == 0.0:
            return z.copy()
        re, im = self.noise_block((2, *z.shape))  # circularly symmetric: sigma2/2 per component
        return z + (re + 1j * im)

    def noise_block(self, shape: tuple[int, ...]) -> np.ndarray:
        """Real noise of variance sigma2/2 per entry: an interleaved (N, 2k) symbol block's,
        or the stacked real and imaginary parts ``transmit`` adds."""
        if self.config.sigma2 == 0.0:
            return np.zeros(shape)
        count = int(np.prod(shape))
        return (_standard_normals(self._rng, count)
                * math.sqrt(self.config.sigma2 / 2.0)).reshape(shape)
