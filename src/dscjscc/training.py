"""End-to-end optimization of the codec over a simulated channel."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import AwgnChannel, ChannelConfig
from .data import Dataset
from .kernels import ShapeError
from .model import CodecModel


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs: int = 20
    snr_db: float = 10.0
    seed: int = 0
    max_steps: int | None = None  # cap total optimizer steps (desk-scale runs)

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError(f"hyperparameters must be positive: {self}")
        if self.max_steps is not None and not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be None or an int >= 1, got {self.max_steps!r}")


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


@dataclass(frozen=True)
class StepRecord:
    step: int
    epoch: int
    loss: float  # pixel-mean MSE on [0,1] images (the quantity optimized)
    loss_sample_sum: float  # batch-mean of per-sample squared-error sums


@dataclass
class TrainResult:
    history: list[StepRecord] = field(default_factory=list)


def train_step(model: CodecModel, batch: np.ndarray, channel: AwgnChannel,
               optimizer: Adam) -> StepRecord:
    x = Tensor(batch)
    symbols = model.encode_graph(x)
    noisy = ad.add_constant(symbols, channel.noise_block(symbols.data.shape))
    xhat01 = model.decode_graph(noisy)
    x01 = ad.scale(x, 1.0 / 255.0)
    loss = ad.mse_mean(xhat01, x01)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    loss_val = float(loss.data)
    per_sample = loss_val * (batch.size / batch.shape[0])
    return StepRecord(0, 0, loss_val, per_sample)


def train(model: CodecModel, data: Dataset, cfg: TrainConfig,
          channel_cfg: ChannelConfig) -> TrainResult:
    """Seeded mini-batch training; shuffle and channel noise use separate streams."""
    if channel_cfg.power != model.power:  # the noise is scaled to the channel's power
        raise ValueError(f"channel power {channel_cfg.power} != model power {model.power}: "
                         f"the training SNR would not be the one stated")
    if not math.isclose(cfg.snr_db, channel_cfg.snr_db, rel_tol=1e-9):  # inf equals inf
        raise ValueError(f"train config snr_db {cfg.snr_db} != channel snr_db {channel_cfg.snr_db}: "
                         f"the noise would not be drawn at the stated SNR")
    w, h, c = model.architecture.input_shape
    if data.images.shape[1:] != (c, h, w):
        raise ShapeError(f"dataset images {data.images.shape[1:]} do not match "
                         f"model input (C,H,W)=({c},{h},{w})")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x53]))
    channel = AwgnChannel(channel_cfg)
    optimizer = Adam(model.params, lr=cfg.learning_rate)
    result = TrainResult()
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            # canonical row order inside the batch keeps losses bitwise
            # reproducible regardless of how the permutation lands
            batch = data.images[np.sort(order[start:start + cfg.batch_size])]
            record = train_step(model, batch, channel, optimizer)
            step += 1
            record = StepRecord(step, epoch + 1, record.loss, record.loss_sample_sum)
            if not np.isfinite(record.loss):
                raise TrainingError(f"non-finite loss {record.loss} at step {step} "
                                    f"(epoch {epoch + 1}, lr {cfg.learning_rate})")
            result.history.append(record)
            if cfg.max_steps is not None and step >= cfg.max_steps:
                return result
    return result


def history_to_csv(history: list[StepRecord]) -> str:
    lines = ["step,epoch,loss,loss_sample_sum"]
    for r in history:
        lines.append(f"{r.step},{r.epoch},{r.loss!r},{r.loss_sample_sum!r}")
    return "\n".join(lines) + "\n"
