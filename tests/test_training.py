"""Adam behaviour, training-loop determinism and convergence plumbing."""

import math

import numpy as np
import pytest

from dscjscc import autodiff as ad
from dscjscc.autodiff import Tensor
from dscjscc.channel import AwgnChannel, ChannelConfig
from dscjscc.data import synthetic_dataset
from dscjscc.kernels import ShapeError
from dscjscc.model import CodecModel, VariantId, build_variant_architecture
from dscjscc.training import Adam, TrainConfig, TrainingError, history_to_csv, train, train_step
from oracles import smoothed_endpoints


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p.grad = np.zeros(3)
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_learning_rate(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = Adam({"p": p}, lr=0.001)
        opt.step()
        assert p.data[0] == pytest.approx(-0.001, rel=1e-6)

    def test_deterministic(self):
        def run():
            p = Tensor(np.array([0.5, -0.5]), requires_grad=True)
            opt = Adam({"p": p}, lr=0.01)
            for i in range(5):
                p.grad = np.array([1.0 + i, -2.0])
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_skips_missing_gradients(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        opt.step()  # no .grad set
        assert p.data[0] == 1.0

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        Adam({"p": p}).zero_grad()
        assert p.grad is None


def _desk_setup(steps, seed=0, lr=0.001, sigma_noiseless=False):
    arch = build_variant_architecture(VariantId.R100, (16, 16, 3), 4)
    model = CodecModel(arch, variant=VariantId.R100, seed=seed)
    data = synthetic_dataset(16, 16, seed=seed + 10)
    cfg = TrainConfig(learning_rate=lr, batch_size=8, epochs=100,
                      snr_db=math.inf if sigma_noiseless else 10.0, seed=seed, max_steps=steps)
    channel = ChannelConfig(sigma2=0.0, seed=seed + 1) if sigma_noiseless else \
        ChannelConfig(snr_db=10.0, seed=seed + 1)
    return model, data, cfg, channel


class TestTrainLoop:
    def test_loss_history_length_and_steps(self):
        model, data, cfg, channel = _desk_setup(steps=7)
        result = train(model, data, cfg, channel)
        assert [r.step for r in result.history] == list(range(1, 8))

    def test_zero_learning_rate_with_noiseless_channel(self):
        model, data, cfg, channel = _desk_setup(steps=6, lr=0.0, sigma_noiseless=True)
        cfg.batch_size = len(data)  # one full-dataset batch per epoch
        before = {k: t.data.copy() for k, t in model.params.items()}
        result = train(model, data, cfg, channel)
        assert len({r.loss for r in result.history}) == 1  # constant loss, no updates
        for k, t in model.params.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_identical_seeds_identical_histories(self):
        r1 = train(*_desk_setup(steps=5))
        r2 = train(*_desk_setup(steps=5))
        assert [(a.loss, a.loss_sample_sum) for a in r1.history] == \
               [(b.loss, b.loss_sample_sum) for b in r2.history]

    def test_different_seeds_differ(self):
        r1 = train(*_desk_setup(steps=3, seed=0))
        r2 = train(*_desk_setup(steps=3, seed=1))
        assert [a.loss for a in r1.history] != [b.loss for b in r2.history]

    def test_shape_mismatch_rejected(self):
        model, _, cfg, channel = _desk_setup(steps=1)
        wrong = synthetic_dataset(4, 32, seed=0)
        with pytest.raises(ShapeError, match="dataset"):
            train(model, wrong, cfg, channel)

    def test_channel_power_that_differs_from_model_rejected(self):
        # the noise is drawn for the channel's power, so the model would train at another SNR
        model, data, cfg, _ = _desk_setup(steps=1)
        with pytest.raises(ValueError, match="channel power 2.0 != model power 1.0"):
            train(model, data, cfg, ChannelConfig(power=2.0, snr_db=10.0))

    @pytest.mark.parametrize("stated, drawn", [(10.0, 0.0), (math.inf, 10.0), (10.0, math.inf)])
    def test_train_snr_that_differs_from_channel_rejected(self, stated, drawn):
        # the noise is drawn at the channel's SNR, so a different stated one would be silently unused
        model, data, _, _ = _desk_setup(steps=1)
        with pytest.raises(ValueError, match=f"train config snr_db {stated} != channel snr_db {drawn}"):
            train(model, data, TrainConfig(snr_db=stated), ChannelConfig(snr_db=drawn))

    def test_loss_decreases_on_short_run(self):
        model, data, cfg, channel = _desk_setup(steps=60)
        result = train(model, data, cfg, channel)
        first, last = smoothed_endpoints(result.history, window=10)
        assert last < first

    def test_history_csv_format(self):
        result = train(*_desk_setup(steps=3))
        csv = history_to_csv(result.history)
        lines = csv.strip().split("\n")
        assert lines[0] == "step,epoch,loss,loss_sample_sum"
        assert len(lines) == 4

    def test_sample_sum_consistent_with_pixel_mean(self):
        result = train(*_desk_setup(steps=2))
        for r in result.history:
            assert r.loss_sample_sum == pytest.approx(r.loss * 3 * 16 * 16, rel=1e-12)

    def test_non_finite_loss_rejected(self):
        model, data, cfg, channel = _desk_setup(steps=3)
        model.params["dec4.pw_weight"].data[0, 0, 0, 0] = math.nan
        with pytest.raises(TrainingError, match="non-finite loss nan at step 1 "):
            train(model, data, cfg, channel)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("max_steps", 0), ("max_steps", -3), ("max_steps", 2.5),
    ])
    def test_non_finite_rate_and_no_steps_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


def _step_graph_grads(variant, image_requires_grad):
    # the graph of training.train_step, with the image tensor kept for inspection
    model = CodecModel(build_variant_architecture(variant, (16, 16, 3), 4), variant=variant, seed=5)
    x = Tensor(synthetic_dataset(4, 16, seed=6).images, requires_grad=image_requires_grad)
    symbols = model.encode_graph(x)
    noise = AwgnChannel(ChannelConfig(snr_db=10.0, seed=7)).noise_block(symbols.data.shape)
    loss = ad.mse_mean(model.decode_graph(ad.add_constant(symbols, noise)), ad.scale(x, 1.0 / 255.0))
    loss.backward()
    return x, {k: t.grad for k, t in model.params.items()}


def _train_step_graph(variant):
    # one training.train_step, with its loss node caught on the way out of mse_mean
    model = CodecModel(build_variant_architecture(variant, (16, 16, 3), 4), variant=variant, seed=5)
    mse, losses = ad.mse_mean, []

    def caught(a, b):
        losses.append(mse(a, b))
        return losses[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "mse_mean", caught)
        train_step(model, synthetic_dataset(4, 16, seed=6).images,
                   AwgnChannel(ChannelConfig(snr_db=10.0, seed=7)), Adam(model.params))
    return losses[0], {k: t.grad for k, t in model.params.items()}


@pytest.mark.parametrize("variant", [VariantId.BASELINE, VariantId.R100])
def test_kept_gradients_share_no_memory_and_equal_copied_ones(variant, monkeypatch):
    # autodiff keeps the gradient arrays its VJPs freshly allocate; a
    # pass-through or view VJP must still copy, or two nodes would share one
    # gradient buffer and an accumulation into one would change the other
    loss, grads = _train_step_graph(variant)
    nodes, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    kept = [t.grad for t in nodes.values() if t.grad is not None]
    assert len(kept) > len(grads)  # the parameters and the nodes between them
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not np.shares_memory(a, b)
    accumulate = Tensor._accumulate
    monkeypatch.setattr(Tensor, "_accumulate", lambda self, g, owned=False: accumulate(self, g))
    _, copied = _train_step_graph(variant)
    for k in grads:
        np.testing.assert_array_equal(grads[k], copied[k], err_msg=k)


@pytest.mark.parametrize("variant", [VariantId.BASELINE, VariantId.R100])
def test_image_gets_no_gradient_and_parameters_are_unchanged(variant):
    x, grads = _step_graph_grads(variant, image_requires_grad=False)
    assert x.grad is None
    x_req, grads_req = _step_graph_grads(variant, image_requires_grad=True)
    assert x_req.grad is not None and x_req.grad.shape == x.data.shape
    assert grads.keys() == grads_req.keys()
    for k in grads:
        np.testing.assert_array_equal(grads[k], grads_req[k], err_msg=k)
