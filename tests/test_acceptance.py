"""Acceptance gate: every quantitative exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The slow criteria (desk-scale training, determinism)
come last.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dscjscc import autodiff as ad
from dscjscc.autodiff import Tensor
from dscjscc.channel import ChannelConfig
from dscjscc.cli import main
from dscjscc.complexity import (architecture_complexity, layer_params,
                                model_complexity, reduction_report)
from dscjscc.data import synthetic_dataset
from dscjscc.metrics import evaluate_sweep
from dscjscc.model import (VARIANT_ORDER, Activation, CodecModel, LayerKind, LayerSpec,
                           VariantId, build_variant_architecture, init_layer_params)
from dscjscc.training import TrainConfig, train
from oracles import (DIFFERENTIABLE_OPS, awgn, finite_diff_check, oracle_param_count,
                     smoothed_endpoints)

GOLDEN = Path(__file__).parent / "golden"

PARAMS_K = ["143.7", "136.7", "101.0", "53.6", "30.9", "25.4",
            "48.4", "48.0", "31.9", "18.4", "12.3"]
FLOPS_M = ["832.4", "790.4", "644.3", "449.5", "369.8", "205.9",
           "254.1", "285.6", "232.7", "163.9", "92.8"]


def _report(name: str, started: float, budget_s: float) -> None:
    elapsed = time.time() - started
    print(f"PASS: {name} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def test_table_parameters_exact():
    t0 = time.time()
    got = [model_complexity(v).params_display for v in VARIANT_ORDER]
    assert got == PARAMS_K, f"parameter cells {got} != {PARAMS_K}"
    _report("complexity table parameters exact (11 cells)", t0, 1.0)


def test_table_flops_exact():
    t0 = time.time()
    got = [model_complexity(v).flops_display for v in VARIANT_ORDER]
    assert got == FLOPS_M, f"FLOP cells {got} != {FLOPS_M}"
    _report("complexity table FLOPs exact (11 cells)", t0, 1.0)


def test_reduction_claims():
    t0 = time.time()
    dp, df = reduction_report(VariantId.BASELINE, VariantId.R60_E1D1)
    assert abs(dp - 62.7) <= 0.1, f"baseline->e1d1 params {dp:.2f}%"
    assert abs(df - 46.0) <= 0.1, f"baseline->e1d1 flops {df:.2f}%"
    dp, df = reduction_report(VariantId.R60_E1D1, VariantId.R60_E2D2)
    assert abs(dp - 52.6) <= 0.1, f"e1d1->e2d2 params {dp:.2f}%"
    assert abs(df - 54.2) <= 0.1, f"e1d1->e2d2 flops {df:.2f}%"
    _report("headline reduction percentages (62.7/46.0 and 52.6/54.2)", t0, 1.0)


def test_oracle_equivalence():
    t0 = time.time()
    for variant in VARIANT_ORDER:
        arch = build_variant_architecture(variant, (32, 32, 3), 8)
        model = CodecModel(arch, variant=variant, seed=0)
        assert oracle_param_count(model) == architecture_complexity(variant, arch).total_params
    rng = np.random.default_rng(99)
    for _ in range(200):
        kind = rng.choice(list(LayerKind))
        spec = LayerSpec(kind, int(rng.integers(1, 48)), int(rng.integers(1, 48)),
                         int(rng.integers(1, 7)), 1, 0,
                         output_padding=0 if kind.is_transposed else None,
                         activation=rng.choice(list(Activation)))
        arrays = init_layer_params(spec, rng)
        assert layer_params(spec) == sum(a.size for a in arrays.values())
    _report("analytical == enumerated parameters (11 variants + 200 random specs)", t0, 10.0)


def test_gradient_suite():
    t0 = time.time()
    for op in DIFFERENTIABLE_OPS:
        rep = finite_diff_check(op, trials=8, seed=7)
        assert rep.max_rel_error < 1e-4, f"{op}: {rep.per_input}"

    # full chain: encode -> noiseless channel -> decode -> pixel-mean MSE
    arch = build_variant_architecture(VariantId.R60_E2D2, (8, 8, 3), 2)
    model = CodecModel(arch, variant=VariantId.R60_E2D2, seed=17)
    rng = np.random.default_rng(5)
    images = rng.uniform(0, 255, size=(2, 3, 8, 8))

    def loss_value() -> float:
        x = Tensor(images)
        symbols = model.encode_graph(x)
        noisy = ad.add_constant(symbols, np.zeros_like(symbols.data))
        xhat = model.decode_graph(noisy)
        return float(ad.mse_mean(xhat, ad.scale(x, 1.0 / 255.0)).data)

    x = Tensor(images)
    symbols = model.encode_graph(x)
    noisy = ad.add_constant(symbols, np.zeros_like(symbols.data))
    xhat = model.decode_graph(noisy)
    loss = ad.mse_mean(xhat, ad.scale(x, 1.0 / 255.0))
    loss.backward()

    # step small enough that no PReLU pre-activation in the chain is crossed;
    # float64 keeps the difference-quotient roundoff ~1e-8 relative
    names = sorted(model.params)
    for trial in range(5):
        name = names[int(rng.integers(len(names)))]
        tensor = model.params[name]
        flat = tensor.data.reshape(-1)
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        step = 1e-6
        flat[idx] = orig + step
        fp = loss_value()
        flat[idx] = orig - step
        fm = loss_value()
        flat[idx] = orig
        numeric = (fp - fm) / (2 * step)
        analytic = tensor.grad.reshape(-1)[idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-3, \
            f"{name}[{idx}]: analytic {analytic:.3e} vs numeric {numeric:.3e}"
    _report("gradient suite (primitives < 1e-4, end-to-end chain < 1e-3)", t0, 60.0)


def test_power_constraint_thousand_draws():
    t0 = time.time()
    rng = np.random.default_rng(123)
    variants = list(VARIANT_ORDER)
    count = 0
    for m in range(200):
        variant = variants[m % len(variants)]
        arch = build_variant_architecture(variant, (16, 16, 3), 4)
        model = CodecModel(arch, variant=variant, seed=int(rng.integers(1 << 31)))
        images = rng.uniform(0, 255, size=(5, 3, 16, 16))
        z = model.encode(images)
        power = np.sum(np.abs(z) ** 2, axis=1)
        np.testing.assert_allclose(power, model.k * model.power, rtol=1e-6)
        count += images.shape[0]
    assert count == 1000
    _report("power constraint |encode(x)|^2 = k*P over 1000 draws (1e-6 rel)", t0, 30.0)


def test_channel_statistics():
    t0 = time.time()
    sigma2 = 0.5
    noisy = awgn(np.zeros(1_000_000, dtype=complex), ChannelConfig(sigma2=sigma2, seed=7))
    var = float(np.mean(np.abs(noisy) ** 2))
    assert abs(var - sigma2) / sigma2 < 0.02, f"empirical variance {var:.4f}"
    z = np.random.default_rng(5).standard_normal(4096) * (1 + 0.5j)
    np.testing.assert_array_equal(awgn(z, ChannelConfig(sigma2=0.0)), z)
    _report("channel statistics (variance within 2% over 1e6 symbols; sigma=0 identity)", t0, 10.0)


@pytest.fixture(scope="module")
def desk_scale_run():
    arch = build_variant_architecture(VariantId.R60_E2D2, (32, 32, 3), 8)
    trained = CodecModel(arch, variant=VariantId.R60_E2D2, seed=1)
    untrained = CodecModel(arch, variant=VariantId.R60_E2D2, seed=1)
    data = synthetic_dataset(64, 32, seed=5)
    cfg = TrainConfig(learning_rate=0.001, batch_size=32, epochs=100,
                      snr_db=10.0, seed=0, max_steps=200)
    t0 = time.time()
    result = train(trained, data, cfg, ChannelConfig(snr_db=10.0, seed=11))
    return trained, untrained, result, time.time() - t0


def test_desk_scale_training_convergence(desk_scale_run):
    t0 = time.time()
    trained, untrained, result, train_seconds = desk_scale_run
    assert len(result.history) == 200
    initial, final = smoothed_endpoints(result.history, window=20)
    assert final <= 0.5 * initial, f"smoothed loss {initial:.5f} -> {final:.5f}"

    test_data = synthetic_dataset(16, 32, seed=77, split="test")
    snrs = [0.0, 10.0, 19.0]
    rows_trained = evaluate_sweep(trained, test_data, snrs, draws_per_image=3, seed=9)
    rows_untrained = evaluate_sweep(untrained, test_data, snrs, draws_per_image=3, seed=9)
    for rt, ru in zip(rows_trained, rows_untrained):
        assert rt.mean_psnr_db >= ru.mean_psnr_db, \
            f"snr {rt.snr_db}: trained {rt.mean_psnr_db:.2f} < untrained {ru.mean_psnr_db:.2f}"

    inversions = [max(0.0, rows_trained[i].mean_psnr_db - rows_trained[i + 1].mean_psnr_db)
                  for i in range(len(rows_trained) - 1)]
    big = [d for d in inversions if d > 0.0]
    assert len(big) <= 1 and all(d <= 0.1 for d in big), f"PSNR inversions {inversions}"

    elapsed = train_seconds + (time.time() - t0)
    print(f"PASS: desk-scale training (loss x{final / initial:.2f}, trained-vs-untrained "
          f"margins {[round(a.mean_psnr_db - b.mean_psnr_db, 2) for a, b in zip(rows_trained, rows_untrained)]} dB) "
          f"({elapsed:.1f}s, budget 600s)")
    assert elapsed < 600.0


def test_train_eval_determinism(tmp_path):
    t0 = time.time()
    config = {
        "variant": "dsc-jscc-60-e2d2",
        "input_size": "16x16x3",
        "c": 4,
        "train_snr_db": 10.0,
        "snr_list": [0, 10, 19],
        "batch_size": 8,
        "epochs": 100,
        "max_steps": 12,
        "dataset": {"synthetic": {"count": 16, "seed": 3}},
        "seed": 21,
        "draws_per_image": 2,
    }
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps({**config, "out_dir": str(out_dir)}))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0
        outputs.append(((out_dir / "loss_history.csv").read_bytes(),
                        (out_dir / "sweep.csv").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "loss-history CSVs differ between runs"
    assert outputs[0][1] == outputs[1][1], "sweep CSVs differ between runs"
    _report("train+eval determinism (bitwise-identical CSVs)", t0, 600.0)


def test_variant_golden_outputs(capsys):
    t0 = time.time()
    assert main(["variants"]) == 0
    variants_out = capsys.readouterr().out
    assert variants_out == (GOLDEN / "variants.txt").read_text()
    assert main(["analyze", "--all"]) == 0
    analyze_out = capsys.readouterr().out
    assert analyze_out == (GOLDEN / "analyze_all.txt").read_text()
    with capsys.disabled():
        _report("golden outputs for `variants` and `analyze --all`", t0, 1.0)
