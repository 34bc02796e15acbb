"""CLI surface: subcommands, strict config parsing, golden outputs, exit codes."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dscjscc import cli
from dscjscc.cli import (ConfigError, ExperimentConfig, derive_bandwidth, main, parse_config,
                         parse_input_size)
from dscjscc.model import VariantId, build_variant_architecture
from dscjscc.training import TrainingError
from test_checkpoint import rewrite_header, save_collapsed_codec

GOLDEN = Path(__file__).parent / "golden"

# A valid 16x16x3 baseline config that trains one step.
VALID_CONFIG = {"variant": "baseline", "input_size": "16x16x3", "c": 4, "max_steps": 1,
                "dataset": {"synthetic": {"count": 4}}}


def _checkout_env():
    """The environment for a child Python process that imports this checkout's dscjscc first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVariantsCommand:
    def test_lists_eleven_rows(self, capsys):
        code, out, _ = run_cli(capsys, "variants")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 11

    def test_contains_e2d2_row(self, capsys):
        _, out, _ = run_cli(capsys, "variants")
        assert "dsc-jscc-60-e2d2: enc Conv,DSConv,DSConv,DSConv,Conv" in out

    def test_stable_ordering(self, capsys):
        _, out1, _ = run_cli(capsys, "variants")
        _, out2, _ = run_cli(capsys, "variants")
        assert out1 == out2

    def test_matches_golden(self, capsys):
        _, out, _ = run_cli(capsys, "variants")
        assert out == (GOLDEN / "variants.txt").read_text()


class TestAnalyzeCommand:
    def test_single_variant_summary(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--variant", "baseline",
                               "--input", "256x256x3", "--c", "8")
        assert code == 0
        assert "143.7 K / 832.4 M" in out

    def test_all_matches_golden(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--all")
        assert out == (GOLDEN / "analyze_all.txt").read_text()

    def test_all_is_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "--all")
        _, out2, _ = run_cli(capsys, "analyze", "--all")
        assert out1 == out2

    @pytest.mark.parametrize("pair, reduction", [
        (("baseline", "dsc-jscc-60-e1d1"), "params -62.7%, flops -46.0%"),
        (("dsc-jscc-60-e1d1", "dsc-jscc-60-e2d2"), "params -52.6%, flops -54.2%"),
    ], ids=["baseline-e1d1", "e1d1-e2d2"])
    def test_compare_reductions(self, capsys, pair, reduction):
        _, out, _ = run_cli(capsys, "analyze", "--variant", pair[0], "--compare", pair[1])
        assert f"{pair[0]} -> {pair[1]}: {reduction}\n" in out

    def test_csv_output(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "analyze", "--all", "--out", str(dest))
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "variant,params,flops,params_display,flops_display"
        assert len(lines) == 12

    @pytest.mark.parametrize("extra", [(), ("--all",)], ids=["alone", "all"])
    def test_unknown_variant_fails(self, capsys, extra):
        code, _, err = run_cli(capsys, "analyze", "--variant", "dsc-jscc-999", *extra)
        assert code == 1
        assert "unknown variant" in err

    def test_malformed_input_size_fails_in_one_line(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "256x256")
        assert code == 1
        assert err.splitlines() == ["error: input size must look like 256x256x3, got '256x256'"]

    def test_unknown_flag_fails_loudly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus"])
        assert exc.value.code == 2


class TestConfigParsing:
    def test_input_size(self):
        assert parse_input_size("256x256x3") == (256, 256, 3)
        with pytest.raises(ConfigError):
            parse_input_size("256x256")

    def test_rho_fraction_and_decimal(self, tmp_path):
        cfg = tmp_path / "c.json"
        for size, rho, parsed in [("256x256x3", "1/12", Fraction(1, 12)), ("32x32x3", 0.25, Fraction(1, 4))]:
            cfg.write_text(json.dumps({"variant": "baseline", "input_size": size, "rho": rho}))
            assert parse_config(cfg).architecture.rho == parsed

    def test_bandwidth_from_rho(self):
        arch = derive_bandwidth(VariantId.BASELINE, (256, 256, 3), rho=Fraction(1, 12))
        assert (arch.k, arch.channel_count) == (16384, 8)

    def test_bandwidth_from_c(self):
        arch = derive_bandwidth(VariantId.BASELINE, (32, 32, 3), c=8)
        assert (arch.k, arch.channel_count, arch.rho) == (256, 8, Fraction(1, 12))

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ConfigError, match="implies c="):
            derive_bandwidth(VariantId.BASELINE, (256, 256, 3), rho=Fraction(1, 12), c=4)

    def test_consistent_pair_accepted(self):
        arch = derive_bandwidth(VariantId.BASELINE, (256, 256, 3), rho=Fraction(1, 12), c=8)
        assert (arch.k, arch.channel_count) == (16384, 8)

    def test_rho_without_whole_c_rejected(self):
        # 1/10 of 768 values is 76.8 symbols; the derived c=9 sends 72, which is rho=3/32.
        with pytest.raises(ConfigError, match="rho=1/10 .*rho=3/32"):
            derive_bandwidth(VariantId.BASELINE, (16, 16, 3), rho=Fraction(1, 10))

    def test_c_whose_weights_exceed_memory_rejected(self):
        # 10**12 latent channels need terabytes of weights: rejected from the layer shapes, before any allocation
        with pytest.raises(ConfigError, match="c is too large to build the model: c=1000000000000 needs"):
            derive_bandwidth(VariantId.BASELINE, (16, 16, 3), c=10 ** 12)

    def test_neither_given_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            derive_bandwidth(VariantId.BASELINE, (32, 32, 3))

    def test_config_resolves_to_one_architecture(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"variant": "dsc-jscc-100", "input_size": "16x16x3", "rho": "1/24"}))
        parsed = parse_config(cfg)
        assert parsed.variant is VariantId.R100
        assert parsed.architecture == build_variant_architecture(VariantId.R100, (16, 16, 3), 4)
        assert not {"input_shape", "c", "k", "rho"} & set(vars(parsed))

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"c": 8, "learning_rte": 0.1}))
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_config(cfg)

    def test_defaults_match_published_setup(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"c": 8}))
        parsed = parse_config(cfg)
        assert parsed.learning_rate == 0.001
        assert parsed.batch_size == 32
        assert parsed.epochs == 20

    def test_infinite_snr_values_accepted(self, tmp_path):
        # An infinite train SNR is the noiseless channel; an integer too large
        # for a float reads as an infinity instead of overflowing.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"c": 8, "train_snr_db": math.inf, "snr_list": [10 ** 400, 5]}))
        parsed = parse_config(cfg)
        assert parsed.train_snr_db == math.inf
        assert parsed.snr_list == (math.inf, 5.0)

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"c": 8, "seed": 5}))
        parsed = parse_config(cfg, {"seed": 9})
        assert parsed.seed == 9

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_readme_example_config(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```json\n")[1:]
        assert len(blocks) == 1
        cfg = tmp_path / "readme.json"
        cfg.write_text(blocks[0].split("```")[0])
        parsed = parse_config(cfg)
        assert parsed.architecture == build_variant_architecture(VariantId.R60_E2D2, (32, 32, 3), 8)
        assert parsed.max_steps == 200


@pytest.fixture()
def desk_config(tmp_path):
    cfg = {
        "variant": "dsc-jscc-100",
        "input_size": "16x16x3",
        "c": 4,
        "train_snr_db": 10.0,
        "snr_list": [0, 10, 19],
        "batch_size": 8,
        "epochs": 50,
        "max_steps": 6,
        "dataset": {"synthetic": {"count": 8, "seed": 3}},
        "seed": 1,
        "out_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "run"


class TestTrainEvalCommands:
    def test_train_writes_outputs_and_echoes_bandwidth(self, capsys, desk_config):
        cfg, out_dir = desk_config
        code, out, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        assert "k=32 c=4 rho=1/24" in out
        assert (out_dir / "checkpoint.dscj").exists()
        csv = (out_dir / "loss_history.csv").read_text()
        assert csv.startswith("step,epoch,loss,loss_sample_sum\n")
        assert len(csv.strip().split("\n")) == 7

    def test_train_then_eval_sweep(self, capsys, desk_config):
        cfg, out_dir = desk_config
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg),
                               "--snr-list", "0,5,10,15,19")
        assert code == 0
        sweep = (out_dir / "sweep.csv").read_text()
        assert sweep.startswith("snr_db,mean_psnr_db,std_psnr_db,n_images,n_draws\n")
        assert len(sweep.strip().split("\n")) == 6

    def test_rerun_same_seed_identical_csvs(self, capsys, desk_config, tmp_path):
        cfg, out_dir = desk_config
        run_cli(capsys, "train", "--config", str(cfg))
        run_cli(capsys, "eval", "--config", str(cfg))
        loss1 = (out_dir / "loss_history.csv").read_bytes()
        sweep1 = (out_dir / "sweep.csv").read_bytes()
        other = tmp_path / "run2"
        run_cli(capsys, "train", "--config", str(cfg), "--out", str(other))
        run_cli(capsys, "eval", "--config", str(cfg), "--out", str(other))
        assert (other / "loss_history.csv").read_bytes() == loss1
        assert (other / "sweep.csv").read_bytes() == sweep1

    def test_missing_dataset_path_nonzero_exit(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"c": 4, "input_size": "16x16x3",
                                   "dataset": {"path": str(tmp_path / "absent")},
                                   "out_dir": str(tmp_path)}))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert "not a directory" in err

    def test_corrupted_checkpoint_nonzero_exit(self, capsys, desk_config):
        cfg, out_dir = desk_config
        run_cli(capsys, "train", "--config", str(cfg))
        ckpt = out_dir / "checkpoint.dscj"
        raw = bytearray(ckpt.read_bytes())
        raw[:4] = b"XXXX"
        ckpt.write_bytes(bytes(raw))
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 1
        assert "magic" in err

    def test_incomplete_checkpoint_header_nonzero_exit(self, capsys, desk_config):
        cfg, out_dir = desk_config
        run_cli(capsys, "train", "--config", str(cfg))
        rewrite_header(out_dir / "checkpoint.dscj", lambda h: h.pop("architecture"))
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "architecture" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["architecture"]["encoder"][1].update(stride=0), "stride"),
        (lambda h: h.update(rho="1/0"), "rho"),
        (lambda h: h.update(power=math.nan), "power"),
        (lambda h: h.update(power=-1.0), "power"),
    ], ids=["stride-0", "rho-1-over-0", "power-nan", "power-negative"])
    def test_bad_checkpoint_value_nonzero_exit(self, capsys, desk_config, edit, message):
        cfg, out_dir = desk_config
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        rewrite_header(out_dir / "checkpoint.dscj", edit)
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,message", [
        ("max_steps", "ten", "max_steps"),
        ("max_steps", True, "max_steps"),
        ("snr_list", 5, "snr_list"),
        ("input_size", "0x0x3", "input size"),
        ("dataset", 5, "dataset must be an object"),
        ("dataset", {"synthetic": 5}, "dataset.synthetic must be an object"),
        ("dataset", {"path": 5}, "dataset.path"),
        ("batch_size", True, "batch_size"),
        ("epochs", True, "epochs"),
        ("seed", True, "seed"),
        ("dataset", {"synthetic": {"count": True}}, "dataset.synthetic.count"),
        ("learning_rate", [1], "learning_rate"),
        ("learning_rate", True, "learning_rate"),
        ("learning_rate", math.nan, "learning_rate"),
        pytest.param("learning_rate", 10 ** 400, "learning_rate", id="learning_rate-huge-int"),
        ("train_snr_db", math.nan, "train_snr_db"),
        ("power", True, "power"),
        ("checkpoint", 5, "checkpoint"),
        ("out_dir", 5, "out_dir"),
        ("snr_list", [math.nan], "snr_list"),
        pytest.param("rho", True, "rho", id="rho-true"),
        pytest.param("rho", [1], "rho", id="rho-list"),
        pytest.param("rho", "1/0", "rho", id="rho-1-over-0"),
        pytest.param("dataset", {"synthetic": {"cnt": 4}}, "dataset.synthetic.cnt",
                     id="dataset-synthetic-unknown-key"),
        pytest.param("dataset", {"synthetic": {"count": 4}, "bogus": 1}, "dataset.bogus",
                     id="dataset-unknown-key"),
        pytest.param("dataset", {"path": "x", "synthetic": {"count": 4}}, "exactly one",
                     id="dataset-path-and-synthetic"),
        pytest.param("snr_list", [], "snr_list", id="snr_list-empty"),
        pytest.param("c", 10 ** 400, "c is too large", id="c-huge-int"),
        pytest.param("input_size", "16x8x3", "square", id="input_size-not-square"),
        pytest.param("train_snr_db", -4000, "train_snr_db -4000.0 has no channel", id="train_snr_db-minus-4000"),
        pytest.param("train_snr_db", -math.inf, "train_snr_db -inf has no channel", id="train_snr_db-minus-inf"),
        pytest.param("snr_list", [5, -4000], "snr_list -4000.0 has no channel", id="snr_list-minus-4000"),
        pytest.param("snr_list", [-math.inf], "snr_list -inf has no channel", id="snr_list-minus-inf"),
        # 10**12 16x16 images need 6 PB: rejected from the count, before any allocation
        pytest.param("dataset", {"synthetic": {"count": 10 ** 12}}, "dataset.synthetic.count=1000000000000 needs",
                     id="dataset-synthetic-count-huge"),
    ])
    def test_malformed_config_value_nonzero_exit(self, capsys, tmp_path, key, value, message):
        cfg = {**VALID_CONFIG, "out_dir": str(tmp_path / "run")}
        if key == "rho":
            del cfg["c"]  # exactly one of rho / c
        cfg[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("variant", "baseline"),
        ("input_size", "32x32x3"),
        ("c", 8),
        ("rho", "1/12"),
        ("power", 2.0),
    ])
    def test_eval_of_checkpoint_that_disagrees_with_config_nonzero_exit(self, capsys, desk_config,
                                                                        key, value):
        cfg, out_dir = desk_config
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        other = json.loads(cfg.read_text())
        if key == "rho":
            del other["c"]  # exactly one of rho / c
        other[key] = value
        cfg.write_text(json.dumps(other))
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"error: checkpoint {out_dir / 'checkpoint.dscj'} holds dsc-jscc-100 at ")
        assert "but the config gives" in err and err.count("\n") == 1
        assert not (out_dir / "sweep.csv").exists()

    def test_nan_snr_flag_nonzero_exit(self, capsys, desk_config):
        cfg, out_dir = desk_config
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--snr-list", "nan,5")
        assert code == 1
        assert err.startswith("error:") and "snr_list" in err and err.count("\n") == 1
        assert not (out_dir / "sweep.csv").exists()

    def test_non_number_snr_flag_nonzero_exit(self, capsys, desk_config):
        code, _, err = run_cli(capsys, "eval", "--config", str(desk_config[0]), "--snr-list", "a,5")
        assert code == 1
        assert err.startswith("error:") and "snr_list" in err and err.count("\n") == 1

    @pytest.mark.parametrize("snrs", ["-4000", "5,-inf"])
    def test_snr_flag_with_no_channel_nonzero_exit(self, capsys, desk_config, snrs):
        code, _, err = run_cli(capsys, "eval", "--config", str(desk_config[0]), f"--snr-list={snrs}")
        assert code == 1
        assert err.startswith("error: snr_list -") and "has no channel" in err and err.count("\n") == 1

    def test_checkpoint_with_a_layer_output_below_one_pixel_nonzero_exit(self, capsys, tmp_path):
        ckpt = tmp_path / "collapsed.dscj"
        save_collapsed_codec(ckpt)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**VALID_CONFIG, "input_size": "8x8x3", "checkpoint": str(ckpt)}))
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"error: {ckpt}: enc0 maps 8x8 to 0x0") and err.count("\n") == 1

    @pytest.mark.parametrize("text,message", [
        ('{"c": 4,', "is not valid JSON"),
        ('[{"c": 4}]', "config root must be a JSON object"),
        (json.dumps({k: v for k, v in VALID_CONFIG.items() if k != "dataset"}), "config has no dataset section"),
    ], ids=["invalid-json", "root-not-an-object", "no-dataset-section"])
    def test_config_file_that_gives_no_run_nonzero_exit(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_encoder_output_whose_norm_overflows_nonzero_exit(self, capsys, tmp_path):
        # at this rate Adam sends the encoder output past 1e154 within a few steps, and its square overflows
        cfg = {"variant": "baseline", "input_size": "16x16x3", "c": 4, "learning_rate": 1e20,
               "dataset": {"synthetic": {"count": 8}}, "out_dir": str(tmp_path / "run")}
        path = tmp_path / "lr.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 1
        assert err == "error: power_normalize: input norm is not finite at step 2 (epoch 2, lr 1e+20)\n"
        assert not (tmp_path / "run" / "checkpoint.dscj").exists()

    def test_diverging_run_prints_only_its_error_line(self, tmp_path):
        # at lr 1e30 matmuls overflow before the encoder's norm turns non-finite; run in a process of
        # its own, under Python's default warning filters, stderr must hold the one error line alone
        cfg = {"variant": "dsc-jscc-100", "input_size": "16x16x3", "c": 4, "learning_rate": 1e30,
               "batch_size": 8, "dataset": {"synthetic": {"count": 8, "seed": 3}}, "seed": 1,
               "out_dir": str(tmp_path / "run")}
        path = tmp_path / "lr.json"
        path.write_text(json.dumps(cfg))
        env = _checkout_env()
        env.pop("PYTHONWARNINGS", None)
        run = subprocess.run([sys.executable, "-m", "dscjscc.cli", "train", "--config", str(path)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert run.stderr == "error: power_normalize: input norm is not finite at step 2 (epoch 2, lr 1e+30)\n"

    def test_weight_beyond_float32_range_nonzero_exit(self, capsys, tmp_path):
        # one step at lr 1e39 leaves weights that float32 cannot hold; such a checkpoint would load as inf
        cfg = {"variant": "dsc-jscc-100", "input_size": "16x16x3", "c": 4, "learning_rate": 1e39,
               "max_steps": 1, "epochs": 1, "dataset": {"synthetic": {"count": 4}},
               "out_dir": str(tmp_path / "run")}
        path = tmp_path / "lr.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "'enc0.dw_weight'" in err and err.count("\n") == 1
        assert caught == []
        assert not (tmp_path / "run" / "checkpoint.dscj").exists()

    def test_draws_beyond_memory_nonzero_exit(self, capsys, desk_config):
        # a subprocess with a timeout, so that a sweep that starts drawing fails the test instead of hanging it
        cfg, out_dir = desk_config
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        huge = cfg.parent / "huge.json"
        huge.write_text(json.dumps({**json.loads(cfg.read_text()), "draws_per_image": 10 ** 12}))
        run = subprocess.run([sys.executable, "-m", "dscjscc.cli", "eval", "--config", str(huge)],
                             env=_checkout_env(), capture_output=True, text=True, timeout=20)
        assert run.returncode == 1
        assert run.stderr.startswith("error: draws_per_image=1000000000000 needs") and run.stderr.count("\n") == 1
        assert not (out_dir / "sweep.csv").exists()

    @pytest.mark.parametrize("key, path", [("out_dir", "afile/run"), ("checkpoint", "afile/c.dscj")])
    def test_train_to_unusable_path_fails_before_training(self, capsys, desk_config, monkeypatch, key, path):
        cfg, _ = desk_config
        (cfg.parent / "afile").write_text("")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: str(cfg.parent / path)}))
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert calls == []

    def test_eval_to_unusable_out_dir_fails_before_the_sweep(self, capsys, desk_config, monkeypatch):
        cfg, out_dir = desk_config
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        (cfg.parent / "afile").write_text("")
        calls = []
        monkeypatch.setattr(cli, "evaluate_sweep", lambda *args, **kwargs: calls.append(args))
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--out", str(cfg.parent / "afile" / "run"),
                               "--checkpoint", str(out_dir / "checkpoint.dscj"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert calls == []

    def test_train_makes_the_checkpoint_directory(self, capsys, desk_config):
        cfg, _ = desk_config
        ckpt = cfg.parent / "missing" / "dir" / "c.dscj"
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "checkpoint": str(ckpt)}))
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        assert ckpt.exists()

    def test_training_error_nonzero_exit(self, capsys, desk_config, monkeypatch):
        def diverge(*_args):
            raise TrainingError("non-finite loss nan at step 0")
        monkeypatch.setattr(cli, "train", diverge)
        code, _, err = run_cli(capsys, "train", "--config", str(desk_config[0]))
        assert code == 1
        assert err == "error: non-finite loss nan at step 0\n"

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("variants", "analyze", "train", "eval"):
            assert cmd in out


# Every key a config may hold, as a path into the config's nested sections.
CONFIG_KEYS = [(key,) for key in (
    "variant", "input_size", "rho", "c", "power", "train_snr_db", "snr_list", "learning_rate",
    "batch_size", "epochs", "max_steps", "dataset", "seed", "out_dir", "checkpoint",
    "draws_per_image")] + [("dataset", "path"), ("dataset", "synthetic"),
                           ("dataset", "synthetic", "count"), ("dataset", "synthetic", "seed")]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 400, -10 ** 400])
    | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=8)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(CONFIG_KEYS), value=JSON_VALUES)
def test_fuzzed_config_value_parses_or_raises_value_error(tmp_path, where, value):
    cfg = copy.deepcopy(VALID_CONFIG)
    section = cfg
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = value
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    try:
        parsed = parse_config(path)
    except ValueError:
        return
    assert isinstance(parsed, ExperimentConfig)
    ints = [parsed.architecture.channel_count, parsed.architecture.k, parsed.batch_size,
            parsed.epochs, parsed.seed, parsed.draws_per_image]
    if parsed.max_steps is not None:
        ints.append(parsed.max_steps)
    if parsed.dataset is not None and parsed.dataset["synthetic"] is not None:
        ints += [v for v in parsed.dataset["synthetic"].values() if v is not None]
    assert all(type(v) is int for v in ints), ints


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets glibc's malloc")
def test_main_keeps_freed_memory_for_reuse():
    # after main's set-up a second 2 MiB array takes the first one's pages
    # back, where glibc would grow its heap into fresh ones and fault each in
    # (numpy asks for huge pages only from 4 MiB); run in a process of its
    # own, as the setting is process-wide
    code = """if True:
        import resource
        import numpy as np
        from dscjscc import cli
        cli._keep_freed_memory()
        def faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            np.ones(1 << 18)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        faults()
        print(faults())
    """
    out = subprocess.run([sys.executable, "-c", code], env=_checkout_env(), capture_output=True, text=True, check=True)
    assert int(out.stdout) < 128  # 2 MiB of fresh 4 KiB pages is 512 faults
