"""The scripts in scripts/, run as a user runs them: in a subprocess, on the source tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_scripts_run_end_to_end(tmp_path):
    out = tmp_path / "desk"
    desk = run_script("run_desk_experiment.py", "--size", "16", "--c", "4", "--images", "4",
                      "--steps", "2", "--out", str(out), "--snr-list=-5,10", cwd=tmp_path)
    assert desk.returncode == 0, desk.stderr
    for name in ("train.json", "eval.json", "loss_history.csv", "sweep.csv", "checkpoint.dscj"):
        assert (out / name).is_file(), name
    # the sweep runs on held-out images: their own count and seed (the master seed 0 + 3)
    assert json.loads((out / "eval.json").read_text())["dataset"] == {"synthetic": {"count": 16, "seed": 3}}


# flag -> (a value the desk script must reject in one error line, a piece of that line)
_MALFORMED = {
    "--variant": ("bogus", "unknown variant 'bogus'"),
    "--size": ("18", "multiples of 4"),
    "--steps": ("0", "epochs must be an integer >= 1"),
    "--images": ("0", "dataset.synthetic.count must be an integer >= 1"),
    "--c": ("0", "c must be an integer >= 1"),
    "--train-snr": ("nan", "train_snr_db must be a number (not NaN)"),
    "--snr-list": ("0,a", "snr_list must be a non-empty list of numbers"),
    "--out": (os.devnull, "File exists"),
    "--snr-list=-inf": (None, "snr_list -inf has no channel"),  # argparse reads a separate -inf as a flag
}


@pytest.mark.parametrize("flag", _MALFORMED)
def test_desk_script_rejects_malformed_flag_in_one_line(tmp_path, flag):
    value, message = _MALFORMED[flag]
    result = run_script("run_desk_experiment.py", "--size", "16", "--c", "4", "--images", "4", "--steps", "1",
                        "--out", str(tmp_path / "desk"), flag, *([] if value is None else [value]), cwd=tmp_path)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], result.stderr
    assert "Traceback" not in result.stderr
    # every flag is checked before training, so no run is spent on a typo
    assert not (tmp_path / "desk" / "checkpoint.dscj").exists()
