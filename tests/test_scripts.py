"""The scripts in scripts/, run as a user runs them: in a subprocess, on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_scripts_run_end_to_end(tmp_path):
    table = run_script("make_complexity_table.py", cwd=tmp_path)
    assert table.returncode == 0, table.stderr
    assert table.stdout.startswith((ROOT / "tests" / "golden" / "analyze_all.txt").read_text())

    out = tmp_path / "desk"
    desk = run_script("run_desk_experiment.py", "--size", "16", "--c", "4", "--images", "4",
                      "--steps", "2", "--out", str(out), cwd=tmp_path)
    assert desk.returncode == 0, desk.stderr
    for name in ("loss_history.csv", "sweep.csv", "checkpoint.dscj"):
        assert (out / name).is_file(), name


def test_complexity_table_script_rejects_malformed_input_size(tmp_path):
    result = run_script("make_complexity_table.py", "--input", "256x256", cwd=tmp_path)
    assert result.returncode == 2
    assert "input size must look like 256x256x3" in result.stderr
    assert "Traceback" not in result.stderr
