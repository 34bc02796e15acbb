"""The suite's own settings: a failing test is reported, and the run goes on."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # hypothesis prints an @example patch for a failing @given test, and the
    # import behind it warned, which filterwarnings = error made an INTERNALERROR
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1 and "1 failed, 1 passed" in result.stdout, result.stdout
