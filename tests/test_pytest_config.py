"""The repository's pytest configuration reports a failing Hypothesis test and runs the rest."""

import subprocess
import sys
from pathlib import Path

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # the failure report imports libcst, whose import-time warning `filterwarnings` must not turn fatal
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
