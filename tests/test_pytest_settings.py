"""The suite's own pytest settings: a failing test never stops the session."""

import os
import subprocess
import sys
from pathlib import Path

_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_leaves_the_later_tests_running(tmp_path):
    # pyproject.toml turns warnings into errors; a warning raised while
    # hypothesis reports its failing example must not end the session there
    (tmp_path / "test_pair.py").write_text(_PAIR)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTEST_")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
