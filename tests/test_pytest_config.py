"""The suite's pytest configuration reports every test, even after a
hypothesis test fails."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Reporting a hypothesis failure emits a DeprecationWarning (from
    # mypy_extensions); with every warning an error, pytest used to stop
    # with an INTERNALERROR and lose the result of the test after it.
    (tmp_path / "test_probe.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    lines = run.stdout.strip().splitlines()
    assert lines and "1 failed, 1 passed" in lines[-1], run.stdout + run.stderr
