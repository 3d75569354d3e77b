"""The suite's own pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # every warning is an error, and hypothesis's failure report once raised
    # mypy_extensions' DeprecationWarning inside a pytest hook: pytest then
    # stopped with INTERNALERROR, and the tests after the failure never ran
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_failing.py::test_fails" in out
    assert "1 failed, 1 passed" in out
