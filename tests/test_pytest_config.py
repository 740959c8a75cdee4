"""The suite's pytest configuration (pyproject.toml) keeps every failure reportable.

filterwarnings turns warnings into errors.  A warning raised by a test plugin
while it reports a failure would then abort the whole session with an
INTERNALERROR, and the tests after the failing one would never run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1  # tests failed, as opposed to 3: internal error
    assert "1 failed, 1 passed" in out
