"""The repository's pytest configuration reports a failing property test as a failure.

`pyproject.toml` turns every warning into an error.  A failing hypothesis
test makes hypothesis's reporter import modules that warn on import; the
configuration must let that pass, or the pytest run ends in an INTERNALERROR
and the tests after the failure never run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10

def test_after_the_failure_runs():
    pass
"""


def test_failing_hypothesis_test_reports_as_one_failure(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
