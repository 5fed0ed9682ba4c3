"""The suite's pytest settings let a failing property test fail like any
other test, so the tests after it still run.

``pyproject.toml`` turns every warning into an error.  When a ``@given``
test fails, hypothesis's report hook imports ``libcst``, which imports
``mypy_extensions.TypedDict`` and so raises a third-party
``DeprecationWarning``; as an error it ended the whole session in an
INTERNALERROR, with the tests after the failure never run.  The settings
ignore that one warning by its message.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_after_it():
    assert True
'''


def test_a_failing_property_test_leaves_the_run_going(tmp_path):
    cases = tmp_path / "test_cases.py"
    cases.write_text(CASES)
    # the project's settings, run in tmp_path so hypothesis writes its
    # database and patch there
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(cases)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output[-2000:]
