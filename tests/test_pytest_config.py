"""The repo's pytest configuration reports a failing property test as a failure.

pyproject.toml turns DeprecationWarning into an error.  Hypothesis imports
libcst to explain a failure, and that import warns through
``mypy_extensions.TypedDict``; unless that one warning is ignored, the
error escapes the failure report and the whole run ends in INTERNALERROR.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
"""


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing_property.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
