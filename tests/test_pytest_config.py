"""The project's pytest settings, run on a throwaway test file: a failing
property test reports its falsifying example, and a warning still fails a
test."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_TESTS = textwrap.dedent("""\
    import warnings

    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_property_fails(x):
        assert x < 5


    def test_warning_fails():
        warnings.warn("overflow", RuntimeWarning)
    """)


def test_failing_property_reports_its_example(tmp_path):
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "2 failed" in out, out
