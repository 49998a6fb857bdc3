"""The suite's own pytest settings: a failing test is reported, not fatal."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_does_not_abort_the_run(tmp_path):
    # under filterwarnings = error, a warning raised inside hypothesis's
    # report hook ended the run with INTERNALERROR and ran no later test
    (tmp_path / "test_probe.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(derandomize=True, database=None, max_examples=10)
            @given(st.integers(min_value=0))
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
