"""The suite's pytest settings: a failing test hides none of the others."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_plain_test_after_it():
    pass
'''

DEPRECATED_CALL = '''
import warnings


def test_a_deprecation_warning():
    warnings.warn("old", DeprecationWarning)


def test_a_plain_test_after_it():
    pass
'''


@pytest.mark.parametrize(
    "probe", [FAILING_PROPERTY, DEPRECATED_CALL], ids=["failing-property", "deprecation-warning"]
)
def test_a_failing_test_is_followed_by_the_next(probe, tmp_path):
    # a DeprecationWarning raised by a test still fails it
    (tmp_path / "test_probe.py").write_text(probe)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
