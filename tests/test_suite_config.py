"""The suite's own pytest settings: a failing Hypothesis test fails alone.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When a
``@given`` test fails, Hypothesis's explain phase imports libcst, which warns
that ``mypy_extensions.TypedDict`` is deprecated; unfiltered, that error ends
the whole session with an INTERNALERROR and the tests after it never run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

REPRO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_repro.py").write_text(REPRO)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_repro.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
