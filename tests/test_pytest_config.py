"""The repository's pytest configuration turns warnings into errors but
still reports a failing hypothesis test as one failure: on a failure,
hypothesis's plugin imports libcst, whose import raises
mypy_extensions' `TypedDict` DeprecationWarning inside the report hook,
and as an error that ended the whole session (INTERNALERROR, exit 3)."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


def test_plain_failure():
    assert 1 == 2


@settings(database=None, derandomize=True)
@given(st.integers())
def test_given_failure(x):
    assert x < 0


def test_after_the_failures():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "PASSED test_probe.py::test_after_the_failures" in out.stdout
    assert "2 failed, 1 passed" in out.stdout
