import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # Under the repository's warnings-as-errors setting, hypothesis's explain
    # phase once raised a third-party DeprecationWarning inside a report hook,
    # and pytest printed an INTERNALERROR instead of the falsifying example.
    (tmp_path / "test_always_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_always_fails.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output


SKIPPING = """\
import pytest


def test_skips():
    pytest.skip("no oracle here")


@pytest.mark.skipif(True, reason="never runs")
def test_marked_skip():
    pass


@pytest.mark.xfail(reason="expected to fail")
def test_unexpectedly_passes():
    pass


@pytest.mark.xfail(reason="expected to fail")
def test_expected_failure():
    assert False


def test_passes():
    pass
"""

SKIPPING_MODULE = """\
import pytest

pytest.importorskip("a_module_that_is_not_installed")


def test_never_collected():
    pass
"""


def test_skipping_test_fails_the_run(tmp_path):
    # an oracle that always skips checks nothing, so the repository's
    # configuration turns every skip into a failure, and an unexpected pass
    # of an xfail test too
    (tmp_path / "test_skipping.py").write_text(SKIPPING)
    (tmp_path / "test_skipping_module.py").write_text(SKIPPING_MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "--continue-on-collection-errors",
         "test_skipping.py", "test_skipping_module.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    summary = output.strip().splitlines()[-1]
    assert "skipped" not in summary, output
    assert "1 passed" in summary and "1 xfailed" in summary, output
    assert "FAILED test_skipping.py::test_skips - skipped, and a skip fails" in output, output
    assert "ERROR test_skipping.py::test_marked_skip - skipped, and a skip fails" in output, output
    assert "FAILED test_skipping.py::test_unexpectedly_passes" in output, output
    assert "ERROR test_skipping_module.py - skipped, and a skip fails" in output, output
