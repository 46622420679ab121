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
