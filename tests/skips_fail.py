"""Pytest plugin: a skipped test fails the run.

An oracle that always skips proves nothing, so a skip, whether from
`pytest.skip`, a `skipif` mark or a module-level `importorskip`, is reported
as a failure with its reason.  An expected failure (`xfail`) is left to
pytest, which `xfail_strict` makes fail when the test passes.
`pyproject.toml` loads this module with `-p skips_fail`.
"""

import pytest


def _fail_if_skipped(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        report.outcome = "failed"
        report.longrepr = f"skipped, and a skip fails the run: {report.longrepr}"
    return report


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    return _fail_if_skipped((yield))


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    return _fail_if_skipped((yield))
