"""Shared pytest plumbing: the acceptance tests register one line per
criterion here so the summary is visible even with captured stdout."""

import gc

import pytest

CRITERION_LINES = []


def record_criterion_line(line: str):
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _unfreeze_after_test():
    """`cli.main` freezes the heap it finds; a test that calls it in-process
    hands those objects back to the collector afterwards."""
    yield
    gc.unfreeze()
