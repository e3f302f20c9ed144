"""Shared test state: the acceptance suite registers per-criterion verdicts
here and the terminal summary prints one line per criterion.  The
``bind_everywhere`` fixture swaps a library function in every namespace."""

import sys

import pytest

acceptance_results: list = []  # (number, name, passed)


def pytest_terminal_summary(terminalreporter):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, ok in sorted(acceptance_results):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {name}")


@pytest.fixture
def bind_everywhere(monkeypatch):
    """bind(original, replacement): replace ``original`` in every sparsedom
    namespace that binds it, undone after the test."""
    def bind(original, replacement):
        for name, module in list(sys.modules.items()):
            if name == "sparsedom" or name.startswith("sparsedom."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, replacement)
    return bind
