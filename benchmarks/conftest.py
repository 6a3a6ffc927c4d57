"""Benchmark harness support.

Every benchmark appends paper-vs-measured rows via the ``report`` fixture;
they are printed in the terminal summary so that
``pytest benchmarks/ --benchmark-only`` shows both the timing table and the
paper-vs-measured reproduction record.
"""

from __future__ import annotations

from typing import List

import pytest

_REPORT: List[str] = []


class Reporter:
    def __init__(self, title: str) -> None:
        self.title = title
        self.rows: List[str] = []

    def row(self, label: str, paper: object, measured: object,
            note: str = "") -> None:
        line = f"  {label:<44} paper: {str(paper):<14} measured: {str(measured):<18}"
        if note:
            line += f" [{note}]"
        self.rows.append(line)

    def line(self, text: str) -> None:
        self.rows.append("  " + text)


@pytest.fixture
def report(request):
    rep = Reporter(request.node.nodeid)
    yield rep
    _REPORT.append("")
    _REPORT.append(f"== {rep.title}")
    _REPORT.extend(rep.rows)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line("REPRODUCTION RECORD (paper artifact vs this run)")
    terminalreporter.write_line("=" * 78)
    for line in _REPORT:
        terminalreporter.write_line(line)
