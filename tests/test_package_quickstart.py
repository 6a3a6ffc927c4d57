"""The package docstring's quickstart runs as written."""

import textwrap
from fractions import Fraction

import repro


def _quickstart_code() -> str:
    doc = repro.__doc__
    block = doc.split("Quickstart::", 1)[1]
    lines = []
    for line in block.splitlines()[1:]:
        if line.strip() and not line.startswith("    "):
            break  # first unindented line ends the literal block
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def test_quickstart_runs_and_reaches_paper_throughput():
    code = _quickstart_code()
    assert "solve_collective" in code and "simulate_collective" in code
    ns = {}
    exec(compile(code, "<repro quickstart>", "exec"), ns)
    assert ns["solution"].throughput == Fraction(1, 2)
    assert ns["schedule"].validate() == []
    assert ns["result"].correct
