"""Unit tests for text reporting (tables, gantt, dot)."""

import pytest

from repro.collectives import schedule_collective
from repro.platform.examples import figure2_platform, figure9_platform
from repro.viz.dot import platform_to_dot
from repro.viz.gantt import ascii_gantt
from repro.viz.tables import format_table


class TestTables:
    def test_alignment_and_rule(self):
        text = format_table(["a", "bee"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [[1]], title="T1")
        assert text.splitlines()[0] == "T1"

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_wide_cells_stretch_columns(self):
        text = format_table(["h"], [["wide-cell-content"]])
        assert "wide-cell-content" in text


class TestGantt:
    def test_fig2_gantt_has_all_edges(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        art = ascii_gantt(sched)
        for pair in ("Ps -> Pa", "Ps -> Pb", "Pa -> P0", "Pb -> P1"):
            assert pair in art
        assert "#" in art

    def test_gantt_mentions_period_and_throughput(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        art = ascii_gantt(sched)
        assert f"period = {sched.period}" in art

    def test_gantt_cpu_rows_for_reduce(self, fig6_solution):
        from repro.core.schedule import build_reduce_schedule

        art = ascii_gantt(build_reduce_schedule(fig6_solution))
        # the fixture solves with canonical=True, so the artifact is the
        # lex-smallest optimal vertex — stable under any pricing rule:
        # node 0 merges T(0,0,2) and node 2 merges T(1,1,2)
        busy = {h for (h, _t) in fig6_solution.cons}
        assert busy == {0, 2}
        for h in busy:
            assert f"cpu {h}" in art


class TestDot:
    def test_compute_nodes_shaded(self):
        dot = platform_to_dot(figure9_platform())
        assert dot.count("fillcolor=gray") == 8
        assert dot.startswith('digraph "figure9"')

    def test_symmetric_links_collapse(self):
        dot = platform_to_dot(figure9_platform())
        assert dot.count("dir=none") == 17

    def test_directed_platform_keeps_arrows(self):
        dot = platform_to_dot(figure2_platform())
        assert "dir=none" not in dot
