"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.platform.examples import figure2_platform
from repro.platform.io import save_platform


@pytest.fixture
def plat_file(tmp_path):
    path = str(tmp_path / "fig2.json")
    save_platform(figure2_platform(), path)
    return path


class TestScatterCommand:
    def test_basic(self, plat_file, capsys):
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TP = 1/2" in out

    def test_with_schedule_and_sim(self, plat_file, capsys):
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1", "--schedule", "--simulate",
                   "--periods", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "period =" in out and "correct=True" in out

    @pytest.mark.parametrize("engine", ["auto", "compiled", "reference"])
    def test_sim_engine_flag(self, plat_file, capsys, engine):
        pytest.importorskip("numpy")
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1", "--schedule", "--simulate",
                   "--periods", "20", "--sim-engine", engine])
        out = capsys.readouterr().out
        assert rc == 0
        # scatter is pure communication, so auto routes to the compiled
        # engine; the banner names whichever engine actually replayed it
        ran = "reference" if engine == "reference" else "compiled"
        assert f"correct=True [{ran} engine]" in out


class TestReduceCommand:
    def test_triangle(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "fig6.json")
        save_platform(figure6_platform(), path)
        rc = main(["reduce", "--platform", path, "--participants", "0,1,2",
                   "--target", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TP = 1" in out and "reduction tree" in out


class TestGossipCommand:
    def test_one_source_gossip_matches_scatter(self, plat_file, capsys):
        rc = main(["gossip", "--platform", plat_file, "--sources", "Ps",
                   "--targets", "Ps,P0,P1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TP = 1/2" in out

    def test_gossip_schedule_and_sim(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        rc = main(["gossip", "--platform", path, "--sources", "0,1,2",
                   "--targets", "0,1,2", "--schedule", "--simulate",
                   "--periods", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "period =" in out and "correct=True" in out


class TestPrefixCommand:
    def test_triangle(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        rc = main(["prefix", "--platform", path, "--participants", "0,1,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TP =" in out and "send rates" in out


class TestReduceScatterCommand:
    def test_triangle(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        rc = main(["reduce-scatter", "--platform", path,
                   "--participants", "0,1,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TP =" in out and "block 0" in out and "block 2" in out

    def test_with_schedule_and_sim(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        rc = main(["reduce-scatter", "--platform", path,
                   "--participants", "0,1,2", "--schedule", "--simulate",
                   "--periods", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "period =" in out and "correct=True" in out


class TestCollectivesCommand:
    def test_lists_all_registered(self, capsys):
        assert main(["collectives"]) == 0
        out = capsys.readouterr().out
        for name in ("scatter", "reduce", "gossip", "prefix",
                     "reduce-scatter"):
            assert name in out
        assert "registered collectives" in out


class TestDemoCommand:
    """Every demo subcommand runs clean (the registry acceptance bar)."""

    def test_fig2(self, capsys):
        assert main(["demo", "fig2"]) == 0
        assert "paper: 1/2" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["demo", "fig6"]) == 0
        assert "paper: 1" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["demo", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "Tiers platform reduce" in out and "tree (weight" in out

    def test_reduce_scatter(self, capsys):
        assert main(["demo", "reduce-scatter"]) == 0
        out = capsys.readouterr().out
        assert "Reduce-scatter" in out and "block 0" in out
        assert "period =" in out

    def test_broadcast(self, capsys):
        assert main(["demo", "broadcast"]) == 0
        out = capsys.readouterr().out
        assert "TP = 7/12" in out and "arborescence" in out

    def test_all_gather(self, capsys):
        assert main(["demo", "all-gather"]) == 0
        out = capsys.readouterr().out
        assert "All-gather" in out and "period =" in out

    def test_unknown_demo_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["demo", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestLpStatsFlag:
    def test_revised_backend_prints_counters(self, plat_file, capsys):
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1", "--backend", "revised",
                   "--lp-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "solver stats: revised-simplex" in out
        assert "pivots:" in out and "refactorization" in out

    def test_tableau_backend_reports_var_counts_only(self, plat_file,
                                                     capsys):
        """The tableau oracle records no engine counters, but every
        dispatched solve stamps the raw/presolved variable counts."""
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1", "--backend", "tableau",
                   "--lp-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "solver stats: exact-simplex" in out
        assert "after presolve" in out
        assert "no engine counters recorded" in out

    def test_highs_prints_the_certificate(self, plat_file, capsys):
        from repro.lp import dispatch

        dispatch.clear_cache()
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1", "--backend", "highs",
                   "--lp-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "route: highs (backend='highs')\n    certificate: proved" \
            in out

    def test_highs_prints_why_uncertified(self, plat_file, capsys,
                                          monkeypatch):
        from repro.lp import dispatch

        dispatch.clear_cache()
        monkeypatch.setattr(dispatch, "_certify_snaps",
                            lambda sol: (None, "gap: dual bound 1 != 0"))
        rc = main(["scatter", "--platform", plat_file, "--source", "Ps",
                   "--targets", "P0,P1", "--backend", "highs",
                   "--lp-stats"])
        out = capsys.readouterr().out
        dispatch.clear_cache()
        assert rc == 0
        assert "uncertified: gap: dual bound 1 != 0" in out

    def test_colgen_prints_the_pricing_split(self, tmp_path, capsys):
        """A reduce-scatter on colgen: every block by the tree DP."""
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        rc = main(["reduce-scatter", "--platform", path,
                   "--participants", "0,1,2", "--backend", "colgen",
                   "--lp-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 block(s)" in out
        assert ("pricing: 0 by shortest path, 3 by reduction-tree DP, "
                "LP for 0 without a descriptor and 0 declined") in out
        # pricing is serial: seconds, no job count or speedup
        assert re.search(r"\n    time: master \d+\.\d{3}s \(\d+ pivots\), "
                         r"pricing \d+\.\d{3}s\n", out)
        assert "job" not in out

    def test_jobs_flag_rejected_by_argparse(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        with pytest.raises(SystemExit):
            main(["reduce-scatter", "--platform", path,
                  "--participants", "0,1,2", "--backend", "colgen",
                  "--jobs", "2"])
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_colgen_direct_fallback_prints_why(self, tmp_path, capsys):
        """A one-edge scatter LP has no block rows, so colgen falls back
        to one direct exact solve and says so."""
        from repro.platform.generators import complete

        path = str(tmp_path / "pair.json")
        save_platform(complete(2, cost=1), path)
        rc = main(["scatter", "--platform", path, "--source", "p0",
                   "--targets", "p1", "--backend", "colgen", "--lp-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no column generation (no blocks)" in out

    def test_composite_prints_per_stage(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform

        path = str(tmp_path / "tri.json")
        save_platform(figure6_platform(), path)
        rc = main(["all-reduce", "--platform", path,
                   "--participants", "0,1,2", "--backend", "revised",
                   "--lp-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage 0 (reduce-scatter)" in out
        assert "stage 1 (all-gather)" in out


class TestCacheCommand:
    def test_info_disabled(self, capsys, monkeypatch):
        from repro.lp import diskcache

        monkeypatch.setattr(diskcache, "_cache_dir", None)
        monkeypatch.setattr(diskcache, "_env_checked", True)
        assert main(["cache", "info"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_info_and_clear_with_dir(self, tmp_path, plat_file, capsys,
                                     monkeypatch):
        from repro.lp import diskcache
        from repro.lp.dispatch import clear_cache

        cache_dir = str(tmp_path / "lpcache")
        diskcache.set_cache_dir(cache_dir)
        clear_cache()
        try:
            main(["scatter", "--platform", plat_file, "--source", "Ps",
                  "--targets", "P0,P1"])
            capsys.readouterr()
            assert main(["cache", "info", "--dir", cache_dir]) == 0
            out = capsys.readouterr().out
            assert "1 entries" in out
            assert main(["cache", "clear", "--dir", cache_dir]) == 0
            assert "removed 1" in capsys.readouterr().out
        finally:
            diskcache.set_cache_dir(None)
            clear_cache()


class TestTuneCommand:
    def test_single_instance_gap_table(self, plat_file, capsys):
        rc = main(["tune", "--platform", plat_file,
                   "--collective", "scatter",
                   "--source", "Ps", "--targets", "P0,P1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "direct-scatter" in out
        assert "exact" in out and "MISMATCH" not in out
        assert "largest gap" in out

    def test_reduce_scatter_instance(self, tmp_path, capsys):
        from repro.platform.examples import figure6_platform
        from repro.platform.io import save_platform

        path = str(tmp_path / "fig6.json")
        save_platform(figure6_platform(), path)
        rc = main(["tune", "--platform", path,
                   "--collective", "reduce-scatter",
                   "--participants", "0,1,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ring-reduce-scatter" in out
        assert "2.00x" in out  # fig6 gap: LP 1/2 vs ring baseline 1/4

    def test_zoo_smoke_runs_clean(self, capsys):
        rc = main(["tune"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baseline runs" in out
        assert "MISMATCH" not in out
