"""Unit tests for the Series-of-Scatters pipeline (Section 3)."""

from fractions import Fraction

import pytest

from repro.collectives import schedule_collective, solve_collective
from repro.core.scatter import ScatterProblem, build_scatter_lp
from repro.platform.generators import chain, random_connected, star
from repro.platform.graph import PlatformGraph


class TestProblemValidation:
    def test_source_must_exist(self, fig2):
        with pytest.raises(ValueError):
            ScatterProblem(fig2, "nope", ["P0"])

    def test_target_must_exist(self, fig2):
        with pytest.raises(ValueError):
            ScatterProblem(fig2, "Ps", ["nope"])

    def test_source_as_target_rejected(self, fig2):
        with pytest.raises(ValueError):
            ScatterProblem(fig2, "Ps", ["Ps", "P0"])

    def test_duplicate_target_rejected(self, fig2):
        with pytest.raises(ValueError):
            ScatterProblem(fig2, "Ps", ["P0", "P0"])

    def test_empty_targets_rejected(self, fig2):
        with pytest.raises(ValueError):
            ScatterProblem(fig2, "Ps", [])


class TestLPStructure:
    def test_no_reemission_variables(self, fig2_problem):
        lp = build_scatter_lp(fig2_problem)
        names = {v.name for v in lp.variables}
        # P0 never re-emits its own messages
        assert not any(n.startswith("send[P0->") and n.endswith("mP0]")
                       for n in names)

    def test_variable_count(self, fig2_problem):
        lp = build_scatter_lp(fig2_problem)
        # 5 edges x 2 types = 10, none excluded (targets have no out-edges
        # in fig2), plus TP
        assert lp.num_vars() == 11

    def test_tp_variable_exists(self, fig2_problem):
        lp = build_scatter_lp(fig2_problem)
        assert lp.get("TP") is not None


class TestFigure2:
    def test_throughput_matches_paper(self, fig2_solution):
        assert fig2_solution.throughput == Fraction(1, 2)

    def test_exact(self, fig2_solution):
        assert fig2_solution.exact

    def test_verify_clean(self, fig2_solution):
        assert fig2_solution.verify() == []

    def test_deliveries_equal_tp(self, fig2_solution):
        for k in ("P0", "P1"):
            delivered = sum(f for (i, j, kk), f in fig2_solution.send.items()
                            if j == k and kk == k)
            assert delivered == Fraction(1, 2)

    def test_m1_forced_through_pb(self, fig2_solution):
        # the only route to P1 goes through Pb
        for (path, w) in fig2_solution.paths["P1"]:
            assert path == ["Ps", "Pb", "P1"]

    def test_edge_occupation_within_one(self, fig2_solution):
        for (i, j), occ in fig2_solution.edge_occupation().items():
            assert 0 < occ <= 1

    def test_highs_backend_agrees(self, fig2_problem):
        sol = solve_collective(fig2_problem, backend="highs")
        assert abs(float(sol.throughput) - 0.5) < 1e-9


class TestSchedule:
    def test_schedule_valid(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        assert sched.validate() == []

    def test_ops_per_period_integral(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        opp = sched.ops_per_period()
        assert opp == int(opp) and opp >= 1

    def test_per_period_counts_match_tp(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        for item, count in sched.per_period.items():
            # each target receives TP * T messages per period, and relays
            # may add transit counts; delivery items match exactly
            assert count >= sched.ops_per_period()

    def test_one_port_within_period(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        for node in ("Ps", "Pa", "Pb", "P0", "P1"):
            snd, rcv = sched.busy_time(node)
            assert snd <= sched.period and rcv <= sched.period

    def test_without_splits_scales_period(self, fig2_solution):
        sched = schedule_collective(fig2_solution)
        ns = sched.without_splits()
        assert ns.period % sched.period == 0
        assert ns.validate() == []
        for slot in ns.slots:
            for t in slot.transfers:
                assert t.units == int(t.units)


class TestOtherPlatforms:
    def test_star_throughput_limited_by_source_port(self):
        g = star(3, cost=1)
        problem = ScatterProblem(g, "c", [f"l{i}" for i in range(3)])
        sol = solve_collective(problem, backend="exact")
        # source must push 3 unit messages per op through one port
        assert sol.throughput == Fraction(1, 3)

    def test_chain_bottleneck_is_first_link(self):
        g = chain(4, cost=2)
        problem = ScatterProblem(g, "p0", ["p1", "p2", "p3"])
        sol = solve_collective(problem, backend="exact")
        # all three messages cross p0->p1 at cost 2 each
        assert sol.throughput == Fraction(1, 6)

    def test_wider_pipe_helps(self):
        # doubling routes via an extra relay raises throughput
        g = PlatformGraph()
        for n in ("s", "a", "b", "t"):
            g.add_node(n, 1)
        g.add_edge("s", "a", 1)
        g.add_edge("a", "t", 1)
        sol1 = solve_collective(ScatterProblem(g, "s", ["t"]), backend="exact")
        g2 = g.copy()
        g2.add_edge("s", "b", 1)
        g2.add_edge("b", "t", 1)
        sol2 = solve_collective(ScatterProblem(g2, "s", ["t"]), backend="exact")
        assert sol1.throughput == Fraction(1, 1)
        assert sol2.throughput == Fraction(1, 1)  # recv port of t caps at 1

    def test_multi_route_strictly_beats_single_route(self):
        # s has two length-2 routes to t with slow links: splitting wins
        g = PlatformGraph()
        for n in ("s", "a", "b", "t"):
            g.add_node(n, 1)
        g.add_edge("s", "a", 2)
        g.add_edge("a", "t", 2)
        g.add_edge("s", "b", 2)
        g.add_edge("b", "t", 2)
        sol = solve_collective(ScatterProblem(g, "s", ["t"]), backend="exact")
        # single route: 1/2; split across both: out-port of s allows 1/2 too;
        # but each edge carries half the traffic -> edge occupation 1/2
        assert sol.throughput == Fraction(1, 2)
        occ = sol.edge_occupation()
        assert all(o <= 1 for o in occ.values())

    def test_random_platform_solves_and_verifies(self):
        g = random_connected(8, extra_edges=4, seed=13)
        nodes = g.nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:5])
        sol = solve_collective(problem)
        assert sol.throughput > 0
        assert sol.verify(tol=0 if sol.exact else 1e-9) == []

    def test_unreachable_target_gives_zero_throughput(self):
        g = PlatformGraph()
        g.add_node("s", 1)
        g.add_node("t", 1)
        g.add_edge("t", "s", 1)  # wrong direction only
        sol = solve_collective(ScatterProblem(g, "s", ["t"]), backend="exact")
        assert sol.throughput == 0 and sol.send == {}
