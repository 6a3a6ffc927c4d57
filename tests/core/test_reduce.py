"""Unit tests for the Series-of-Reduces pipeline (Section 4)."""

from fractions import Fraction

import pytest

from repro.collectives import solve_collective
from repro.core.reduce_op import ReduceProblem, build_reduce_lp
from repro.platform.examples import triangle_platform
from repro.platform.generators import chain, clustered
from repro.platform.graph import PlatformGraph


class TestProblemValidation:
    def test_needs_two_participants(self, fig6):
        with pytest.raises(ValueError):
            ReduceProblem(fig6, participants=[0], target=0)

    def test_duplicate_participant_rejected(self, fig6):
        with pytest.raises(ValueError):
            ReduceProblem(fig6, participants=[0, 0, 1], target=0)

    def test_router_participant_rejected(self):
        g = clustered(2, 2, seed=0)
        hosts = g.compute_nodes()
        with pytest.raises(ValueError):
            ReduceProblem(g, participants=[hosts[0], "r0"], target=hosts[0])

    def test_owner_and_logical_index(self, fig6_problem):
        assert fig6_problem.owner(1) == 1
        assert fig6_problem.logical_index(2) == 2
        assert fig6_problem.logical_index("nope") is None

    def test_size_constant_and_callable(self, fig6):
        p1 = ReduceProblem(fig6, [0, 1, 2], 0, msg_size=10)
        assert p1.size((0, 1)) == 10
        p2 = ReduceProblem(fig6, [0, 1, 2], 0,
                           msg_size=lambda k, m: m - k + 1)
        assert p2.size((0, 2)) == 3

    def test_task_time_from_speed(self, fig6_problem):
        # node 0 has speed 2 -> tasks take 1/2
        assert fig6_problem.task_time(0, (0, 0, 1)) == Fraction(1, 2)
        assert fig6_problem.task_time(1, (0, 0, 1)) == 1

    def test_task_time_override(self, fig6):
        p = ReduceProblem(fig6, [0, 1, 2], 0,
                          task_time_fn=lambda node, task: 7)
        assert p.task_time(2, (0, 1, 2)) == 7


class TestLPStructure:
    def test_target_never_reemits_final(self, fig6_problem):
        lp = build_reduce_lp(fig6_problem)
        names = {v.name for v in lp.variables}
        assert "send[0->1,v[0,2]]" not in names
        assert "send[1->0,v[0,2]]" in names

    def test_routers_have_no_cons_variables(self):
        g = clustered(2, 1, seed=0)
        hosts = g.compute_nodes()
        problem = ReduceProblem(g, hosts, hosts[0])
        lp = build_reduce_lp(problem)
        assert not any(v.name.startswith("cons[r") for v in lp.variables)

    def test_lp_size_formula(self, fig6_problem):
        lp = build_reduce_lp(fig6_problem)
        # 6 directed edges x 6 intervals - 2 excluded (target final reemit
        # on its 2 out-edges) + 3 hosts x 4 tasks + TP
        assert lp.num_vars() == 6 * 6 - 2 + 12 + 1


class TestFigure6:
    def test_throughput_matches_paper(self, fig6_solution):
        assert fig6_solution.throughput == 1

    def test_exact_and_verified(self, fig6_solution):
        assert fig6_solution.exact
        assert fig6_solution.verify() == []

    def test_alpha_within_bounds(self, fig6_solution):
        for node in (0, 1, 2):
            assert 0 <= fig6_solution.alpha(node) <= 1

    def test_highs_agrees(self, fig6_problem):
        sol = solve_collective(fig6_problem, backend="highs")
        assert abs(float(sol.throughput) - 1.0) < 1e-9

    def test_target_receives_exactly_tp(self, fig6_solution):
        full = (0, 2)
        arrived = sum(f for (i, j, vv), f in fig6_solution.send.items()
                      if j == 0 and vv == full)
        local = sum(r for (h, t), r in fig6_solution.cons.items()
                    if h == 0 and (t[0], t[2]) == full)
        assert arrived + local == 1


class TestOtherInstances:
    def test_two_node_reduce(self):
        g = PlatformGraph()
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_link("a", "b", 1)
        sol = solve_collective(ReduceProblem(g, ["a", "b"], "a"), backend="exact")
        # b sends v1 to a (1 time-unit), a merges (1 time-unit, overlapped)
        assert sol.throughput == 1

    def test_slow_link_bottleneck(self):
        g = PlatformGraph()
        g.add_node("a", 100)
        g.add_node("b", 100)
        g.add_link("a", "b", 4)
        sol = solve_collective(ReduceProblem(g, ["a", "b"], "a"), backend="exact")
        assert sol.throughput == Fraction(1, 4)

    def test_slow_cpu_bottleneck(self):
        g = triangle_platform(speeds=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
                              cost=Fraction(1, 100))
        sol = solve_collective(ReduceProblem(g, [0, 1, 2], 0), backend="exact")
        # 2 merges per reduce, each takes 4 time-units, 3 CPUs available:
        # TP <= 3/8 from compute; communication is nearly free
        assert sol.throughput == Fraction(3, 8)

    def test_chain_reduce(self):
        g = chain(3, cost=1)
        sol = solve_collective(ReduceProblem(g, ["p0", "p1", "p2"], "p0"),
                               backend="exact")
        assert sol.throughput > 0
        assert sol.verify() == []

    def test_target_may_be_router(self):
        g = clustered(2, 1, seed=0)
        hosts = g.compute_nodes()
        problem = ReduceProblem(g, hosts, "r0")
        sol = solve_collective(problem, backend="exact")
        assert sol.throughput > 0

    def test_logical_order_matters(self):
        # a fast pair adjacent in logical order merges cheaply; reversing
        # the order across a slow cut cannot increase throughput
        g = PlatformGraph()
        g.add_node("a1", 10)
        g.add_node("a2", 10)
        g.add_node("b1", 10)
        g.add_link("a1", "a2", Fraction(1, 10))
        g.add_link("a1", "b1", 5)
        g.add_link("a2", "b1", 5)
        fast_adjacent = solve_collective(
            ReduceProblem(g, ["a1", "a2", "b1"], "a1"), backend="exact")
        split_order = solve_collective(
            ReduceProblem(g, ["a1", "b1", "a2"], "a1"), backend="exact")
        assert fast_adjacent.throughput >= split_order.throughput
