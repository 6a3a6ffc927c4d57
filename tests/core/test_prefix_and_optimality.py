"""Unit tests for the prefix extension and optimality bookkeeping."""

from fractions import Fraction

import pytest

from repro.collectives import solve_collective
from repro.core.optimality import (is_monotone_nondecreasing, ratio_curve, steady_state_lower_bound, upper_bound_ops)
from repro.core.reduce_op import ReduceProblem


class TestPrefix:
    def test_prefix_lp_solves_on_triangle(self, fig6):
        problem = ReduceProblem(fig6, participants=[0, 1, 2], target=0)
        sol = solve_collective(problem, collective="prefix", backend="exact")
        assert sol.throughput > 0
        assert sol.exact

    def test_prefix_throughput_at_most_reduce(self, fig6):
        # prefix must also deliver v[0,1] to rank 1's owner and v[0,2] to
        # rank 2's owner: strictly more work than one reduce
        problem = ReduceProblem(fig6, participants=[0, 1, 2], target=2)
        reduce_tp = solve_collective(problem, backend="exact").throughput
        prefix_tp = solve_collective(problem, collective="prefix",
                                     backend="exact").throughput
        assert prefix_tp <= reduce_tp

    def test_prefix_needs_transfers(self, fig6):
        problem = ReduceProblem(fig6, participants=[0, 1, 2], target=0)
        sol = solve_collective(problem, collective="prefix", backend="exact")
        assert sol.send  # some communication is unavoidable

    def test_two_nodes_prefix(self):
        from repro.platform.graph import PlatformGraph

        g = PlatformGraph()
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_link("a", "b", 1)
        problem = ReduceProblem(g, ["a", "b"], "a")
        sol = solve_collective(problem, collective="prefix", backend="exact")
        # v[0,1] must be delivered at b: one transfer + one merge per op
        assert sol.throughput == 1


class TestOptimalityHelpers:
    def test_upper_bound(self):
        assert upper_bound_ops(Fraction(1, 2), 100) == 50.0

    def test_steady_lower_bound_formula(self):
        # K=100, T=10, I=20 -> r = floor((100-40-10)/10) = 5 -> 5*10*TP
        assert steady_state_lower_bound(Fraction(1, 2), 10, 20, 100) == 25.0

    def test_steady_lower_bound_clamped_at_zero(self):
        assert steady_state_lower_bound(1, 10, 50, 20) == 0.0

    def test_ratio_curve(self):
        pts = ratio_curve(Fraction(1, 2), [10, 20], [4, 9])
        assert [round(p.ratio, 3) for p in pts] == [0.8, 0.9]

    def test_ratio_curve_length_mismatch(self):
        with pytest.raises(ValueError):
            ratio_curve(1, [1, 2], [1])

    def test_monotone_check(self):
        assert is_monotone_nondecreasing([0.5, 0.7, 0.7, 0.9])
        assert not is_monotone_nondecreasing([0.5, 0.3])

    def test_lower_bound_below_upper_bound(self):
        for k in (50, 100, 1000):
            lo = steady_state_lower_bound(Fraction(1, 3), 6, 12, k)
            hi = upper_bound_ops(Fraction(1, 3), k)
            assert lo <= hi
