"""Unit tests for the HiGHS backend, rationalization and dispatch."""

from fractions import Fraction

import pytest

from repro.lp import dispatch
from repro.lp.dispatch import solve
from repro.lp.highs import HighsSolver
from repro.lp.model import LinearProgram
from repro.lp.rationalize import rationalize_solution, snap_to_denominator
from repro.lp.solution import SolveStatus


def make_lp():
    lp = LinearProgram()
    u, v = lp.var("u"), lp.var("v")
    lp.add(u + v == Fraction(1, 2))
    lp.add(u - v <= Fraction(1, 6))
    lp.maximize(u)
    return lp, u, v


class TestHighs:
    def test_optimal_value(self):
        lp, u, v = make_lp()
        s = HighsSolver().solve(lp)
        assert s.status is SolveStatus.OPTIMAL
        assert abs(float(s.objective) - 1 / 3) < 1e-9
        assert not s.exact

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.var("x", ub=1)
        lp.add(x >= 2)
        lp.maximize(x)
        assert HighsSolver().solve(lp).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.maximize(x)
        assert HighsSolver().solve(lp).status is SolveStatus.UNBOUNDED

    def test_minimize(self):
        lp = LinearProgram()
        x = lp.var("x", lb=Fraction(1, 4))
        lp.minimize(x)
        s = HighsSolver().solve(lp)
        assert abs(float(s.objective) - 0.25) < 1e-9

    def test_accepts_float_data(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add(0.5 * x <= 1.0)
        lp.maximize(x)
        s = HighsSolver().solve(lp)
        assert abs(float(s.objective) - 2.0) < 1e-9


class TestSnap:
    def test_snap_to_denominator(self):
        assert snap_to_denominator(0.3333333, 3) == Fraction(1, 3)
        assert snap_to_denominator(0.24999999, 4) == Fraction(1, 4)

    def test_rationalize_recovers_exact_optimum(self):
        lp, u, v = make_lp()
        s = HighsSolver().solve(lp)
        r = rationalize_solution(s)
        assert r is not None and r.exact
        assert r.objective == Fraction(1, 3)
        assert lp.check_feasible(r.values) == []

    def test_rationalize_passthrough_for_exact(self):
        lp, *_ = make_lp()
        s = solve(lp, backend="exact")
        assert rationalize_solution(s) is s

    def test_rationalize_returns_none_for_float_lp(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add(0.5 * x <= 1.0)
        lp.maximize(x)
        s = HighsSolver().solve(lp)
        assert rationalize_solution(s) is None

    def test_rationalize_none_for_failed_solve(self):
        lp = LinearProgram()
        x = lp.var("x", ub=1)
        lp.add(x >= 2)
        lp.maximize(x)
        s = HighsSolver().solve(lp)
        assert rationalize_solution(s) is None


class TestDispatch:
    def test_auto_uses_exact_for_small_rational(self):
        lp, *_ = make_lp()
        s = solve(lp, backend="auto")
        assert s.backend == "exact-simplex" and s.exact

    def test_auto_uses_highs_beyond_limit(self, monkeypatch):
        monkeypatch.setattr(dispatch, "EXACT_VAR_LIMIT", 1)
        lp, *_ = make_lp()
        s = solve(lp, backend="auto")
        assert s.backend.startswith("highs")
        assert s.exact  # rationalization succeeded

    def test_explicit_backends(self):
        lp, *_ = make_lp()
        assert solve(lp, backend="exact").backend == "exact-simplex"
        # HiGHS optima of rational LPs always come back rationalized; the
        # raw float answer is the solver class itself
        assert solve(lp, backend="highs").backend == "highs+rationalized"
        assert HighsSolver().solve(lp).backend == "highs"

    def test_unknown_backend_rejected(self):
        lp, *_ = make_lp()
        with pytest.raises(ValueError):
            solve(lp, backend="cplex")

    def test_solution_named_values(self):
        lp, u, v = make_lp()
        s = solve(lp, backend="exact")
        named = s.named_values()
        assert named["u"] == Fraction(1, 3) and named["v"] == Fraction(1, 6)

    def test_by_name(self):
        lp, u, v = make_lp()
        s = solve(lp)
        assert s.by_name("u") == s.value(u)
