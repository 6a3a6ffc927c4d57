"""Unit tests for the HiGHS backend, rationalization and dispatch."""

from fractions import Fraction

import pytest

from repro.lp import dispatch
from repro.lp.certificate import certify
from repro.lp.dispatch import solve
from repro.lp.highs import HighsSolver
from repro.lp.model import LinearProgram, LinExpr
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


class TestHighsSparseRows:
    """The HiGHS route hands linprog sparse rows built from the model's
    integer rows, never a dense ``m x n`` matrix."""

    def test_ring64_scatter_stays_far_below_a_dense_matrix(self):
        import tracemalloc

        from repro.core.scatter import ScatterProblem, build_scatter_lp
        from repro.platform import generators as gen

        g = gen.ring(64)
        lp = build_scatter_lp(ScatterProblem(g, g.nodes()[0], g.nodes()[1:]))
        dense = lp.num_constraints() * lp.num_vars() * 8      # ~268 MB
        tracemalloc.start()
        try:
            s = HighsSolver().solve(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.optimal and abs(float(s.objective) - 1 / 63) < 1e-9
        assert peak < dense / 20, (peak, dense)

    def test_fig9_reduce_matches_a_dense_linprog_bit_for_bit(self):
        """Same float optimum as linprog on the dense matrices built from
        the Fraction coefficients, compared with ``==``."""
        import numpy as np
        from scipy.optimize import linprog

        from repro.core.reduce_op import ReduceProblem, build_reduce_lp
        from repro.lp.model import EQ, GE
        from repro.platform.examples import (figure9_participants,
                                             figure9_platform, figure9_target)

        lp = build_reduce_lp(ReduceProblem(
            figure9_platform(), participants=figure9_participants(),
            target=figure9_target(), msg_size=10, task_work=10))
        n, cons = lp.num_vars(), lp.constraints
        c = np.zeros(n)
        for j, coef in lp.objective.coefs.items():
            c[j] = -float(coef)
        a, b = np.zeros((len(cons), n)), np.zeros(len(cons))
        for i, con in enumerate(cons):
            for j, coef in con.expr.coefs.items():
                a[i, j] = float(coef)
            b[i] = -float(con.expr.constant)
        sign = np.array([-1.0 if con.sense == GE else 1.0 for con in cons])
        a *= sign[:, None]
        b *= sign
        eq = np.array([con.sense == EQ for con in cons])
        ref = linprog(c, A_ub=a[~eq], b_ub=b[~eq], A_eq=a[eq], b_eq=b[eq],
                      bounds=[(float(v.lb), None) for v in lp.variables],
                      method="highs")
        s = HighsSolver().solve(lp)
        assert s.optimal and ref.success
        assert s.values == {j: float(x) for j, x in enumerate(ref.x)
                            if x != 0.0}


class TestSnap:
    def test_snap_to_denominator(self):
        assert snap_to_denominator(0.3333333, 3) == Fraction(1, 3)
        assert snap_to_denominator(0.24999999, 4) == Fraction(1, 4)

    def test_rationalize_recovers_exact_optimum(self):
        lp, u, v = make_lp()
        s = HighsSolver().solve(lp)
        r, why = rationalize_solution(s)
        assert r is not None and r.exact and why is None
        assert r.objective == Fraction(1, 3)
        assert certify(lp, r.values, r.duals) == []

    def test_rationalize_passthrough_for_exact(self):
        lp, *_ = make_lp()
        s = solve(lp, backend="exact")
        assert rationalize_solution(s) == (s, None)

    def test_rationalize_returns_none_for_float_lp(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add(0.5 * x <= 1.0)
        lp.maximize(x)
        s = HighsSolver().solve(lp)
        assert rationalize_solution(s) == (None, "float data")

    def test_rationalize_none_for_failed_solve(self):
        lp = LinearProgram()
        x = lp.var("x", ub=1)
        lp.add(x >= 2)
        lp.maximize(x)
        s = HighsSolver().solve(lp)
        assert rationalize_solution(s) == (None, "no optimum")


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


def tiny_coefficient_lp():
    """``max x s.t. 1000003 x <= 1``: the optimum 1/1000003 is below every
    ladder denominator's resolution and past the limit_denominator cap."""
    lp = LinearProgram("tiny")
    x = lp.var("x")
    lp.add(1000003 * x <= 1)
    lp.maximize(x)
    return lp


class TestCertifiedRationalization:
    def setup_method(self):
        dispatch.clear_cache()

    def test_highs_reports_duals_in_the_solution_convention(self):
        for sense in ("max", "min"):
            lp = LinearProgram()
            x, y = lp.var("x"), lp.var("y", ub=3)
            lp.add(x + y <= 4, "cap")
            lp.add(x - y >= -1, "gap")
            lp.add(x + 2 * y == 5, "eq")
            (lp.maximize if sense == "max" else lp.minimize)(2 * x + y)
            s = HighsSolver().solve(lp)
            exact = [Fraction(v).limit_denominator(1000)
                     for v in (s.duals.get(i, 0.0) for i in range(3))]
            values = {j: Fraction(v).limit_denominator(1000)
                      for j, v in s.values.items()}
            assert certify(lp, values, dict(enumerate(exact))) == []

    def test_snapped_feasible_suboptimal_point_is_not_exact(self):
        # the float optimum snaps to the feasible point x = 0 on every
        # ladder denominator: feasible, but not optimal, so not exact
        s = solve(tiny_coefficient_lp(), backend="highs", presolve=False)
        assert s.optimal
        assert not s.exact or s.objective == Fraction(1, 1000003)
        if not s.exact:
            assert s.stats["uncertified"].startswith("gap:")

    def test_every_exact_highs_result_is_certified(self):
        lp, *_ = make_lp()
        s = solve(lp, backend="highs", presolve=False)
        assert s.exact and "uncertified" not in s.stats
        assert certify(lp, s.values, s.duals) == []

    def test_empty_presolved_model_is_solved(self):
        # presolve fixes x at its bound 1/1000003 and leaves no variable
        lp = tiny_coefficient_lp()
        s = solve(lp, backend="highs")
        assert s.stats["vars_presolved"] == 0
        assert s.exact and s.objective == Fraction(1, 1000003)
        assert s.by_name("x") == Fraction(1, 1000003)

    def test_empty_model_infeasible_constant_row(self):
        lp = LinearProgram("empty")
        lp.add(LinExpr({}, 1) <= 0, "one-le-zero")
        lp.maximize(LinExpr({}, 5))
        assert HighsSolver().solve(lp).status is SolveStatus.INFEASIBLE
        lp2 = LinearProgram("const")
        lp2.maximize(LinExpr({}, Fraction(5, 2)))
        s = HighsSolver().solve(lp2)
        assert s.optimal and s.objective == Fraction(5, 2)

    def test_only_snaps_meeting_the_bound_are_scanned(self, monkeypatch):
        """The fig9 reduce LP: comparing the cheap objective with the
        dual bound first leaves one feasibility scan, where scanning
        every snap took six — and the certified point and duals are the
        ones a full scan in snap order (most precise first) returns."""
        from repro.core.reduce_op import ReduceProblem, build_reduce_lp
        from repro.lp.certificate import dual_bound
        from repro.lp.rationalize import _snaps
        from repro.platform.examples import (figure9_participants,
                                             figure9_platform,
                                             figure9_target)

        lp = build_reduce_lp(ReduceProblem(
            figure9_platform(), figure9_participants(), figure9_target()))
        s = HighsSolver().solve(lp)
        primals, duals = _snaps(s.values), _snaps(s.duals)
        scanned = None
        for y in duals:
            bound = dual_bound(lp, y)[0]
            if bound is None:
                continue
            scanned = next((x for x in primals
                            if not lp.check_feasible(x, tol=0)
                            and lp.objective.evaluate(x) == bound), None)
            if scanned is not None:
                break

        calls = []
        check = LinearProgram.check_feasible
        monkeypatch.setattr(LinearProgram, "check_feasible",
                            lambda self, *a, **k:
                                calls.append(1) or check(self, *a, **k))
        r, why = rationalize_solution(s)
        assert why is None and r.exact
        assert len(calls) == 1
        assert r.values == scanned and r.duals == y
        assert certify(lp, r.values, r.duals) == []

    def test_most_precise_primal_snap_is_scanned_first(self, monkeypatch):
        """The reduce LP of a heterogenized complete(6): 20 of the
        ladder's coarse snaps meet the dual bound yet are infeasible, so
        trying them first cost 21 feasibility scans; the
        ``limit_denominator`` snap comes first now and certifies at once."""
        from repro.core.reduce_op import ReduceProblem, build_reduce_lp
        from repro.platform.generators import complete, heterogenize

        g = heterogenize(complete(6), seed=2)
        lp = build_reduce_lp(ReduceProblem(g, g.nodes(), g.nodes()[0]))
        s = HighsSolver().solve(lp)
        calls = []
        check = LinearProgram.check_feasible
        monkeypatch.setattr(LinearProgram, "check_feasible",
                            lambda self, *a, **k:
                                calls.append(1) or check(self, *a, **k))
        r, why = rationalize_solution(s)
        assert why is None and r.exact and r.objective == Fraction(1, 3)
        assert len(calls) == 1
        monkeypatch.undo()
        assert certify(lp, r.values, r.duals) == []

    def test_float_lp_is_uncertified(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add(0.5 * x <= 1.0)
        lp.maximize(x)
        s = solve(lp, backend="highs")
        assert not s.exact and s.stats["uncertified"] == "float data"
