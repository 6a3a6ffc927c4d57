"""Property-based tests for the exact simplex.

Core invariant: for any randomly generated feasible-bounded LP, the exact
solver's answer (a) is feasible bit-exactly, (b) matches HiGHS's float
optimum, and (c) is reproducible.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.highs import HighsSolver
from repro.lp.model import LinearProgram, LinExpr
from repro.lp.solution import SolveStatus

coef = st.integers(min_value=0, max_value=6)
obj_coef = st.integers(min_value=1, max_value=5)
rhs = st.integers(min_value=1, max_value=20)


@st.composite
def bounded_lps(draw):
    """Random max-LPs of the packing form c.x s.t. Ax <= b, 0 <= x <= 10:
    always feasible (x = 0) and always bounded (upper bounds)."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=6))
    lp = LinearProgram("prop")
    xs = [lp.var(f"x{i}", ub=10) for i in range(n)]
    for j in range(m):
        row = [draw(coef) for _ in range(n)]
        b = draw(rhs)
        lp.add(sum(c * x for c, x in zip(row, xs)) <= b, name=f"r{j}")
    lp.maximize(sum(draw(obj_coef) * x for x in xs))
    return lp


class TestSimplexProperties:
    @given(bounded_lps())
    @settings(max_examples=40, deadline=None)
    def test_optimal_and_exactly_feasible(self, lp):
        s = ExactSimplexSolver().solve(lp)
        assert s.status is SolveStatus.OPTIMAL
        assert lp.check_feasible(s.values, tol=0) == []
        assert all(isinstance(v, (int, Fraction)) for v in s.values.values())

    @given(bounded_lps())
    @settings(max_examples=30, deadline=None)
    def test_matches_highs_objective(self, lp):
        exact = ExactSimplexSolver().solve(lp)
        approx = HighsSolver().solve(lp)
        assert approx.status is SolveStatus.OPTIMAL
        assert float(exact.objective) == pytest.approx(float(approx.objective),
                                                       rel=1e-7, abs=1e-7)

    @given(bounded_lps())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, lp):
        s1 = ExactSimplexSolver().solve(lp)
        s2 = ExactSimplexSolver().solve(lp)
        assert s1.objective == s2.objective and s1.values == s2.values

    @given(bounded_lps(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_scaling_objective_scales_optimum(self, lp, k):
        s1 = ExactSimplexSolver().solve(lp)
        lp2 = LinearProgram()
        xs = [lp2.var(v.name, lb=v.lb, ub=v.ub) for v in lp.variables]
        for c in lp.constraints:
            # start from an expression: a row whose coefficients are all
            # zero is stored (and viewed) without entries
            expr = sum((coef * xs[i] for i, coef in c.expr.coefs.items()),
                       LinExpr({}, c.expr.constant))
            lp2.add(expr <= 0 if c.sense == "<=" else expr >= 0)
        lp2.maximize(sum(k * coef * xs[i]
                         for i, coef in lp.objective.coefs.items()))
        s2 = ExactSimplexSolver().solve(lp2)
        assert s2.objective == k * s1.objective
