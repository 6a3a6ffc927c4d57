"""Floating-point LP backend on :func:`scipy.optimize.linprog` (HiGHS).

Used for instances past the exact dispatch limit and for float data.
The float optimum carries HiGHS's row marginals as ``duals``, so
:mod:`repro.lp.rationalize` can snap both sides to rationals and
*certify* the result exactly; an uncertified optimum stays a float one,
which the paper's own Section 4.6 fixed-period rounding tolerates by
construction.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.model import GE, LinearProgram
from repro.lp.solution import LPSolution, SolveStatus

#: The :func:`scipy.optimize.linprog` method.
METHOD = "highs"


class HighsSolver:
    """scipy/HiGHS backend for :class:`LinearProgram`."""

    def solve(self, lp: LinearProgram) -> LPSolution:
        n = lp.num_vars()
        if n == 0:
            # linprog rejects an empty cost vector; a model presolve
            # emptied is decided by its constant rows alone
            if lp.check_feasible({}):
                return LPSolution(SolveStatus.INFEASIBLE, backend="highs",
                                  lp=lp)
            return LPSolution(SolveStatus.OPTIMAL,
                              objective=lp.objective.constant,
                              backend="highs", lp=lp, duals={})
        c = np.zeros(n)
        for j, coef in lp.objective.coefs.items():
            c[j] = float(coef)
        if lp.sense_max:
            c = -c

        # linprog takes A_ub x <= b_ub and A_eq x == b_eq: >= rows go in
        # negated, as sparse blocks (ring-scale rows would not fit densely)
        a_ub, b_ub, ub, a_eq, b_eq, eq = lp.float_rows()
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=[(float(v.lb), None if v.ub is None
                               else float(v.ub)) for v in lp.variables],
                      method=METHOD)
        if res.status == 2:
            return LPSolution(SolveStatus.INFEASIBLE, backend="highs", lp=lp)
        if res.status == 3:
            return LPSolution(SolveStatus.UNBOUNDED, backend="highs", lp=lp)
        if not res.success:
            return LPSolution(SolveStatus.ERROR, backend="highs", lp=lp)

        values = {j: float(x) for j, x in enumerate(res.x) if x != 0.0}
        # marginals are d(min objective)/d(rhs); LPSolution.duals wants
        # d(objective)/d(b_i) of the LP as posed, >= rows un-negated
        y = np.zeros(lp.num_constraints())
        y[ub], y[eq] = res.ineqlin.marginals, res.eqlin.marginals
        sign = np.where(np.asarray(lp.senses) == GE, -1.0, 1.0)
        y *= sign * (-1.0 if lp.sense_max else 1.0)
        return LPSolution(SolveStatus.OPTIMAL,
                          objective=lp.objective.evaluate(values),
                          values=values, backend="highs", exact=False, lp=lp,
                          iterations=int(getattr(res, "nit", 0) or 0),
                          duals={i: float(v) for i, v in enumerate(y) if v})
