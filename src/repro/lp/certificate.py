"""Exact LP optimality certificates.

A primal point ``x`` is proved optimal by row multipliers ``y`` when, at
``tol=0``:

- ``x`` is primal feasible (:meth:`LinearProgram.check_feasible`);
- ``y`` is dual feasible in the sign convention documented on
  :attr:`repro.lp.solution.LPSolution.duals`, with the variable-bound
  multipliers read off the reduced costs ``d_j = c_j - sum_i y_i a_ij``
  (max form): ``d_j > 0`` prices the upper bound, which must be finite,
  and ``d_j < 0`` the lower bound;
- the dual bound ``sum_i y_i b_i + sum_j d_j (ub_j or lb_j)``, plus the
  objective constant, equals ``c.x``.

Weak duality then makes ``c.x`` the exact optimum.  A minimization LP is
checked as the maximization of ``-c`` with multipliers ``-y``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lp.model import GE, LE, LinearProgram, Number


def dual_bound(lp: LinearProgram,
               y: Dict[int, Number]) -> Tuple[Optional[Number], List[str]]:
    """The objective bound proved by multipliers ``y`` (keyed by
    constraint position), or ``None`` with the reasons ``y`` is not dual
    feasible."""
    s = 1 if lp.sense_max else -1
    bad: List[str] = []
    bound: Number = 0
    ya: Dict[int, Number] = {}
    for i, yi in y.items():
        if not yi:
            continue
        con = lp.constraints[i]
        ys = s * yi
        if (con.sense == LE and ys < 0) or (con.sense == GE and ys > 0):
            bad.append(f"sign:{con.name or f'c{i}'}")
        bound -= ys * con.expr.constant          # b_i = -constant
        for j, a in con.expr.coefs.items():
            ya[j] = ya.get(j, 0) + ys * a
    cost = lp.objective.coefs
    for j in set(cost) | set(ya):
        d = s * cost.get(j, 0) - ya.get(j, 0)
        var = lp.variables[j]
        if d > 0:
            if var.ub is None:
                bad.append(f"reduced cost {d} > 0 on {var.name} "
                           f"(no upper bound)")
                continue
            bound += d * var.ub
        elif d < 0:
            bound += d * var.lb
    if bad:
        return None, bad
    return s * bound + lp.objective.constant, []


def certify(lp: LinearProgram, x: Dict[int, Number],
            y: Dict[int, Number]) -> List[str]:
    """Reasons the pair ``(x, y)`` fails to prove ``x`` optimal for
    ``lp``; an empty list is an exact optimality proof."""
    bad = [f"primal:{r}" for r in lp.check_feasible(x, tol=0)]
    bound, dual_bad = dual_bound(lp, y)
    bad += [f"dual:{r}" for r in dual_bad]
    if bound is not None:
        obj = lp.objective.evaluate(x)
        if bound != obj:
            bad.append(f"gap: dual bound {bound} != objective {obj}")
    return bad
