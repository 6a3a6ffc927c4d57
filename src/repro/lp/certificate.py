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

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from repro.lp.model import GE, LE, LinearProgram, Number


def dual_bound(lp: LinearProgram,
               y: Dict[int, Number]) -> Tuple[Optional[Number], List[str]]:
    """The objective bound proved by multipliers ``y`` (keyed by
    constraint position), or ``None`` with the reasons ``y`` is not dual
    feasible.

    ``y . A`` and ``y . b`` of rational rows are summed on integers,
    over the least common multiple of the used rows' ``y_i`` denominator
    times row denominator, so each column's ``(y . A)_j`` is one
    Fraction at the end.  A model with float data is summed term by
    term and its bound is a float."""
    s = 1 if lp.sense_max else -1
    bad: List[str] = []
    used = [(i, Fraction(s * yi)) for i, yi in y.items() if yi]
    for i, ys in used:
        sense = lp.senses[i]
        if (sense == LE and ys < 0) or (sense == GE and ys > 0):
            bad.append(f"sign:{lp.names[i] or f'c{i}'}")
    ya: Dict[int, Number] = {}
    if lp._exact:
        big = lcm(*[ys.denominator * lp.dens[i] for i, ys in used])
        yb = 0
        indptr, cols, nums = lp.indptr, lp.cols, lp.nums
        for i, ys in used:
            k = ys.numerator * (big // (ys.denominator * lp.dens[i]))
            yb += k * lp.rhs[i]
            for j, a in zip(cols[indptr[i]:indptr[i + 1]],
                            nums[indptr[i]:indptr[i + 1]]):
                ya[j] = ya.get(j, 0) + k * a
        bound: Number = Fraction(yb, big)
        ya = {j: Fraction(v, big) for j, v in ya.items()}
    else:
        bound = sum(ys * lp.row_rhs(i) for i, ys in used)
        for i, ys in used:
            for j, a in lp.row_items(i):
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
