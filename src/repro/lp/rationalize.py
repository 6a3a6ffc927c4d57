"""Snapping float LP solutions to certified exact rationals.

The schedule-reconstruction pipeline (lcm period, integer message counts,
matching decomposition) needs the exact rational optimum.  When the LP
was solved in floating point (HiGHS), we snap the primal values *and* the
row multipliers to rationals and keep a snapped point only when
:func:`repro.lp.certificate.certify` proves it optimal at ``tol=0``:
primal feasible, dual feasible, and with no duality gap.

This succeeds whenever the true optimum and its duals have modest
denominators (all the paper's instances do: 1/2, 2/9, 1/3, ...).  When it
fails the float solution stays uncertified, and callers fall back to the
paper's own Section 4.6 fixed-period approximation, which never needs
exact inputs.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cache
from typing import Dict, List, Optional, Tuple

from repro.lp.certificate import certify, dual_bound
from repro.lp.solution import LPSolution

#: Denominator ladder tried in order after the most precise snap.  Small,
#: highly composite denominators first (periods in the paper are lcm's of
#: small numbers), then larger.
DENOMINATORS = (1, 2, 3, 4, 6, 9, 12, 18, 24, 36, 48, 60, 72, 120,
                144, 180, 240, 360, 720, 2520, 5040, 27720, 360360)

#: The most precise snap, tried first: per-value
#: :meth:`fractions.Fraction.limit_denominator` with this cap.
MAX_LIMIT_DENOMINATOR = 10**6


def snap_to_denominator(x: float, den: int) -> Fraction:
    """Nearest fraction with denominator dividing ``den``."""
    return Fraction(round(x * den), den)


def _snaps(xs: Dict[int, float]) -> List[Dict[int, Fraction]]:
    """Rational candidates for ``xs``, the most precise first: the
    per-value ``limit_denominator`` one, then one per ladder
    denominator; zeros dropped."""
    out = [{j: Fraction(x).limit_denominator(MAX_LIMIT_DENOMINATOR)
            for j, x in xs.items()}]
    out += [{j: snap_to_denominator(x, den) for j, x in xs.items()}
            for den in DENOMINATORS]
    return [{j: v for j, v in c.items() if v} for c in out]


def rationalize_solution(sol: LPSolution
                         ) -> Tuple[Optional[LPSolution], Optional[str]]:
    """Try to turn a float optimum into a certified exact one.

    Returns ``(exact solution, None)`` on success — ``sol`` itself when it
    is already exact — else ``(None, why)``.  Any valid dual bound is at
    least the optimum, so a snapped primal point whose objective equals
    one is optimal: each snapped dual candidate has its bound computed
    once (:func:`repro.lp.certificate.dual_bound`), and the first exactly
    feasible primal candidate meeting it is returned with those duals.
    Both sides try the most precise snap first: where the float optimum
    carries large denominators the ladder's coarse snaps tend to meet
    the bound yet miss feasibility, each costing a full scan.
    """
    if sol.lp is None or not sol.optimal:
        return None, "no optimum"
    if sol.exact:
        return sol, None
    if not sol.lp.is_rational():
        return None, "float data"
    return _certify_snaps(sol)


def _certify_snaps(sol: LPSolution
                   ) -> Tuple[Optional[LPSolution], Optional[str]]:
    """:func:`rationalize_solution` on a float optimum of a model the
    caller has already found rational (:func:`repro.lp.dispatch.solve`
    scans each model once)."""
    lp = sol.lp
    primals, duals = _snaps(sol.values), _snaps(sol.duals or {})
    objs = [lp.objective.evaluate(values) for values in primals]

    @cache
    def feasible(k: int) -> bool:
        return not lp.check_feasible(primals[k], tol=0)

    bounded = False
    for y in duals:
        bound = dual_bound(lp, y)[0]
        if bound is None:
            continue
        bounded = True
        # the objective is cheap, the feasibility scan is not: scan only
        # the candidates that would meet the bound
        for k, values in enumerate(primals):
            if objs[k] == bound and feasible(k):
                return replace(sol, objective=bound, values=values, duals=y,
                               backend=sol.backend + "+rationalized",
                               exact=True), None
    # why the first feasible (else the most precise) snap is unproved
    x = primals[0]
    if bounded:
        x = next((v for k, v in enumerate(primals) if feasible(k)), x)
    return None, "; ".join(certify(lp, x, duals[0])[:3])
