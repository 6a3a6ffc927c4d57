"""LP solution objects shared by all backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Union

from repro.lp.model import LinearProgram, Variable

Number = Union[int, float, Fraction]


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class LPSolution:
    """Result of solving a :class:`~repro.lp.model.LinearProgram`.

    ``values`` maps variable *index* to value; use :meth:`value` /
    :meth:`by_name` for convenient access.  ``exact`` is True when values are
    int/Fraction and proved optimal: from an exact simplex, or from a
    HiGHS optimum whose rationalization passed
    :func:`repro.lp.certificate.certify`.

    ``basis_labels`` (exact backend only) names the optimal basis by stable
    labels — ``("v", variable name)`` for structural columns and
    ``("s", constraint name)`` for slacks — so a later solve of a
    structurally similar LP can warm-start from it (see
    :func:`repro.lp.dispatch.solve`).  ``message`` carries diagnostics for
    ``ERROR`` statuses (e.g. iteration-limit overruns).

    ``stats`` (when the backend provides it — the revised simplex does)
    is a flat dict of solver counters and timings: pivot counts per
    phase, refactorizations, FTRAN/BTRAN solves, per-phase seconds and
    the solve path taken (``cold``, ``float-primal`` / ``float-dual``
    for the perturbed-float basis crash, ``warm-primal`` /
    ``warm-dual`` from a recorded basis).  Solutions returned by
    :func:`repro.lp.dispatch.solve` always carry ``vars_raw`` /
    ``vars_presolved`` (the raw model size vs the model the engine
    solved — equal when presolve was skipped, as on the colgen route)
    and ``route`` / ``route_reason`` (``tableau``/``revised``/
    ``colgen``/``highs`` and the size or flag that decided it;
    ``presolve`` when presolve alone proved infeasibility).  The
    ``--lp-stats`` CLI flag prints it.

    ``duals`` maps the *position* of each row of ``lp`` to its row
    multiplier ``y_i`` at the optimum
    (zeros omitted): exact rationals from the revised engine (opt-in via
    ``want_duals=True``) and from a certified HiGHS rationalization,
    floats from :class:`repro.lp.highs.HighsSolver` itself.  A solve
    behind presolve reports none — its multipliers index the presolved
    model's rows.
    Sign convention: for a maximization LP ``<=`` rows have ``y_i >= 0``,
    ``>=`` rows ``y_i <= 0``, equalities are free, and a variable's
    *reduced cost* ``sum_i y_i a_ij - c_j`` is nonnegative (zero on
    basic columns) unless the variable sits at a finite upper bound.  A
    minimization LP mirrors every sign.  Multipliers of variable *bound*
    rows are not reported; they follow from the reduced costs
    (:mod:`repro.lp.certificate`).
    """

    status: SolveStatus
    objective: Optional[Number] = None
    values: Dict[int, Number] = field(default_factory=dict)
    backend: str = ""
    exact: bool = False
    lp: Optional[LinearProgram] = None
    iterations: int = 0
    message: str = ""
    basis_labels: Optional[tuple] = None
    stats: Optional[dict] = None
    duals: Optional[Dict[int, Number]] = None

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value(self, var: Variable) -> Number:
        """Value of ``var`` (0 for variables absent from the basis)."""
        return self.values.get(var.index, 0)

    def by_name(self, name: str) -> Number:
        if self.lp is None:
            raise ValueError("solution has no attached LP")
        return self.value(self.lp.get(name))

    def named_values(self, nonzero_only: bool = True) -> Dict[str, Number]:
        """Human-readable ``{variable name: value}`` map."""
        if self.lp is None:
            raise ValueError("solution has no attached LP")
        out: Dict[str, Number] = {}
        for v in self.lp.variables:
            x = self.values.get(v.index, 0)
            if x != 0 or not nonzero_only:
                out[v.name] = x
        return out

    def __repr__(self) -> str:
        return (f"LPSolution({self.status.value}, objective={self.objective}, "
                f"backend={self.backend!r}, exact={self.exact})")
