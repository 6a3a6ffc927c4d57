"""Re-solve a collective after a platform perturbation, warm when it pays.

A solved collective carries the exact optimal basis of its steady-state
LP (``solution.lp_solution.basis_labels`` — stable variable/constraint
*name* labels).  The plan for a perturbed platform is the optimum of the
perturbed platform's LP, so :func:`replan` follows one rule:

1. apply the events (:func:`repro.platform.perturb.perturb`);
2. shrink the problem to the surviving node set when the events removed
   members of the collective (:func:`repro.collectives.degrade
   .degrade_problem`);
3. solve the perturbed problem with :func:`repro.collectives
   .solve_collective` — warm on the revised engine from the old basis
   when that basis has at least :data:`WARM_BASIS_MIN_LABELS` labels
   and the backend is ``"exact"``, a plain cold solve otherwise.

The revised engine's crash ladder decides how the warm basis is used: a
crash that is still primal feasible re-prices with primal pivots, a
dual-feasible one (the usual shape after a capacity-tightening event)
enters the dual simplex, and anything else falls back to the float crash
and then a cold start.  Either way the optimum is **bit-identical** to a
cold solve of the perturbed LP — only the returned vertex (and the time
to reach it) can differ.  A warm solve keeps its own cache key (see
``warm_basis`` in :func:`repro.lp.dispatch.solve`), and the rebuilt
perturbed LP hashes differently from the pristine one, so a replan can
never poison a cached pristine solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Tuple

from repro.collectives.degrade import degrade_problem
from repro.platform.perturb import Event, PerturbationDelta, perturb


#: Crashing a basis of m labels means LU-factorizing it exactly before any
#: pivot runs — a small fixed cost in Fraction arithmetic (plus one scipy
#: solve when the crash falls back to the float guess).  Measured on the
#: revised engine, the crash pays for itself from about a hundred labels
#: up — fig6 pipelined all-reduce (96 labels) re-solves in ~18 ms vs a
#: ~29 ms cold solve, fig9 scatter (108) hits ``warm-dual`` with 0 pivots
#: at ~16 ms vs ~20 ms cold, ring24 (577) 166 ms vs 252 ms, x20 scatter
#: ~3.4x over a cold revised solve.  Below the floor (fig2: 10 labels,
#: ring8: 65) replan solves cold on the engine the dispatch cut-over
#: (:data:`repro.lp.dispatch.TABLEAU_VAR_LIMIT`) names; the paper_mix
#: gossip replans (123-129 vars, under 90 labels) sit on either side.
WARM_BASIS_MIN_LABELS = 90


@dataclass
class ReplanReport:
    """Outcome of one replan.

    ``replan_s`` is the wall-clock latency of the replan's solve (LP
    rebuild + LP solve, warm when ``warm``); ``cold_s`` is the measured
    from-scratch solve of the *same* perturbed problem when
    ``compare=True`` was requested, so the warm speed-up is an
    apples-to-apples ratio.
    """

    solution: object                  # CollectiveSolution on the new platform
    problem: object                   # the (possibly shrunk) perturbed problem
    delta: PerturbationDelta
    base_throughput: object           # TP before the perturbation
    warm: bool                        # True when a previous basis was crashed in
    replan_s: float
    sacrificed: Tuple = ()
    cold_s: Optional[float] = None
    cold_solution: object = None

    @property
    def throughput(self):
        return self.solution.throughput

    @property
    def speedup(self) -> Optional[float]:
        """Cold-solve time over warm replan time (None without compare)."""
        if self.cold_s is None or not self.replan_s:
            return None
        return self.cold_s / self.replan_s

    def describe(self) -> str:
        parts = [f"TP {self.base_throughput} -> {self.throughput}",
                 f"{'warm' if self.warm else 'cold'} replan "
                 f"{self.replan_s * 1e3:.1f} ms"]
        if self.cold_s is not None:
            parts.append(f"cold {self.cold_s * 1e3:.1f} ms "
                         f"({self.speedup:.1f}x)")
        if self.sacrificed:
            parts.append(f"sacrificed {list(self.sacrificed)!r}")
        return ", ".join(parts)


def replan(solution, events: Tuple[Event, ...], backend: str = "exact",
           on_infeasible: str = "degrade", compare: bool = False,
           **solve_kwargs) -> ReplanReport:
    """Re-solve ``solution``'s collective after ``events`` hit its platform.

    Parameters
    ----------
    solution:
        A solved :class:`~repro.collectives.base.CollectiveSolution`
        (its ``problem``, ``collective`` name and LP basis drive the
        re-solve).
    events:
        Perturbation events (:mod:`repro.platform.perturb`).
    on_infeasible:
        ``"degrade"`` (default) — shrink to the surviving set when the
        perturbation removed members of the collective;
        ``"error"`` — raise instead of sacrificing any node.
    compare:
        Also run (and time) a cold solve of the perturbed problem; the
        report then carries ``cold_s``/``cold_solution``/``speedup``.

    Both paths solve with ``cache=False`` (unless overridden): replan
    latency is the quantity being measured, and a memo hit would fake it.
    """
    from repro.collectives import solve_collective

    problem = solution.problem
    new_platform, delta = perturb(problem.platform, events)
    new_problem, sacrificed = degrade_problem(problem, new_platform,
                                              policy=on_infeasible)
    basis = getattr(solution.lp_solution, "basis_labels", None)
    mode = getattr(solution, "mode", None)
    kwargs = dict(solve_kwargs)
    kwargs.setdefault("cache", False)
    warm = (backend == "exact" and basis is not None
            and len(basis) >= WARM_BASIS_MIN_LABELS)
    warm_kwargs = (dict(kwargs, backend="revised", warm_basis=basis)
                   if warm else dict(kwargs, backend=backend))

    t0 = perf_counter()
    new_sol = solve_collective(new_problem, collective=solution.collective,
                               mode=mode, **warm_kwargs)
    replan_s = perf_counter() - t0
    if sacrificed and not new_sol.sacrificed:
        new_sol.sacrificed = sacrificed

    cold_s = None
    cold_sol = None
    if compare:
        t0 = perf_counter()
        cold_sol = solve_collective(new_problem,
                                    collective=solution.collective,
                                    backend=backend, mode=mode, **kwargs)
        cold_s = perf_counter() - t0

    return ReplanReport(solution=new_sol, problem=new_problem, delta=delta,
                        base_throughput=solution.throughput, warm=warm,
                        replan_s=replan_s, sacrificed=sacrificed,
                        cold_s=cold_s, cold_solution=cold_sol)
