"""Warm-started incremental re-solve after a platform perturbation.

A solved collective carries the exact optimal basis of its steady-state
LP (``solution.lp_solution.basis_labels`` — stable variable/constraint
*name* labels).  When the platform changes
(:mod:`repro.platform.perturb`), the perturbed LP keeps almost all of
those names: only the rows and variables named by the perturbation
delta change.  :func:`replan` exploits that — it rebuilds the problem on
the perturbed platform (optionally shrinking it via the graceful
degradation policy), then re-solves *warm* from the previous basis
instead of from scratch.

Warm-vs-cold decision rule (documented next to the chaining contract in
ROADMAP.md):

- **Loosening** deltas (link speed-up, node join) keep the old vertex
  primal feasible — the crash basis passes the feasibility check and the
  solver goes straight to phase-2 re-pricing.
- **Tightening** deltas (link/node loss, slowdown) may leave the crashed
  basis primal-infeasible in exactly the touched rows — but it stays
  *dual* feasible (reduced costs don't depend on the right-hand side),
  so :func:`replan` passes ``dual=True`` and the revised simplex
  (:mod:`repro.lp.revised_simplex`) re-solves with dual pivots from the
  old basis instead of crashing through a phase-1 feasibility repair.
- Either way the optimum is **bit-identical** to a cold solve of the
  perturbed LP — only the returned vertex (and the time to reach it) can
  differ.  An unrepairable crash (many violated rows, e.g. a delta that
  rewrote most of the platform) falls back to a cold start inside the
  solver, so :func:`replan` never returns a worse answer, only a slower
  one.

Every re-solve is tagged with the perturbation-delta fingerprint in the
LP cache key (``cache_tag``), so warm vertices never poison the pristine
platform's cached solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Tuple

from repro.collectives.degrade import degrade_problem
from repro.lp.model import Constraint, LinearProgram, LinExpr
from repro.platform.perturb import (Event, LinkDegradation, LinkFailure,
                                    PerturbationDelta, perturb)


def apply_delta(lp: LinearProgram,
                delta: PerturbationDelta) -> Optional[LinearProgram]:
    """Edited copy of ``lp`` with the perturbation's row edits applied.

    This is the "apply a capacity delta to a solved LP" half of the
    incremental re-solve: instead of rebuilding the collective's LP from
    the perturbed problem, the previous solve's model is copied and only
    the rows named by the delta change —

    - ``scale`` (link degradation): the degraded edge's terms in its
      ``edge[..]``/``out[..]``/``in[..]`` rows multiply by the factor
      (occupation per unit rate grows with the cost);
    - ``drop`` with an edge (link failure): the edge's capacity row is
      removed, its terms leave the shared port rows, and its variables
      are fixed to zero — exactly equivalent to building the LP without
      the link (the dead variables stay, pinned at 0, so the variable
      indexing and every surviving row are unchanged).

    Returns ``None`` when the delta cannot be expressed as row edits on
    the same variable set (node failures/joins change the commodity
    structure) — callers then rebuild from the perturbed problem.  The
    edge-term membership is read from the ``edge[..]`` row *before* any
    edit touches it, which is why the per-event edit order (edge row
    first, then ports) matters and is guaranteed by the delta builder.
    """
    for ev in delta.events:
        if not isinstance(ev, (LinkFailure, LinkDegradation)):
            return None
    new = LinearProgram(lp.name)
    for v in lp.variables:
        new.var(v.name, lb=v.lb, ub=v.ub)
    rows = {}
    new_cons = []
    for c in lp.constraints:
        e = c.expr
        ce = LinExpr(dict(e.coefs), e.constant,
                     _vars={i: new.variables[i] for i in e.coefs})
        cc = Constraint(ce, c.sense, c.name)
        new_cons.append(cc)
        if c.name:
            rows[c.name] = cc
    new.objective = LinExpr(dict(lp.objective.coefs), lp.objective.constant,
                            _vars={i: new.variables[i]
                                   for i in lp.objective.coefs})
    new.sense_max = lp.sense_max

    edge_vars = {}
    drop = set()
    for ed in delta.row_edits:
        con = rows.get(ed.row)
        if con is None:
            return None  # structure mismatch: fall back to a rebuild
        if ed.edge is not None and ed.edge not in edge_vars:
            edge_row = rows.get(f"edge[{ed.edge[0]}->{ed.edge[1]}]")
            if edge_row is None:
                return None
            edge_vars[ed.edge] = set(edge_row.expr.coefs)
        members = edge_vars.get(ed.edge, set())
        if ed.kind == "scale":
            for i in list(con.expr.coefs):
                if i in members:
                    con.expr.coefs[i] = con.expr.coefs[i] * ed.factor
        elif ed.kind == "drop" and ed.edge is not None:
            if ed.row.startswith("edge["):
                drop.add(ed.row)
                for i in members:
                    new.variables[i].ub = 0
            else:
                for i in members:
                    con.expr.coefs.pop(i, None)
                    con.expr._vars.pop(i, None)
        else:
            return None
    new.constraints = [c for c in new_cons
                       if not (c.name and c.name in drop)]
    return new


#: Crashing a basis of m labels means LU-factorizing it exactly before any
#: dual pivot runs — a small fixed cost in Fraction arithmetic (plus one
#: scipy solve when the crash falls back to the float guess).  Re-measured
#: for the dual re-solve path (revised engine): the crash pays for itself
#: from about a hundred labels up — fig6 pipelined all-reduce (96 labels)
#: re-solves in ~18 ms vs a ~29 ms cold rebuild, fig9 scatter (108) hits
#: ``warm-dual`` with 0 pivots at ~16 ms vs ~20 ms cold, ring24 (577)
#: 166 ms vs 252 ms (2.7x over the old tableau phase-1 repair at 363 ms),
#: x20 scatter ~36x.  Below the floor (fig2: 10 labels, ring8: 65) the
#: exact-LU setup costs more than the couple of milliseconds a cold
#: tableau solve needs, so replan skips the crash and only skips the
#: problem/LP rebuild.
WARM_BASIS_MIN_LABELS = 90


@dataclass
class ReplanReport:
    """Outcome of one incremental re-solve.

    ``replan_s`` is the wall-clock latency of the warm path (problem
    rebuild + warm LP solve); ``cold_s`` is the measured from-scratch
    solve of the *same* perturbed problem when ``compare=True`` was
    requested, so the warm speed-up is an apples-to-apples ratio.
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


def _extract_from_lp(solution, new_problem, lp2, backend, mode, kwargs):
    """Solve the delta-edited LP warm and run the spec's own extractor.

    This rides the exact seams :meth:`CollectiveSpec.solve` is built
    from (``lp_solve`` then ``extract``), just without ``build_lp`` —
    the edited model *is* the perturbed LP.
    """
    from repro.collectives.base import FLOAT_EPS, CompositeCollectiveSpec
    from repro.lp import solve as lp_solve

    spec = solution.spec
    sol2 = lp_solve(lp2, backend=backend, **kwargs)
    if not sol2.optimal:
        raise RuntimeError(f"incremental re-solve failed: {sol2.status}")
    tol = 0 if sol2.exact else FLOAT_EPS
    if isinstance(spec, CompositeCollectiveSpec):
        out = spec.extract(new_problem, lp2, sol2, tol, None)
        out.mode = mode or spec.mode
    else:
        out = spec.extract(new_problem, lp2, sol2, tol,
                           spec.default_passes())
    return out


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
        The acceptance bar asserts warm < 0.5x cold on the paper tiers.

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
    warm_kwargs = dict(kwargs)
    crash = basis is not None and len(basis) >= WARM_BASIS_MIN_LABELS
    warm_backend = backend
    if crash:
        warm_kwargs["warm_basis"] = basis
        warm_kwargs["cache_tag"] = f"perturb:{delta.fingerprint}"
        # a removed link deletes its (usually tight) capacity row,
        # which moves every reduced cost through that row's dual
        # multiplier — the old basis is rarely dual feasible, so the
        # dual entry would pay for a failed crash and fall back.
        # The tableau's feasibility-restoring repair shines here
        # instead: the dead columns pin at 0, presolve shreds them,
        # and the repair re-solves the shrunk LP in a few pivots.
        dropped = any(ed.kind == "drop" for ed in delta.row_edits)
        if not dropped:
            if backend == "exact":
                # scale edits keep the structure: the revised engine
                # owns the fast re-solve routes — the dual entry from
                # the old basis and, when the scaling moved the reduced
                # costs after all, the float-assisted crash fallback,
                # which still beats the tableau's cold pivots on the
                # degenerate composite LPs
                warm_backend = "revised"
            if delta.tightened:
                # the old optimal basis stays dual feasible when the
                # touched terms priced no basic column: enter the dual
                # simplex from it instead of phase-1 feasibility repair
                warm_kwargs["dual"] = True

    # incremental fast path: when the collective survives whole and the
    # delta is pure row edits, skip the problem/LP rebuild entirely —
    # edit the previous solve's model in place and re-solve warm
    lp2 = None
    if not sacrificed:
        old_lp = getattr(solution.lp_solution, "lp", None)
        if old_lp is not None:
            lp2 = apply_delta(old_lp, delta)

    t0 = perf_counter()
    if lp2 is not None:
        new_sol = _extract_from_lp(solution, new_problem, lp2, warm_backend,
                                   mode, warm_kwargs)
    else:
        new_sol = solve_collective(new_problem,
                                   collective=solution.collective,
                                   backend=warm_backend, mode=mode,
                                   **warm_kwargs)
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
                        base_throughput=solution.throughput,
                        warm=lp2 is not None or crash, replan_s=replan_s,
                        sacrificed=sacrificed, cold_s=cold_s,
                        cold_solution=cold_sol)
