"""The single solve pipeline every collective goes through.

``solve_collective`` is the one solve entry point for every collective:
resolve the spec, validate the problem, and dispatch to the
spec's :meth:`~repro.collectives.base.CollectiveSpec.solve` — by default
the classic build-LP / solve / extract pipeline with a configurable
flow-cleaning pass pipeline; composites override it to solve a joint LP
over shared capacities or to chain per-stage solves (sequential phases).
``schedule_collective`` is the matching registry-dispatched schedule
reconstruction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.collectives.base import CollectiveSolution
from repro.collectives.registry import resolve_collective

if TYPE_CHECKING:  # lazy: repro.core's package __init__ imports back here
    from repro.core.flowclean import FlowPass


def solve_collective(problem, collective: Optional[str] = None,
                     backend: str = "auto",
                     passes: Optional[Sequence["FlowPass"]] = None,
                     mode: Optional[str] = None,
                     on_infeasible: Optional[str] = None,
                     **solve_kwargs) -> CollectiveSolution:
    """Solve a steady-state collective end to end.

    Parameters
    ----------
    problem:
        Any registered problem instance (``ScatterProblem``,
        ``ReduceProblem``, ``GossipProblem``, ``ReduceScatterProblem``, ...).
    collective:
        Spec name override; needed when one problem type serves several
        collectives (``ReduceProblem`` -> ``"reduce"`` or ``"prefix"``).
    backend:
        LP backend (``"auto"`` / ``"exact"`` / ``"highs"``).
    passes:
        Flow post-processing pipeline; defaults to the spec's
        ``default_passes()``.
    mode:
        Composition-mode override for composite collectives
        (``"joint"`` / ``"sequential"`` / ``"pipelined"``); ``None``
        keeps the spec's default.  Rejected for plain collectives.
    on_infeasible:
        ``"degrade"`` — shrink the collective to the surviving reachable
        node set before solving (:func:`repro.collectives.degrade
        .degrade_problem`) and record the dropped nodes on
        ``solution.sacrificed``; ``None``/``"error"`` (default) — solve
        the problem exactly as given.
    solve_kwargs:
        Forwarded to :func:`repro.lp.solve` (``canonical``, ``cache``,
        ``warm_basis``, ``cache_tag``, ...).
    """
    sacrificed = ()
    if on_infeasible not in (None, "error", "degrade"):
        raise ValueError(f"unknown on_infeasible policy {on_infeasible!r}")
    if on_infeasible == "degrade":
        from repro.collectives.degrade import degrade_problem

        problem, sacrificed = degrade_problem(problem)
    spec = resolve_collective(problem, collective)
    spec.validate(problem)
    if mode is not None:
        from repro.collectives.base import CompositeCollectiveSpec

        if not isinstance(spec, CompositeCollectiveSpec):
            raise ValueError(f"{spec.name!r} is not a composite collective; "
                             "the mode option does not apply")
        sol = spec.solve(problem, backend=backend, passes=passes,
                         mode=mode, **solve_kwargs)
    else:
        sol = spec.solve(problem, backend=backend, passes=passes,
                         **solve_kwargs)
    if sacrificed:
        sol.sacrificed = sacrificed
    return sol


def schedule_collective(solution: CollectiveSolution):
    """Periodic one-port schedule for any collective solution.

    Applies the spec's declared ``delivery_mode`` to the built schedule
    when the spec's ``build_schedule`` did not pin one itself, so setting
    the class attribute is sufficient for any spec.
    """
    spec = solution.spec
    schedule = spec.build_schedule(solution)
    if spec.delivery_mode is not None and schedule.delivery_mode is None:
        schedule.delivery_mode = spec.delivery_mode
    return schedule
