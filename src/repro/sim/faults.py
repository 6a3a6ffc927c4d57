"""Mid-run fault injection: break the platform, detect it, replan, resume.

This is the simulator side of the degraded-platform pipeline.  A
:class:`FaultPlan` schedules perturbation events
(:mod:`repro.platform.perturb`) at period boundaries of a running
:class:`~repro.sim.executor.ScheduleExecutor`; :func:`run_with_faults`
drives the full loop:

1. **fire** — at the start of the fault's period, hard events hit the
   executor (:meth:`fail_link` / :meth:`fail_node`): in-flight transfers
   on the dead resource abort back to the sender, buffers at a dead node
   are written off explicitly.
2. **detect** — the stale schedule keeps running; slot transfers that
   reference a dead resource count into ``blocked_last_period``.  A
   nonzero count after a period is the detection signal (soft events —
   link degradations — change no physical route, so they trigger a
   replan immediately: the old schedule still runs but is no longer
   optimal).
3. **replan** — :func:`repro.lp.resolve.replan` re-solves the collective
   warm from the previous LP basis on the perturbed platform (optionally
   degrading around lost members), a new schedule is built, and
   :meth:`~repro.sim.executor.ScheduleExecutor.switch_schedule` swaps it
   in at the next period boundary with an exactly-once hand-off.
4. **resume** — the run continues under the new schedule; after the
   usual warm-up, :func:`steady_window_throughput` measures the
   sustained rate over the trailing periods, exactly (Fractions), for
   comparison ``==`` against the re-solved LP optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.platform.perturb import (Event, LinkDegradation, LinkFailure,
                                    NodeFailure, NodeJoin, parse_event)
from repro.sim.executor import ScheduleExecutor, SimulationResult


@dataclass(frozen=True)
class Fault:
    """One perturbation event, scheduled at the start of ``period``."""

    period: int
    event: Event

    def describe(self) -> str:
        return f"@p{self.period}: {self.event.describe()}"


class FaultPlan:
    """An ordered set of faults against a simulated run.

    Spec syntax (CLI ``--faults``): comma-separated ``PERIOD:EVENT``
    where ``EVENT`` uses the :func:`repro.platform.perturb.parse_event`
    grammar — e.g. ``4:fail:p0:p1,6:down:p2``.
    """

    def __init__(self, faults: Sequence[Fault]):
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: f.period))
        for f in self.faults:
            if f.period < 0:
                raise ValueError(f"fault period must be >= 0: {f}")

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        faults = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            period_s, _, event_s = part.partition(":")
            try:
                period = int(period_s)
            except ValueError:
                raise ValueError(
                    f"bad fault spec {part!r}: want PERIOD:EVENT") from None
            faults.append(Fault(period, parse_event(event_s)))
        return cls(faults)

    def at(self, period: int) -> List[Event]:
        return [f.event for f in self.faults if f.period == period]

    def describe(self) -> str:
        return "; ".join(f.describe() for f in self.faults)


@dataclass
class FaultedRun:
    """Everything observable about one faulted replay."""

    result: SimulationResult
    plan: FaultPlan
    #: One :class:`repro.lp.resolve.ReplanReport` per replan that fired.
    reports: List[object] = field(default_factory=list)
    #: The last solved collective (drives the final schedule).
    final_solution: object = None
    #: Periods at whose start each replanned schedule took over.
    switch_periods: List[int] = field(default_factory=list)

    @property
    def replanned(self) -> bool:
        return bool(self.reports)


def _fire(ex: ScheduleExecutor, event: Event) -> bool:
    """Apply one event to a running executor; returns True when the event
    physically broke something the executor can *detect* (hard fault)."""
    if isinstance(event, LinkFailure):
        ex.fail_link(event.src, event.dst)
        return True
    if isinstance(event, NodeFailure):
        ex.fail_node(event.node)
        return True
    if isinstance(event, (LinkDegradation, NodeJoin)):
        # soft: routes survive, timing/planning changes only — the old
        # schedule keeps executing (its slot timing is what it is), it is
        # just no longer the optimal plan
        return False
    raise TypeError(f"unknown fault event {event!r}")


def run_with_faults(solution, plan: FaultPlan, n_periods: int, op=None,
                    replan: bool = True, on_infeasible: str = "degrade",
                    backend: str = "exact", record_trace: bool = True,
                    engine: str = "auto", **replan_kwargs) -> FaultedRun:
    """Replay ``solution``'s schedule for ``n_periods`` under ``plan``.

    Faults fire at period starts.  With ``replan=True`` (default) the
    first period that *detects* damage — blocked transfers on a dead
    resource, or a soft event that fired — triggers an incremental
    re-solve (:func:`repro.lp.resolve.replan`, warm from the old basis)
    over *all* events accumulated so far, and the re-solved schedule is
    switched in at the next period boundary.  With ``replan=False`` the
    broken schedule just keeps running (useful to observe degradation).

    ``engine`` selects the replay implementation like
    :func:`~repro.sim.executor.simulate_schedule` does, with one more
    rule: computing schedules (reductions) always replay on the reference
    executor here, because a dead resource abandons one input's instances
    and mis-pairs stamps that only per-instance replay sees.  The
    compiled engine recompiles its tables at every fault and schedule
    switch, so the whole faulted loop stays on the fast path for
    pure-communication collectives.  Note the default
    ``record_trace=True`` keeps ``auto`` on the reference executor — pass
    ``record_trace=False`` to let the dispatch rule pick the compiled
    engine.

    ``replan_kwargs`` go to :func:`repro.lp.resolve.replan` (e.g.
    ``compare=True`` to time the warm re-solve against a cold one).
    """
    from repro.collectives import schedule_collective
    from repro.lp.resolve import replan as lp_replan
    from repro.sim.engine import resolve_sim_engine

    schedule = schedule_collective(solution)
    sem = solution.spec.simulation(schedule, solution.problem, op=op)
    resolved = resolve_sim_engine(engine, schedule, combine=sem.combine,
                                  record_trace=record_trace, faulted=True)
    if resolved == "compiled":
        from repro.sim.compiled import VectorizedExecutor

        ex = VectorizedExecutor(schedule, sem.supplies)
    else:
        ex = ScheduleExecutor(schedule, sem.supplies, combine=sem.combine,
                              expected=sem.expected,
                              record_trace=record_trace)

    current = solution
    pending: List[Event] = []   # events not yet folded into a replan
    soft_hit = False            # a fired soft event awaiting a replan
    reports: List[object] = []
    switch_periods: List[int] = []

    for p in range(n_periods):
        for ev in plan.at(p):
            _fire(ex, ev)
            pending.append(ev)
            if not isinstance(ev, (LinkFailure, NodeFailure)):
                soft_hit = True
        if pending and replan:
            # hard damage shows up as blocked transfers once the stale
            # schedule runs into it; soft events are detected immediately
            detected = soft_hit or ex.blocked_last_period > 0
            if detected:
                report = lp_replan(current, tuple(pending), backend=backend,
                                   on_infeasible=on_infeasible,
                                   **replan_kwargs)
                new_sol = report.solution
                new_schedule = schedule_collective(new_sol)
                new_sem = new_sol.spec.simulation(new_schedule,
                                                  report.problem, op=op)
                ex.switch_schedule(new_schedule, new_sem.supplies,
                                   combine=new_sem.combine,
                                   expected=new_sem.expected)
                reports.append(report)
                switch_periods.append(p)
                current = new_sol
                pending = []
                soft_hit = False
        ex.run_period()

    return FaultedRun(result=ex.result(), plan=plan, reports=reports,
                      final_solution=current, switch_periods=switch_periods)


def steady_window_throughput(run: FaultedRun, periods: int = 8,
                             delivery_times: Optional[Dict] = None):
    """Exact sustained throughput over the trailing ``periods`` periods
    of the *final* schedule (:meth:`SimulationResult.steady_window_throughput`,
    optionally over other ``delivery_times``): it compares ``==`` against
    the re-solved LP's rational optimum once the post-switch warm-up has
    passed."""
    return run.result.steady_window_throughput(periods, delivery_times)
