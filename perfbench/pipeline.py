"""Request execution (untraced and traced), bounded replay, and the
correctness gate.

The untraced path calls the library the way a user does:
``solve_collective`` -> ``verify()`` -> ``schedule_collective``, then a
replay through ``simulate_collective``.  The traced path makes the same
calls one layer down -- ``spec.build_lp`` -> ``repro.lp.solve`` ->
``spec.extract``, the replay executors directly -- and times each call
from here, so the library itself carries no instrumentation.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, NamedTuple

from repro.baselines.algorithms import AlgorithmSpec
from repro.collectives import (
    CompositeCollectiveSpec, resolve_collective, schedule_collective,
    solve_collective,
)
from repro.lp import solve as lp_solve
from repro.sim.compiled import VectorizedExecutor
from repro.sim.engine import resolve_sim_engine
from repro.sim.executor import ScheduleExecutor, simulate_collective
from repro.tune import applicable_baselines
from speed import clock

#: Trailing periods whose delivery rate must equal the planned TP.
WINDOW = 3
#: Periods replayed beyond the fill estimate before the window opens.
SETTLE = 2
#: Replay work per request, in the unit each engine's cost follows:
#: message instances for the reference executor, slot-transfer events
#: for the compiled one.  A replay runs past pipeline fill until it has
#: done TARGET units, so every replay does a comparable amount of work;
#: one whose fill alone would exceed BUDGET is not started.
TARGET = {"reference": 5_000, "compiled": 20_000}
BUDGET = {"reference": 50_000, "compiled": 3_000_000}

SOLVE_KW = {"cache": False, "jobs": 1}


class Recorder:
    """Per-run span totals and counters, kept in memory."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        t0 = clock()
        try:
            yield
        finally:
            self.seconds[name] += clock() - t0

    def count(self, key: str, n=1) -> None:
        self.counts[key] += n


class CheckFailed(Exception):
    """A request's output disagreed with its independent reference."""


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------

def plan_untraced(problem, req):
    kw = {"mode": req.mode} if req.mode else {}
    sol = solve_collective(problem, collective=req.collective, **kw,
                           **SOLVE_KW)
    bad = sol.verify()
    sched = schedule_collective(sol)
    return sol, bad, sched


def solve_traced(problem, req, rec: Recorder):
    """The traced decomposition of ``solve_collective``: spans around
    ``build_lp`` / ``repro.lp.solve`` / ``extract`` for single-LP and
    joint/pipelined specs, one span around the whole call otherwise.
    ``validate`` runs inside the first span: a baseline's validation
    builds (and memoizes) its whole plan."""
    spec = resolve_collective(problem, req.collective)
    composite = isinstance(spec, CompositeCollectiveSpec)
    mode = (req.mode or spec.mode) if composite else None
    if isinstance(spec, AlgorithmSpec):
        with rec.span("baselines.solve_s"):
            return solve_collective(problem, collective=spec.name, **SOLVE_KW)
    if mode == "sequential":
        with rec.span("collectives.solve_s"):
            return solve_collective(problem, collective=spec.name,
                                    mode=mode, **SOLVE_KW)
    with rec.span("collectives.build_lp_s"):
        spec.validate(problem)
        lp = spec.build_lp(problem, mode) if composite else spec.build_lp(problem)
        pricing = spec.pricing_graphs(problem)
    t0 = clock()
    sol = lp_solve(lp, backend="auto", pricing=pricing, **SOLVE_KW)
    elapsed = clock() - t0
    route = lp_route(sol)
    rec.seconds[f"lp.solve_s.{route}"] += elapsed
    record_lp_stats(sol, route, rec)
    if not sol.optimal:
        raise RuntimeError(f"LP solve failed: {sol.status}")
    tol = 0 if sol.exact else 1e-9
    with rec.span("collectives.extract_s"):
        if composite:
            out = spec.extract(problem, lp, sol, tol, None)
            out.mode = mode
        else:
            out = spec.extract(problem, lp, sol, tol, spec.default_passes())
    return out


def plan_traced(problem, req, rec: Recorder):
    sol = solve_traced(problem, req, rec)
    with rec.span("collectives.verify_s"):
        bad = sol.verify()
    return sol, bad, schedule_traced(sol, rec)


def schedule_traced(sol, rec: Recorder):
    with rec.span("core.schedule_s"):
        sched = schedule_collective(sol)
    rec.count("core.schedule.slots", len(sched.slots))
    rec.count("core.schedule.transfers",
              sum(len(s.transfers) for s in sched.slots))
    return sched


def lp_route(sol) -> str:
    stats = sol.stats or {}
    if stats.get("engine") == "colgen":
        return "colgen"
    return {"exact-simplex": "tableau", "revised-simplex": "revised"}.get(
        sol.backend, "highs")


def record_lp_stats(sol, route: str, rec: Recorder) -> None:
    stats = sol.stats or {}
    rec.count("lp.vars_raw", stats.get("vars_raw", 0))
    rec.count("lp.vars_presolved", stats.get("vars_presolved", 0))
    if route == "tableau":
        rec.count("lp.pivots", sol.iterations or 0)
    elif route == "revised":
        rec.count("lp.pivots", stats.get("pivots", 0))
    elif route == "colgen":
        rec.count("lp.colgen.rounds", stats.get("rounds", 0))
        rec.count("lp.colgen.columns", stats.get("columns", 0))
        rec.seconds["lp.colgen.master_s"] += stats.get("master_s", 0.0)
        rec.seconds["lp.colgen.pricing_s"] += stats.get("pricing_s", 0.0)


# ----------------------------------------------------------------------
# bounded replay
# ----------------------------------------------------------------------

def fill_depth(sched) -> int:
    """Longest chain of hops and merges an instance passes through in one
    operation.  Vertices are ``(node, item)``; edges are transfers,
    replica fan-outs and compute-task inputs."""
    succ: Dict[tuple, set] = defaultdict(set)
    for slot in sched.slots:
        for tr in slot.transfers:
            succ[(tr.src, tr.item)].add((tr.dst, tr.item))
    for (node, item), reps in sched.replicas.items():
        for rep in reps:
            succ[(node, item)].add((node, rep))
    for node, tasks in sched.compute.items():
        for task in tasks:
            for inp in task.inputs:
                succ[(node, inp)].add((node, task.output))
    indeg: Dict[tuple, int] = defaultdict(int)
    verts = set(succ)
    for outs in succ.values():
        for v in outs:
            indeg[v] += 1
            verts.add(v)
    depth = {v: 0 for v in verts}
    ready = [v for v in verts if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ.get(v, ()):
            depth[w] = max(depth[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if seen < len(verts):  # a cycle: bound by the node count instead
        return len({n for n, _ in verts})
    return max(depth.values(), default=0)


class ReplayPlan(NamedTuple):
    """Length of one bounded replay; ``fill == periods == 0`` when the
    budget rules the replay out."""

    engine: str
    fill: int          # periods until the steady window closes
    periods: int       # fill, extended to the per-request work target
    transfers: int     # slot-transfer events per period
    ops: int           # message instances per period
    #: replay events per period, counted in the unit the engine's cost
    #: follows: ``ops`` on the reference engine, ``transfers`` on the
    #: compiled one
    events: int


def replay_plan(sched, spec, problem, work: int = 1) -> ReplayPlan:
    """``work``: the replay runs to ``work * TARGET`` units past fill."""
    sem = spec.simulation(sched, problem)
    engine = resolve_sim_engine("auto", sched, combine=sem.combine,
                                record_trace=False)
    # an instance can slip up to two periods per hop at fractional rates
    fill = 2 * fill_depth(sched) + WINDOW + SETTLE
    transfers = sum(len(s.transfers) for s in sched.slots)
    ops = int(sum(Fraction(tr.units) for s in sched.slots
                  for tr in s.transfers)) + 1
    cost = ops if engine == "reference" else transfers
    if cost * fill > BUDGET[engine]:
        return ReplayPlan(engine, 0, 0, transfers, ops, cost)
    periods = max(fill, work * TARGET[engine] // cost)
    return ReplayPlan(engine, fill, periods, transfers, ops, cost)


def replay_untraced(sched, problem, collective, periods):
    return simulate_collective(sched, problem, n_periods=periods,
                               collective=collective, record_trace=False)


def replay_traced(sched, spec, problem, periods, rec: Recorder):
    sem = spec.simulation(sched, problem)
    engine = resolve_sim_engine("auto", sched, combine=sem.combine,
                                record_trace=False)
    if engine == "compiled":
        with rec.span("sim.compile_s"):
            ex = VectorizedExecutor(sched, sem.supplies)
        with rec.span("sim.compiled.replay_s"):
            ex.run_periods(periods)
            return ex.result()
    with rec.span("sim.reference.replay_s"):
        ex = ScheduleExecutor(sched, sem.supplies, combine=sem.combine,
                              expected=sem.expected, record_trace=False)
        for _ in range(periods):
            ex.run_period()
        return ex.result()


# ----------------------------------------------------------------------
# correctness gate (runs outside the timed spans)
# ----------------------------------------------------------------------

def check_steady(res, sol, problem, periods) -> None:
    """The replay's trailing-window delivery rate must equal the planned
    TP exactly (times the spec's count of TP-rate delivery groups)."""
    if not res.correct:
        raise CheckFailed("replay errors: "
                          f"{(res.errors + res.one_port_violations)[:2]}")
    got = res.steady_window_throughput(periods=WINDOW)
    want = Fraction(sol.throughput) * sol.spec.ops_bound_factor(problem)
    if got != want:
        raise CheckFailed(f"steady-window rate {got} != planned {want} "
                          f"after {periods} periods")


def check_plan(req, sol, bad) -> None:
    """Invariants, the TP reference, and LP dominance over baselines."""
    if bad:
        raise CheckFailed(f"verify(): {bad[:2]}")
    if not sol.exact:
        raise CheckFailed("solution is not exact")
    tp = Fraction(sol.throughput)
    if isinstance(req.expect, Fraction):
        if tp != req.expect:
            raise CheckFailed(f"TP {tp} != pinned {req.expect}")
    elif req.expect == "highs":
        check_highs(req.build(), req.collective, req.mode, tp)
    if req.mode != "sequential" and req.expect != "sim":
        check_baselines(req.build(), tp)


def check_highs(problem, collective, mode, tp) -> None:
    kw = {"mode": mode} if mode else {}
    ref = solve_collective(problem, collective=collective, backend="highs",
                           **kw, **SOLVE_KW)
    # HiGHS stops at float tolerances: agree to 1e-4 relative
    if abs(float(ref.throughput) - float(tp)) > 1e-4 * max(float(tp), 1e-9):
        raise CheckFailed(f"TP {tp} != HiGHS optimum "
                          f"{float(ref.throughput):.9g}")


def check_baselines(problem, tp) -> None:
    """Every applicable classical plan is a feasible point of the LP, so
    its rate can never beat the LP optimum."""
    for spec in applicable_baselines(problem):
        base = solve_collective(problem, collective=spec.name)
        if Fraction(base.throughput) > tp:
            raise CheckFailed(f"baseline {spec.name} TP {base.throughput} "
                              f"beats LP TP {tp}")


def solution_digest(sol, sched) -> str:
    """Bit-level fingerprint of a plan: TP, every send rate, the schedule."""
    h = hashlib.sha256()
    h.update(repr(sol.throughput).encode())
    h.update(repr(sorted((repr(k), repr(v))
                         for k, v in sol.send.items())).encode())
    h.update(repr((sched.period, sched.throughput)).encode())
    for slot in sched.slots:
        h.update(repr((slot.duration,
                       [(repr(t.src), repr(t.dst), repr(t.item),
                         repr(t.units), repr(t.time))
                        for t in slot.transfers])).encode())
    return h.hexdigest()
