"""The closed loop: one client sends one request at a time and waits.

A run sends the workload's stream until the measured request time
reaches ``--seconds`` at a cycle boundary, so every run measures whole
cycles of the same mix of slots.  Each request is checked outside its
timed span; a failed check is counted and listed, never fatal.

Each request's timed part runs under speed probes and its times are
scaled to the probe's reference speed (see ``speed.py``).  The gated metrics take
the median of each slot's samples first and combine the slots after,
so neither one slow request nor the seed's draw of which instance lands
next to a pooled median moves them.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from collections import defaultdict

import pipeline as pl
import speed
import workloads as wl
from repro.collectives import schedule_collective
from repro.lp import dispatch
from repro.lp.resolve import replan
from repro.sim.faults import (
    Fault, FaultPlan, run_with_faults, steady_window_throughput,
)

#: Spans that partition a traced request's time; ``unattributed_s``
#: is the remainder.  (``lp.colgen.*_s`` are parts of ``lp.solve_s.colgen``.)
TOP_SPANS = (
    "collectives.build_lp_s", "lp.solve_s.tableau", "lp.solve_s.revised",
    "lp.solve_s.colgen", "lp.solve_s.highs", "collectives.extract_s",
    "collectives.solve_s", "collectives.verify_s", "baselines.solve_s",
    "core.schedule_s", "sim.compile_s", "sim.compiled.replay_s",
    "sim.reference.replay_s", "lp.resolve.replan_s", "sim.faults.run_s",
)

#: Per-layer metrics of a traced run, with their units.
PER_LAYER = {
    "collectives.build_lp_s": "s", "lp.solve_s.tableau": "s",
    "lp.pivots": "count", "lp.solve_s.revised": "s",
    "lp.solve_s.colgen": "s", "lp.colgen.rounds": "count",
    "lp.colgen.columns": "count", "lp.colgen.master_s": "s",
    "lp.colgen.pricing_s": "s", "lp.vars_raw": "count",
    "lp.vars_presolved": "count", "collectives.extract_s": "s",
    "collectives.solve_s": "s", "collectives.verify_s": "s",
    "baselines.solve_s": "s", "core.schedule_s": "s",
    "core.schedule.transfers": "count", "core.schedule.slots": "count",
    "sim.compile_s": "s", "sim.compiled.replay_s": "s",
    "sim.reference.replay_s": "s", "sim.op_instances": "count",
    "lp.resolve.replan_s": "s", "lp.resolve.warm_ratio": "ratio",
    "sim.faults.run_s": "s", "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: Set-up repetitions; ``setup_s`` reports import time plus their median.
SETUP_REPS = 5


class Run:
    """State and metrics of one closed-loop run."""

    def __init__(self, trace: bool):
        self.rec = pl.Recorder() if trace else None
        self.plan_s: list = []        # reference seconds
        self.replan_s: list = []      # reference seconds
        self.request_s = 0.0          # untraced request time, summed
        self.traced_s = 0.0           # traced request time, summed
        self.replay_events = 0
        self.replays = 0
        self.ok = 0
        self.attempted = 0
        self.failures: list = []
        self.plans: dict = {}         # stream index -> (request, solution)
        self.timed: dict = {}         # the current request's CPU seconds
        self.factor = 1.0             # and their scale to reference seconds
        self.peak_rss = 0.0           # MB, after set-up and the first cycle
        # per slot, in reference seconds: plan times, request times, and
        # (replay events, replay time) pairs
        self.slot_plan_s = defaultdict(list)
        self.slot_request_s = defaultdict(list)
        self.slot_replays = defaultdict(list)
        self.replans = 0
        self.warm_replans = 0

    def drive(self, workload: str, seed: int, seconds: float) -> None:
        cycle = wl.CYCLE[workload]
        started = time.monotonic()
        for i, req in enumerate(wl.stream(workload, seed)):
            if i == cycle:
                # Each slot has run once.  A rare paper_mix all-gather
                # instance adds 20-30 MB, so a peak over the whole run
                # would follow how many cycles the run drew, not the code.
                self.peak_rss = peak_rss_mb()
            if i % cycle == 0 and self.request_s + self.traced_s >= seconds:
                break
            if time.monotonic() - started > 3 * seconds + 30:
                break  # hard stop well inside the per-run time limit
            self.attempted += 1
            gc.collect()  # every request starts from a collected heap
            self.timed = {}
            speed.start()
            try:
                if req.kind == "plan":
                    self.plan(i, req)
                else:
                    self.replan(req)
                self.ok += 1
            except Exception as exc:  # a failed request is counted, not fatal
                self.failures.append(f"{req.label}: {type(exc).__name__}: {exc}")
            finally:
                speed.stop()
            self.record(req.slot)
            dispatch.clear_cache()

    def stop_clock(self, **timed) -> None:
        """Keep the request's timed CPU seconds and end its speed probing,
        before the checks."""
        self.timed = timed
        self.factor = speed.stop()

    def record(self, slot: str) -> None:
        """File the request's times in reference seconds."""
        if not self.timed:
            return
        k = self.factor
        events = self.timed.pop("events", 0)
        replays = [k * sec for sec in self.timed.pop("replays", ())]
        t = {name: k * sec for name, sec in self.timed.items()}
        self.slot_request_s[slot].append(sum(t.values()) + sum(replays))
        if "plan" in t:
            self.plan_s.append(t["plan"])
            self.slot_plan_s[slot].append(t["plan"])
        if "replan" in t:
            self.replan_s.append(t["replan"])
        if replays:
            self.slot_replays[slot] += [(events, sec) for sec in replays]

    # ------------------------------------------------------------ plans
    def plan(self, i: int, req) -> None:
        problem = req.build()
        t0 = pl.clock()
        sol, bad, sched = pl.plan_untraced(problem, req)
        plan_s = pl.clock() - t0
        rp = pl.replay_plan(sched, sol.spec, problem, req.replay_work) \
            if req.replay else None
        periods = rp.periods if rp else 0
        events = rp.events * periods if periods else 0
        res, replays = None, []
        for _ in range(req.replay_repeats if periods else 0):
            t1 = pl.clock()
            res = pl.replay_untraced(sched, problem, req.collective, periods)
            replays.append(pl.clock() - t1)
        self.replays += len(replays)
        self.replay_events += events * len(replays)
        self.request_s += plan_s + sum(replays)
        self.stop_clock(plan=plan_s, replays=replays, events=events)

        pl.check_plan(req, sol, bad)
        if res is not None:
            pl.check_steady(res, sol, problem, periods)
        if self.rec is not None:
            self.plan_traced(req, sol, sched, periods)
        if req.keep:  # only the latest few can be replan targets
            self.plans[i] = (req, sol)
            for old in sorted(self.plans)[:-wl.REPLAN_WINDOW]:
                del self.plans[old]

    def plan_traced(self, req, sol, sched, periods) -> None:
        problem = req.build()
        t0 = pl.clock()
        sol2, _bad, sched2 = pl.plan_traced(problem, req, self.rec)
        res, repeats = None, req.replay_repeats if periods else 0
        for _ in range(repeats):
            res = pl.replay_traced(sched2, sol2.spec, problem, periods,
                                   self.rec)
        self.traced_s += pl.clock() - t0
        if pl.solution_digest(sol, sched) != pl.solution_digest(sol2, sched2):
            raise pl.CheckFailed("traced decomposition gave a different plan")
        if periods:
            ops = pl.replay_plan(sched2, sol2.spec, problem).ops
            self.rec.count("sim.op_instances", ops * periods * repeats)
            pl.check_steady(res, sol2, problem, periods)

    # ----------------------------------------------------------- replans
    def replan(self, req) -> None:
        target, sol = self.plans[req.target]
        event = wl.draw_event(sol, req.event)
        t0 = pl.clock()
        report = replan(sol, (event,), **pl.SOLVE_KW)
        new_sched = schedule_collective(report.solution)
        replan_s = pl.clock() - t0
        new_sol = report.solution
        fill = pl.replay_plan(new_sched, new_sol.spec, report.problem).fill
        # a hard fault is detected one period after it fires; the new
        # schedule then needs its own fill
        n = 3 + fill if fill else 0
        fplan = FaultPlan([Fault(1, event)])
        run_s = 0.0
        if n:
            t1 = pl.clock()
            fr = run_with_faults(sol, fplan, n, record_trace=False,
                                 **pl.SOLVE_KW)
            run_s = pl.clock() - t1
        self.request_s += replan_s + run_s
        self.stop_clock(replan=replan_s, faulted_run=run_s)
        self.replans += 1
        self.warm_replans += bool(report.warm)

        bad = new_sol.verify()
        if bad:
            raise pl.CheckFailed(f"replanned verify(): {bad[:2]}")
        pl.check_highs(report.problem, target.collective, target.mode,
                       new_sol.throughput)
        if n:
            if not fr.replanned or \
                    fr.final_solution.throughput != new_sol.throughput:
                raise pl.CheckFailed("faulted run did not switch to the replan")
            if fr.result.errors:
                raise pl.CheckFailed(
                    f"faulted replay errors: {fr.result.errors[:2]}")
            want = new_sol.throughput * \
                new_sol.spec.ops_bound_factor(report.problem)
            got = steady_window_throughput(fr, periods=pl.WINDOW)
            if got != want:
                raise pl.CheckFailed(f"post-switch steady rate {got} != {want}")
        if self.rec is not None:
            self.replan_traced(sol, event, fplan, n)

    def replan_traced(self, sol, event, fplan, n) -> None:
        rec = self.rec
        t0 = pl.clock()
        with rec.span("lp.resolve.replan_s"):
            report = replan(sol, (event,), **pl.SOLVE_KW)
        pl.schedule_traced(report.solution, rec)
        if n:
            t1 = pl.clock()
            fr = run_with_faults(sol, fplan, n, record_trace=False,
                                 **pl.SOLVE_KW)
            inner = sum(r.replan_s for r in fr.reports)
            rec.seconds["sim.faults.run_s"] += pl.clock() - t1 - inner
            rec.seconds["lp.resolve.replan_s"] += inner
        self.traced_s += pl.clock() - t0

    # ------------------------------------------------------------ report
    def end_to_end(self, setup_s: float) -> dict:
        """``plan_s.slot_p50``: geometric mean over slots of each slot's
        median cold plan time.  ``plans_per_s``: a typical cycle's
        requests over its time, each slot counting its median request as
        many times as it ran.  ``replay_events_per_s``: geometric mean
        over slots of each slot's median replay rate.  A random slot's
        replays differ in shape from cycle to cycle, and the time of a
        median-sized replay is not the time of the median rate, so the
        rate is taken per replay.  ``peak_rss_mb``: peak resident memory
        over set-up and the first cycle."""
        peak = self.peak_rss or peak_rss_mb()
        plan_meds = [statistics.median(xs) for xs in self.slot_plan_s.values()]
        rates = [statistics.median(e / t for e, t in xs)
                 for xs in self.slot_replays.values()]
        requests = request_s = 0.0
        for xs in self.slot_request_s.values():
            requests += len(xs)
            request_s += len(xs) * statistics.median(xs)
        return {
            "setup_s": (setup_s, "s"),
            "plan_s.slot_p50": (geomean(plan_meds), "s"),
            "plans_per_s": (requests / request_s, "1/s"),
            "replay_events_per_s": (geomean(rates), "1/s"),
            "peak_rss_mb": (peak, "MB"),
        }

    def extra(self) -> dict:
        """Metrics printed for reading, not gated: pooled over all
        requests, defined on some workloads only, or zero on a clean
        run."""
        out = {"fail_ratio": (len(self.failures) / self.attempted, "ratio"),
               "plan_s.p50": (statistics.median(self.plan_s), "s")}
        if len(self.plan_s) >= 100:
            out["plan_s.p90"] = (p90(self.plan_s), "s")
        if self.replan_s:
            out["replan_s.p50"] = (statistics.median(self.replan_s), "s")
        if len(self.replan_s) >= 100:
            out["replan_s.p90"] = (p90(self.replan_s), "s")
        return out

    def per_layer(self) -> dict:
        rec = self.rec
        out = {}
        for name, unit in PER_LAYER.items():
            source = rec.counts if unit == "count" else rec.seconds
            out[name] = (source.get(name, 0), unit)
        spans = sum(rec.seconds.get(name, 0.0) for name in TOP_SPANS)
        out["unattributed_s"] = (self.traced_s - spans, "s")
        out["lp.resolve.warm_ratio"] = (
            self.warm_replans / self.replans if self.replans else 0.0, "ratio")
        out["trace_overhead_ratio"] = (self.traced_s / self.request_s, "ratio")
        return out

    def samples(self, name: str):
        """Sample count printed beside a metric (None: not a sample)."""
        return {"setup_s": SETUP_REPS, "plan_s.p50": len(self.plan_s),
                "plan_s.slot_p50": f"{len(self.plan_s)} in "
                                   f"{len(self.slot_plan_s)} slots",
                "plan_s.p90": len(self.plan_s), "plans_per_s": self.ok,
                "replay_events_per_s": f"{self.replays} in "
                                       f"{len(self.slot_replays)} slots",
                "replan_s.p50": len(self.replan_s),
                "replan_s.p90": len(self.replan_s)}.get(name)


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8]


def geomean(xs) -> float:
    return math.exp(statistics.fmean(map(math.log, xs)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str, seed: int) -> float:
    """One set-up, in reference seconds: build a stream cycle's problems
    and warm every layer with small plans, replays on both engines and a
    HiGHS solve."""
    speed.start()
    t0 = pl.clock()
    try:
        reqs = [req for _, req in zip(range(wl.CYCLE[workload]),
                                      wl.stream(workload, seed))]
        for req in reqs:
            if req.kind == "plan":
                req.build()
        for req in wl.warmup_requests():
            problem = req.build()
            sol, _bad, sched = pl.plan_untraced(problem, req)
            periods = pl.replay_plan(sched, sol.spec, problem).periods
            pl.replay_untraced(sched, problem, req.collective, periods)
            pl.check_highs(req.build(), req.collective, req.mode,
                           sol.throughput)
        dispatch.clear_cache()
    finally:
        factor = speed.stop()
    return (pl.clock() - t0) * factor
