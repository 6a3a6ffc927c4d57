"""Perf-report helper: times the exact-LP hot path and writes
``BENCH_PR3.json``.

The measured path is the one ``repro.lp.solve`` takes for an exact solve
(cold, no cache): :func:`repro.lp.presolve.presolve`, the indexed
fraction-free simplex (:class:`repro.lp.exact_simplex.ExactSimplexSolver`,
Devex pricing), and the postsolve map back to original variables.  Per
case:

- ``build_s`` — LP model construction (the ``lin_sum``/``add_term`` path),
- ``presolve_s`` / ``presolved_vars`` / ``presolved_rows`` — reduction
  cost and how much of the model it removes,
- ``exact_solve_s`` — presolve + simplex + postsolve, end to end,
- ``before_exact_solve_s`` — the same case under the PR 1 solver (dense
  → sparse era): read from the committed ``BENCH_PR1.json`` where the
  case existed, else the timing recorded once on this machine when this
  baseline was created (``"recorded": true``).  ``ring48_scatter`` also
  sat beyond the old ``EXACT_VAR_LIMIT = 2000``, so its "before" never
  ran inside the auto-dispatch pipeline at all.

``BENCH_PR1.json`` is the frozen PR 1 record (dense-vs-sparse); it is no
longer rewritten.  Run this module to (re)generate the live baseline::

    PYTHONPATH=src python benchmarks/perf_report.py

``benchmarks/test_perf_lp.py`` drives the same machinery inside the test
suite, and ``tests/perf/test_perf_smoke.py`` guards the committed
``BENCH_PR3.json`` against >2× regressions of the fig9 tier and the two
scaled tiers (``complete7_reduce``, ``ring48_scatter``).
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core.reduce_op import ReduceProblem, build_reduce_lp
from repro.core.scatter import ScatterProblem, build_scatter_lp
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import LinearProgram, lin_sum
from repro.lp.presolve import presolve
from repro.platform.examples import (
    figure2_platform, figure2_targets, figure6_platform,
    figure9_participants, figure9_platform, figure9_target,
)
from repro.platform.generators import complete, ring

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"
PR1_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR1.json"
REPLAN_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
REVISED_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"
COLGEN_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"
SIM_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"
TUNE_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"

#: End-to-end auto-dispatch timings of the colgen tiers *before* colgen
#: existed (the revised engine took them), measured on the machine that
#: produced the committed ``BENCH_PR7.json``.  Used as the fallback
#: "before" when that file is absent.
RECORDED_PR7_SECONDS = {
    "fig9_8host_allreduce_pipelined": 7.4324,
    "ring128_scatter": 19.2339,
}

#: PR 1-solver timings for cases that did not exist in ``BENCH_PR1.json``,
#: measured once on the machine that produced the committed baseline.
RECORDED_PR1_SECONDS = {
    # priced phase 1 + Dantzig thrashed the degenerate optimal face
    "complete7_reduce": 254.2,
    # 4419 vars: beyond the old EXACT_VAR_LIMIT=2000 (auto-dispatch sent
    # it to HiGHS); timing is the PR 1 solver run directly
    "ring48_scatter": 2.80,
}


def _fig9_problem() -> ReduceProblem:
    return ReduceProblem(figure9_platform(), participants=figure9_participants(),
                         target=figure9_target(), msg_size=10, task_work=10)


def _cases() -> Dict[str, Callable[[], LinearProgram]]:
    """name -> LP builder.  Paper-scale cases first, then 5–20× scaled."""
    def fig2_scatter():
        g = figure2_platform()
        return build_scatter_lp(ScatterProblem(g, "Ps", figure2_targets()))

    def fig6_reduce():
        return build_reduce_lp(ReduceProblem(figure6_platform(), [0, 1, 2], 0))

    def fig9_reduce():
        return build_reduce_lp(_fig9_problem())

    def complete_reduce(n):
        g = complete(n, cost=1)
        return build_reduce_lp(ReduceProblem(g, g.nodes(), g.nodes()[0]))

    def ring_scatter(n):
        g = ring(n, cost=1)
        nodes = g.nodes()
        return build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))

    def fig9_allgather():
        # PR 4 workload rung: the joint composite LP — 8 broadcast stages
        # over the shared fig9 capacities, assembled by compose_joint_lp
        from repro.collectives import get_collective
        from repro.core.allgather import AllGatherProblem

        problem = AllGatherProblem(figure9_platform(),
                                   figure9_participants(), msg_size=10)
        return get_collective("all-gather").build_lp(problem)

    def complete6_allgather():
        from repro.collectives import get_collective
        from repro.core.allgather import AllGatherProblem

        g = complete(6, cost=1)
        return get_collective("all-gather").build_lp(
            AllGatherProblem(g, g.nodes()))

    return {
        "fig2_scatter": fig2_scatter,
        "fig6_reduce": fig6_reduce,
        "complete5_reduce": lambda: complete_reduce(5),
        "complete6_reduce": lambda: complete_reduce(6),
        "ring24_scatter": lambda: ring_scatter(24),
        "fig9_reduce": fig9_reduce,
        # the PR 3 tiers: previously near-minute or outside the exact path
        "complete7_reduce": lambda: complete_reduce(7),
        "ring48_scatter": lambda: ring_scatter(48),
        # the PR 4 composition tiers (joint composite LPs)
        "fig9_allgather": fig9_allgather,
        "complete6_allgather": complete6_allgather,
    }


def _composite_cases() -> Dict[str, Callable[[], object]]:
    """name -> end-to-end exact solve of a composed collective.

    Sequential composites (all-reduce) have no single LP, so these tiers
    time ``solve_collective`` cold (memo cache off): stage LP builds,
    presolve, simplex and extraction for every stage.
    """
    from repro.collectives import solve_collective
    from repro.core.allreduce import AllReduceProblem

    def fig9_allreduce4():
        problem = AllReduceProblem(figure9_platform(),
                                   figure9_participants()[:4], msg_size=10,
                                   task_work=10)
        return solve_collective(problem, collective="all-reduce",
                                backend="exact", cache=False)

    def complete5_allreduce():
        g = complete(5, cost=1)
        return solve_collective(AllReduceProblem(g, g.nodes()),
                                collective="all-reduce", backend="exact",
                                cache=False)

    def fig6_allreduce_pipelined():
        # PR 5 workload rung: the chained joint LP overlapping both
        # phases (task_work=2 makes the reduce-scatter compute-bound, so
        # the pipelined TP=1/4 strictly beats the harmonic 1/5)
        problem = AllReduceProblem(figure6_platform(), [0, 1, 2],
                                   task_work=2)
        return solve_collective(problem, collective="all-reduce",
                                backend="exact", cache=False,
                                mode="pipelined")

    return {
        "fig9_allreduce4": fig9_allreduce4,
        "complete5_allreduce": complete5_allreduce,
        "fig6_allreduce_pipelined": fig6_allreduce_pipelined,
    }


def _replan_cases() -> Dict[str, Callable[[], tuple]]:
    """name -> () -> (solved collective, perturbation events).

    The PR 6 degraded-planning tiers: each case is a solved collective
    plus the events to replan around.  The paper-figure instances are
    millisecond-scale (the warm crash costs about a cold solve there —
    see ``WARM_BASIS_MIN_LABELS``); ``x20_scatter_slow`` is the tier
    where the basis is large enough for the warm path to win outright,
    and the one the perf smoke guard holds to the <0.5x acceptance bar.
    """
    from fractions import Fraction

    from repro.collectives import solve_collective
    from repro.core.allreduce import AllReduceProblem
    from repro.platform.generators import heterogenize, random_connected
    from repro.platform.perturb import LinkDegradation, LinkFailure

    def fig9_scatter():
        g = figure9_platform()
        src = figure9_target()
        targets = [p for p in figure9_participants() if p != src]
        return solve_collective(ScatterProblem(g, src, targets),
                                backend="exact", cache=False)

    def fig6_allreduce():
        problem = AllReduceProblem(figure6_platform(), [0, 1, 2],
                                   task_work=2)
        return solve_collective(problem, collective="all-reduce",
                                backend="exact", cache=False,
                                mode="pipelined")

    def x20_scatter():
        g = heterogenize(random_connected(20, extra_edges=24, seed=5), 9)
        nodes = g.compute_nodes()
        return solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                                backend="exact", cache=False)

    return {
        "fig9_scatter_slow": lambda: (fig9_scatter(),
                                      (LinkDegradation(2, 8, factor=2),)),
        "fig9_scatter_fail": lambda: (fig9_scatter(), (LinkFailure(2, 8),)),
        "fig6_allreduce_pipelined_slow":
            lambda: (fig6_allreduce(),
                     (LinkDegradation(1, 2, factor=2),)),
        "x20_scatter_slow": lambda: (x20_scatter(),
                                     (LinkDegradation(*_x20_edge(),
                                                      factor=Fraction(2)),)),
    }


def _revised_cases() -> Dict[str, Callable[[], object]]:
    """name -> () -> solved collective, through the revised-simplex path.

    The PR 7 scale tiers: LPs past the old ``EXACT_VAR_LIMIT = 5000``
    that the tableau engine cannot touch (its dense fraction-free rows
    blow up quadratically), solved exactly by the LU-factorized revised
    simplex with the float-assisted crash.  ``fig9_8host`` pins
    ``backend="revised"`` explicitly since PR 8: plain auto-dispatch now
    routes this LP to column generation (the BENCH_PR8 tier), and this
    record keeps timing the revised engine itself — it doubles as the
    "before" side of the colgen speedup.  Its rational throughput must
    match HiGHS in float and verify clean.
    """
    from repro.collectives import solve_collective
    from repro.core.allreduce import AllReduceProblem

    def fig9_8host():
        problem = AllReduceProblem(figure9_platform(),
                                   figure9_participants(), msg_size=10,
                                   task_work=10)
        return solve_collective(problem, collective="all-reduce",
                                backend="revised", mode="pipelined",
                                cache=False)

    def ring128_scatter():
        g = ring(128, cost=1)
        nodes = g.nodes()
        return solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                                backend="revised", cache=False)

    def complete12_reduce():
        g = complete(12, cost=1)
        return solve_collective(ReduceProblem(g, g.nodes(), g.nodes()[0]),
                                collective="reduce", backend="revised",
                                cache=False)

    return {
        "fig9_8host_allreduce_pipelined": fig9_8host,
        "ring128_scatter": ring128_scatter,
        "complete12_reduce": complete12_reduce,
    }


def bench_revised(name: str, case: Callable[[], object]) -> Dict[str, object]:
    """Time one revised-engine tier end to end and cross-check HiGHS."""
    from repro.collectives import solve_collective

    t0 = time.perf_counter()
    sol = case()
    solve_s = time.perf_counter() - t0
    assert sol.exact, f"{name}: revised tier came back inexact"
    assert sol.verify() == [], f"{name}: solution fails verification"
    stats = sol.lp_solution.stats if sol.lp_solution is not None else {}

    mode = getattr(sol, "mode", "")
    highs = solve_collective(sol.problem, collective=sol.collective,
                             backend="highs", cache=False,
                             **({"mode": mode} if mode else {}))
    assert abs(float(sol.throughput) - float(highs.throughput)) < 1e-7, \
        f"{name}: exact and HiGHS optima disagree"

    entry: Dict[str, object] = {
        "solve_s": round(solve_s, 5),
        "throughput": str(sol.throughput),
        "highs_agrees": True,
    }
    if stats:
        entry.update({
            "vars_raw": stats.get("vars_raw"),
            "vars_presolved": stats.get("vars_presolved"),
            "basis_m": stats.get("basis_m"),
            "path": stats.get("path"),
            "pivots": stats.get("pivots"),
            "dual_pivots": stats.get("dual_pivots"),
            "refactorizations": stats.get("refactorizations"),
        })
    return entry


def run_revised() -> Dict[str, object]:
    cases = {name: bench_revised(name, case)
             for name, case in _revised_cases().items()}
    return {
        "meta": {
            "pr": 7,
            "description": "rational revised simplex (LU-factorized basis, "
                           "float-assisted crash, commodity-block Devex "
                           "pricing) on LPs past the old tableau limit; "
                           "each tier solved exactly end to end, verified, "
                           "and cross-checked against HiGHS in float",
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
        "revised_cases": cases,
    }


def write_revised_report(path: Path = REVISED_PATH) -> Dict[str, object]:
    report = run_revised()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _colgen_cases() -> Dict[str, Callable[[], object]]:
    """name -> () -> solved collective, auto-routed to column generation.

    The PR 8 tiers: every case runs plain ``backend="auto"`` with no
    hint — the raw model sits past ``COLGEN_VAR_LIMIT`` and decomposes
    into per-commodity blocks, so dispatch routes it, without a
    presolve, to the Dantzig-Wolfe column-generation loop.  ``fig9_8host`` and
    ``ring128`` are the PR 7 rungs re-run on the new route (their
    "before" is the revised-engine timing from ``BENCH_PR7.json``);
    ``fattree6_scatter`` is the first datacenter-scale tier the exact
    path reaches at all — a k=6 fat-tree (54 heterogeneous hosts behind
    45 switches, 17k raw vars) where all 53 commodities price by
    Dijkstra shortest path against the master's rational duals.
    """
    from repro.collectives import solve_collective
    from repro.core.allreduce import AllReduceProblem
    from repro.platform.generators import fat_tree

    def fig9_8host():
        problem = AllReduceProblem(figure9_platform(),
                                   figure9_participants(), msg_size=10,
                                   task_work=10)
        return solve_collective(problem, collective="all-reduce",
                                backend="auto", mode="pipelined",
                                cache=False)

    def ring128_scatter():
        g = ring(128, cost=1)
        nodes = g.nodes()
        return solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                                backend="auto", cache=False)

    def fattree6_scatter():
        g = fat_tree(6)
        hosts = g.compute_nodes()
        return solve_collective(ScatterProblem(g, hosts[0], hosts[1:]),
                                backend="auto", cache=False)

    return {
        "fig9_8host_allreduce_pipelined": fig9_8host,
        "ring128_scatter": ring128_scatter,
        "fattree6_scatter": fattree6_scatter,
    }


def bench_colgen(name: str, case: Callable[[], object]) -> Dict[str, object]:
    """Time one colgen tier end to end and cross-check HiGHS."""
    from repro.collectives import solve_collective

    t0 = time.perf_counter()
    sol = case()
    solve_s = time.perf_counter() - t0
    assert sol.exact, f"{name}: colgen tier came back inexact"
    assert sol.verify() == [], f"{name}: solution fails verification"
    stats = sol.lp_solution.stats if sol.lp_solution is not None else {}
    assert stats.get("engine") == "colgen", \
        f"{name}: auto-dispatch did not route to colgen"

    mode = getattr(sol, "mode", "")
    highs = solve_collective(sol.problem, collective=sol.collective,
                             backend="highs", cache=False,
                             **({"mode": mode} if mode else {}))
    # HiGHS stops at float tolerances, so on 17k-var models its optimum
    # can sit ~1e-6 below the exact rational one — compare relatively
    exact_f, highs_f = float(sol.throughput), float(highs.throughput)
    assert abs(exact_f - highs_f) <= 1e-4 * max(abs(exact_f), 1e-9), \
        f"{name}: exact and HiGHS optima disagree"

    entry: Dict[str, object] = {
        "solve_s": round(solve_s, 5),
        "throughput": str(sol.throughput),
        "highs_agrees": True,
        "vars_raw": stats.get("vars_raw"),
        "vars_presolved": stats.get("vars_presolved"),
        "blocks": stats.get("blocks"),
        "path_blocks": stats.get("path_blocks"),
        "rounds": stats.get("rounds"),
        "columns": stats.get("columns"),
        "columns_priced": stats.get("columns_priced"),
        "jobs": stats.get("jobs"),
        "parallel_speedup": round(stats.get("parallel_speedup") or 0, 3),
        "master_s": round(stats.get("master_s") or 0, 5),
        "pricing_s": round(stats.get("pricing_s") or 0, 5),
    }

    before: Optional[float] = None
    if REVISED_PATH.exists():
        pr7 = json.loads(REVISED_PATH.read_text()).get("revised_cases", {})
        if name in pr7:
            before = float(pr7[name]["solve_s"])
    if before is None and name in RECORDED_PR7_SECONDS:
        before = RECORDED_PR7_SECONDS[name]
        entry["recorded"] = True
    if before is not None:
        entry["before_solve_s"] = before
        entry["speedup_x"] = round(before / max(solve_s, 1e-9), 2)
    return entry


def run_colgen() -> Dict[str, object]:
    cases = {name: bench_colgen(name, case)
             for name, case in _colgen_cases().items()}
    return {
        "meta": {
            "pr": 8,
            "description": "Dantzig-Wolfe column generation over commodity "
                           "blocks (rational restricted master on the shared "
                           "capacity rows, Dijkstra/LP pricing against exact "
                           "duals) reached through plain auto-dispatch; "
                           "before = the same tier on the PR 7 revised "
                           "engine (BENCH_PR7.json); each tier solved "
                           "exactly, verified, and cross-checked against "
                           "HiGHS in float",
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
        "colgen_cases": cases,
    }


def write_colgen_report(path: Path = COLGEN_PATH) -> Dict[str, object]:
    report = run_colgen()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _sim_cluster1025():
    """The PR 9 acceptance tier: a 1025-node clustered distribution.

    A hub fans 992 distinct items out through 32 relays (31 leaves per
    relay); every item flows hub -> relay -> leaf at rate 1/1024 with
    unit transfer time, so the derived period is T=1024 with ~2k slot
    transfers per period, the hub's 992 sends serialized on its port.
    Pure communication, exact rationals — the compiled engine takes it.
    """
    from fractions import Fraction as F

    from repro.core.schedule import schedule_from_rates

    rate, ut = F(1, 1024), F(1)
    rates: Dict[tuple, tuple] = {}
    deliveries: Dict[str, str] = {}
    for r in range(32):
        relay = f"R{r:02d}"
        for leaf_i in range(31):
            leaf, item = f"L{r:02d}_{leaf_i:02d}", f"m{r:02d}_{leaf_i:02d}"
            rates[("hub", relay, item)] = (rate, ut)
            rates[(relay, leaf, item)] = (rate, ut)
            deliveries[item] = leaf
    t0 = time.perf_counter()
    sched = schedule_from_rates(rates, rate, deliveries, name="cluster1025")
    build_s = time.perf_counter() - t0
    supplies = {("hub", item): (lambda it: (lambda seq: (it, seq)))(item)
                for item in deliveries}
    return sched, supplies, build_s


def _sim_solved_schedule(case: str):
    """Solve + schedule one of the LP-backed sim tiers."""
    from repro.collectives import (
        available_collectives, schedule_collective, solve_collective,
    )
    from repro.platform.generators import fat_tree

    spec = {s.name: s for s in available_collectives()}["scatter"]
    if case == "ring128":
        g = ring(128, cost=1)
        nodes = g.nodes()
    else:  # fattree6
        g = fat_tree(6)
        nodes = g.compute_nodes()
    sol = solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                           backend="auto", cache=False)
    sched = schedule_collective(sol)
    sem = spec.simulation(sched, sol.problem)
    return sched, sem.supplies


def _sim_replay(engine_cls, sched, supplies, periods):
    """Replay ``periods`` periods and materialize the result; returns
    ``(seconds, result)`` — materialization is included because the
    reference executor pays its per-delivery accounting inside the run."""
    ex = engine_cls(sched, supplies)
    t0 = time.perf_counter()
    for _ in range(periods):
        ex.run_period()
    res = ex.result()
    return time.perf_counter() - t0, res


def _assert_replays_agree(name, a, b):
    assert a.delivery_times == b.delivery_times, \
        f"{name}: engines disagree on delivery times"
    assert a.completed_ops() == b.completed_ops(), \
        f"{name}: engines disagree on completed ops"
    assert a.measured_throughput() == b.measured_throughput(), \
        f"{name}: engines disagree on throughput"


def bench_sim_pair(name, sched, supplies, periods,
                   reference_periods=None) -> Dict[str, object]:
    """Time one schedule replay on both engines, bit-identity asserted.

    ``reference_periods`` caps the reference side on tiers where the full
    run would take minutes (the million-slot fat-tree); the speedup is
    then per-period over each side's own window, and bit-identity is
    checked over the shared smaller window.
    """
    from repro.sim.compiled import VectorizedExecutor, compile_unsupported
    from repro.sim.executor import ScheduleExecutor

    assert compile_unsupported(sched) is None, \
        f"{name}: tier schedule not compilable"
    ref_periods = reference_periods or periods
    compiled_s, fast_res = _sim_replay(VectorizedExecutor, sched, supplies,
                                       periods)
    reference_s, ref_res = _sim_replay(ScheduleExecutor, sched, supplies,
                                       ref_periods)
    if ref_periods == periods:
        _assert_replays_agree(name, fast_res, ref_res)
    else:
        _, small_res = _sim_replay(VectorizedExecutor, sched, supplies,
                                   ref_periods)
        _assert_replays_agree(name, small_res, ref_res)
    transfers = sum(len(s.transfers) for s in sched.slots)
    entry: Dict[str, object] = {
        "nodes": len({n for s in sched.slots for t in s.transfers
                      for n in (t.src, t.dst)}),
        "transfers_per_period": transfers,
        "periods": periods,
        "slot_events": transfers * periods,
        "compiled_s": round(compiled_s, 5),
        "reference_periods": ref_periods,
        "reference_s": round(reference_s, 5),
        "speedup_x": round((reference_s / ref_periods)
                           / max(compiled_s / periods, 1e-12), 1),
        "completed_ops": fast_res.completed_ops(),
        "throughput": str(fast_res.measured_throughput()),
        "bit_identical": True,
    }
    return entry


def bench_sim_reference_only(name, periods) -> Dict[str, object]:
    """The fig9 8-host pipelined replay: value-checked (combine) + compute
    semantics are pinned to the reference executor by the dispatch rule,
    so this tier records the fallback path the compiled engine refuses."""
    from repro.collectives import schedule_collective, solve_collective
    from repro.core.allreduce import AllReduceProblem
    from repro.sim.executor import simulate_collective

    problem = AllReduceProblem(figure9_platform(), figure9_participants(),
                               msg_size=10, task_work=10)
    sol = solve_collective(problem, collective="all-reduce",
                           backend="auto", mode="pipelined", cache=False)
    sched = schedule_collective(sol)
    t0 = time.perf_counter()
    res = simulate_collective(sched, problem, n_periods=periods,
                              collective="all-reduce", record_trace=False,
                              engine="auto")
    replay_s = time.perf_counter() - t0
    assert res.engine == "reference", \
        f"{name}: value-checked replay must stay on the reference executor"
    assert res.correct, f"{name}: pipelined replay failed value checks"
    return {
        "periods": periods,
        "replay_s": round(replay_s, 5),
        "engine": res.engine,
        "completed_ops": res.completed_ops(),
        "throughput": str(res.measured_throughput()),
        "note": "compute + combine semantics: auto-dispatch pins the "
                "reference executor (value checks need real payloads)",
    }


def bench_colgen_parallel() -> Dict[str, object]:
    """Honest jobs>1 numbers for the colgen pricing pool on this machine.

    The ring128 tier is re-solved with ``jobs=1`` and ``jobs=2``; the
    recorded ``parallel_speedup`` is serial-pricing-time / pool-wall, so
    on a single-CPU container it sits near (or below) 1 — the point of
    the record is that the pool path works, stays bit-identical, and the
    chunked ``pool.map`` does not regress the serial path.
    """
    import os

    from repro.collectives import solve_collective

    def solve(jobs):
        g = ring(128, cost=1)
        nodes = g.nodes()
        return solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                                backend="auto", cache=False, jobs=jobs)

    out: Dict[str, object] = {
        "cpus": os.cpu_count(),
        "note": "single-CPU container: compare jobs1 vs jobs2 *wall* "
                "times for the honest cost of the pool (expect a modest "
                "overhead, no win without parallel hardware); the "
                "in-worker parallel_speedup ratio inflates under "
                "timesharing because per-task serial times are measured "
                "inside concurrently-scheduled workers.  The record pins "
                "jobs-invariance of the optimum and the chunked pricing "
                "path",
    }
    base = None
    for jobs in (1, 2):
        t0 = time.perf_counter()
        sol = solve(jobs)
        wall = time.perf_counter() - t0
        stats = sol.lp_solution.stats
        assert stats.get("engine") == "colgen"
        if base is None:
            base = sol.throughput
        assert sol.throughput == base, "colgen optimum depends on jobs"
        out[f"jobs{jobs}"] = {
            "solve_s": round(wall, 5),
            "pricing_s": round(stats.get("pricing_s") or 0, 5),
            "pricing_chunk": stats.get("pricing_chunk"),
            "parallel_speedup": round(stats.get("parallel_speedup") or 0, 3),
            "columns_digest": stats.get("columns_digest"),
        }
    assert out["jobs1"]["columns_digest"] == out["jobs2"]["columns_digest"], \
        "colgen column admission depends on worker count"
    return out


def run_sim() -> Dict[str, object]:
    cases: Dict[str, object] = {}

    sched, supplies, build_s = _sim_cluster1025()
    cases["cluster1025_scatter"] = bench_sim_pair(
        "cluster1025_scatter", sched, supplies, periods=100)
    cases["cluster1025_scatter"]["schedule_build_s"] = round(build_s, 5)

    # the ring pipeline fills after ~126 periods (64-hop far side at
    # fractional rates), so 250 periods shows real steady-state ops
    sched, supplies = _sim_solved_schedule("ring128")
    cases["ring128_scatter_replay"] = bench_sim_pair(
        "ring128_scatter_replay", sched, supplies, periods=250)

    # the million-slot rung: ~3400 periods x ~300 slot transfers; the
    # reference side is capped (its full run is minutes-scale)
    sched, supplies = _sim_solved_schedule("fattree6")
    transfers = sum(len(s.transfers) for s in sched.slots)
    periods = -(-1_000_000 // transfers)
    cases["fattree6_scatter_million_slot"] = bench_sim_pair(
        "fattree6_scatter_million_slot", sched, supplies, periods=periods,
        reference_periods=200)

    cases["fig9_8host_allreduce_pipelined_replay"] = \
        bench_sim_reference_only("fig9_8host_allreduce_pipelined_replay",
                                 periods=60)

    return {
        "meta": {
            "pr": 9,
            "description": "compiled simulation engine (schedules lowered "
                           "to dense numpy slot tables, counts-only replay "
                           "with transition memoization) vs the per-instance "
                           "reference executor; bit-identical delivery "
                           "times/counts and throughput asserted on every "
                           "tier; speedup_x is per-period wall ratio",
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
        "sim_cases": cases,
        "colgen_parallel": bench_colgen_parallel(),
    }


def write_sim_report(path: Path = SIM_PATH) -> Dict[str, object]:
    report = run_sim()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# ----------------------------------------------------------------------
# PR 10: optimality-gap auto-tuner over the topology zoo
# ----------------------------------------------------------------------
def run_tune() -> Dict[str, object]:
    """Run the standing tuner zoo and record every gap row exactly.

    Rationals are stored as strings (``"31/7"``) so the committed record
    is bit-exact; the perf guards re-derive the Fractions.
    """
    from repro.tune import tune_zoo

    t0 = time.perf_counter()
    report = tune_zoo()
    zoo_s = time.perf_counter() - t0
    rows: Dict[str, object] = {}
    for r in report.rows:
        rows[f"{r.topology}:{r.collective}:{r.baseline}"] = {
            "topology": r.topology,
            "collective": r.collective,
            "baseline": r.baseline,
            "algorithm": r.algorithm,
            "rounds": r.n_rounds,
            "baseline_tp": str(r.baseline_tp),
            "lp_tp": str(r.lp_tp),
            "gap": str(r.gap),
            "gap_x": round(float(r.gap), 4),
            "sim_matches": r.sim_matches,
            "engine": r.engine,
        }
    assert report.lp_dominates, "LP beaten by a classical baseline"
    assert report.sim_exact, "simulated rate != analytic rate"
    return {
        "meta": {
            "pr": 10,
            "description": "optimality-gap auto-tuner: exact LP optimum vs "
                           "classical baseline specs (ring/halving "
                           "reduce-scatter, ring/doubling all-gather, "
                           "ring/Rabenseifner all-reduce, direct scatter) "
                           "over the topology zoo; every baseline replayed "
                           "on the sim engine with bit-exact rate match",
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
        "zoo_s": round(zoo_s, 4),
        "instance_seconds": {k: round(v, 5)
                             for k, v in report.instance_seconds.items()},
        "gap_rows": rows,
    }


def write_tune_report(path: Path = TUNE_PATH) -> Dict[str, object]:
    report = run_tune()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _x20_edge():
    from repro.platform.generators import heterogenize, random_connected

    g = heterogenize(random_connected(20, extra_edges=24, seed=5), 9)
    e = next(iter(g.edges()))
    return e.src, e.dst


def bench_replan(name: str, case: Callable[[], tuple],
                 repeats: int = 3) -> Dict[str, object]:
    """Time one warm incremental re-solve against its cold twin.

    Best-of-``repeats`` on both sides: the millisecond-scale paper tiers
    would otherwise report scheduler noise as a warm win or loss.  The
    slow tier (``x20``) only gets one cold run — its cold solve is
    seconds-scale and far from the noise floor.
    """
    from repro.lp.resolve import replan

    sol, events = case()
    report = replan(sol, events, compare=True)
    assert report.throughput == report.cold_solution.throughput, \
        f"{name}: warm and cold replan disagree"
    replan_s, cold_s = report.replan_s, report.cold_s
    for _ in range(repeats - 1):
        if cold_s > 1.0:
            break
        again = replan(sol, events, compare=True)
        assert again.throughput == report.throughput
        replan_s = min(replan_s, again.replan_s)
        cold_s = min(cold_s, again.cold_s)
    return {
        "events": report.delta.describe(),
        "warm": report.warm,
        "replan_s": round(replan_s, 5),
        "cold_s": round(cold_s, 5),
        "speedup_x": round(cold_s / replan_s, 2),
        "tp_before": str(report.base_throughput),
        "tp_after": str(report.throughput),
    }


def run_replan() -> Dict[str, object]:
    cases = {name: bench_replan(name, case)
             for name, case in _replan_cases().items()}
    return {
        "meta": {
            "pr": 6,
            "description": "warm-started incremental re-solve after a "
                           "platform perturbation (repro.lp.resolve.replan, "
                           "compare=True) vs a cold solve of the same "
                           "perturbed problem; both exact, bit-identical "
                           "optima asserted",
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
        "replan_cases": cases,
    }


def write_replan_report(path: Path = REPLAN_PATH) -> Dict[str, object]:
    report = run_replan()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _time(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_case(name: str, build: Callable[[], LinearProgram],
               pr1_cases: Dict[str, dict]) -> Dict[str, object]:
    """Time build + presolve + exact solve + postsolve (cold, no cache)."""
    t0 = time.perf_counter()
    lp = build()
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pr = presolve(lp)
    presolve_s = time.perf_counter() - t0
    if pr.infeasible:
        raise RuntimeError(f"{name}: presolve claims infeasible")

    t0 = time.perf_counter()
    sol = ExactSimplexSolver().solve(pr.lp)
    solve_s = time.perf_counter() - t0
    if not sol.optimal:
        raise RuntimeError(f"{name}: exact solve failed: {sol.status}")

    t0 = time.perf_counter()
    values = pr.postsolve.values(sol.values)
    objective = lp.objective.evaluate(values)
    postsolve_s = time.perf_counter() - t0

    entry: Dict[str, object] = {
        "vars_raw": lp.num_vars(),
        "constraints": lp.num_constraints(),
        "build_s": round(build_s, 5),
        "presolve_s": round(presolve_s, 5),
        "vars_presolved": pr.lp.num_vars(),
        "presolved_rows": pr.lp.num_constraints(),
        "exact_solve_s": round(presolve_s + solve_s + postsolve_s, 5),
        "iterations": sol.iterations,
        "objective": str(objective),
    }

    before: Optional[float] = None
    pr1 = pr1_cases.get(name)
    if pr1 is not None:
        before = float(pr1["exact_solve_s"])
    elif name in RECORDED_PR1_SECONDS:
        before = RECORDED_PR1_SECONDS[name]
        entry["recorded"] = True
    if before is not None:
        entry["before_exact_solve_s"] = before
        entry["speedup_x"] = round(
            before / max(presolve_s + solve_s + postsolve_s, 1e-9), 1)
    return entry


def bench_model_building() -> Dict[str, object]:
    """Micro-benchmark of expression building (the PR 1 O(n²) hot spot)."""
    lp = LinearProgram("micro")
    xs = [lp.var(f"x{i}") for i in range(3000)]
    lin_sum_s = _time(lambda: lin_sum(xs))
    fig9_build_s = _time(lambda: build_reduce_lp(_fig9_problem()))
    return {
        "lin_sum_3000_terms_s": round(lin_sum_s, 5),
        "fig9_lp_build_s": round(fig9_build_s, 5),
    }


def _var_counts(sol) -> Dict[str, int]:
    """Raw vs presolved var counts of a solved collective's LP(s).

    Reads the counts :func:`repro.lp.dispatch.solve` stamps into every
    ``LPSolution.stats``; a sequential composite has no joint LP, so its
    stage models are summed instead.
    """
    lp_sol = getattr(sol, "lp_solution", None)
    if lp_sol is not None and lp_sol.stats:
        return {"vars_raw": int(lp_sol.stats.get("vars_raw") or 0),
                "vars_presolved":
                    int(lp_sol.stats.get("vars_presolved") or 0)}
    raw = pres = 0
    for sub in getattr(sol, "stage_solutions", None) or ():
        c = _var_counts(sub)
        raw += c["vars_raw"]
        pres += c["vars_presolved"]
    return {"vars_raw": raw, "vars_presolved": pres}


def bench_composite(name: str, solve: Callable[[], object]) -> Dict[str, object]:
    """Time a composed collective's end-to-end exact solve (cold)."""
    t0 = time.perf_counter()
    sol = solve()
    total_s = time.perf_counter() - t0
    entry = {
        "solve_s": round(total_s, 5),
        "throughput": str(sol.throughput),
        "stages": len(sol.stage_solutions or ()),
    }
    entry.update(_var_counts(sol))
    return entry


def run(only: Optional[set] = None) -> Dict[str, object]:
    pr1_cases: Dict[str, dict] = {}
    if PR1_PATH.exists():
        pr1_cases = json.loads(PR1_PATH.read_text()).get("cases", {})
    cases: Dict[str, object] = {}
    for name, build in _cases().items():
        if only is not None and name not in only:
            continue
        cases[name] = bench_case(name, build, pr1_cases)
    composites: Dict[str, object] = {}
    for name, solve in _composite_cases().items():
        if only is not None and name not in only:
            continue
        composites[name] = bench_composite(name, solve)
    return {
        "meta": {
            "pr": 4,
            "description": "LP presolve + indexed fraction-free simplex with "
                           "Devex pricing (before = the PR 1 sparse solver, "
                           "see BENCH_PR1.json); composite_cases time "
                           "composed collectives (all-gather joint LPs are "
                           "regular cases, sequential all-reduce solves end "
                           "to end)",
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
        "model_building": bench_model_building(),
        "cases": cases,
        "composite_cases": composites,
    }


def write_report(path: Path = REPORT_PATH,
                 only: Optional[set] = None) -> Dict[str, object]:
    report = run(only=only)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=REPORT_PATH)
    ap.add_argument("--replan", action="store_true",
                    help="benchmark the PR 6 warm-replan tiers and write "
                         "BENCH_PR6.json (leaves BENCH_PR3.json untouched)")
    ap.add_argument("--revised", action="store_true",
                    help="benchmark the PR 7 revised-simplex scale tiers "
                         "and write BENCH_PR7.json")
    ap.add_argument("--colgen", action="store_true",
                    help="benchmark the PR 8 column-generation tiers "
                         "and write BENCH_PR8.json")
    ap.add_argument("--sim", action="store_true",
                    help="benchmark the PR 9 compiled-simulation tiers "
                         "and write BENCH_PR9.json")
    ap.add_argument("--tune", action="store_true",
                    help="run the PR 10 optimality-gap tuner zoo and write "
                         "BENCH_PR10.json")
    args = ap.parse_args()
    if args.tune:
        report = write_tune_report()
        for name, r in report["gap_rows"].items():
            mark = "exact" if r["sim_matches"] else "MISMATCH"
            print(f"{name:>48}: TP {r['baseline_tp']:>6} vs LP "
                  f"{r['lp_tp']:>6}  gap {r['gap']:>6} ({r['gap_x']}x)  "
                  f"sim {mark} [{r['engine']}]")
        print(f"zoo in {report['zoo_s']}s; wrote {TUNE_PATH}")
        return
    if args.sim:
        report = write_sim_report()
        for name, c in report["sim_cases"].items():
            if "speedup_x" in c:
                print(f"{name:>40}: compiled {c['compiled_s']:>8}s "
                      f"({c['periods']}p)  reference {c['reference_s']:>8}s "
                      f"({c['reference_periods']}p)  ({c['speedup_x']}x)")
            else:
                print(f"{name:>40}: {c['replay_s']:>8}s "
                      f"({c['periods']}p)  [{c['engine']} engine]")
        par = report["colgen_parallel"]
        print(f"{'colgen_parallel(ring128)':>40}: jobs1 "
              f"{par['jobs1']['solve_s']}s  jobs2 {par['jobs2']['solve_s']}s"
              f"  (pool speedup {par['jobs2']['parallel_speedup']})")
        print(f"wrote {SIM_PATH}")
        return
    if args.colgen:
        report = write_colgen_report()
        for name, c in report["colgen_cases"].items():
            speed = f"  ({c['speedup_x']}x)" if "speedup_x" in c else ""
            print(f"{name:>32}: {c['solve_s']:>8}s  TP {c['throughput']:>8}"
                  f"  {c['rounds']} rounds  {c['columns']} cols{speed}")
        print(f"wrote {COLGEN_PATH}")
        return
    if args.revised:
        report = write_revised_report()
        for name, c in report["revised_cases"].items():
            print(f"{name:>32}: {c['solve_s']:>8}s  TP {c['throughput']:>8}"
                  f"  {c.get('path', '?')}  {c.get('pivots', '?')} pivots")
        print(f"wrote {REVISED_PATH}")
        return
    if args.replan:
        report = write_replan_report()
        for name, c in report["replan_cases"].items():
            path = "warm" if c["warm"] else "cold"
            print(f"{name:>28}: {path}  replan {c['replan_s']:>8}s  "
                  f"cold {c['cold_s']:>8}s  ({c['speedup_x']}x)  "
                  f"TP {c['tp_before']} -> {c['tp_after']}")
        print(f"wrote {REPLAN_PATH}")
        return
    report = write_report(args.out)
    for name, c in report["cases"].items():
        before = c.get("before_exact_solve_s", "-")
        speed = f"  ({c['speedup_x']}x)" if "speedup_x" in c else ""
        print(f"{name:>20}: {c['vars_raw']:>5} vars -> {c['vars_presolved']:>5}"
              f"  pr1 {before:>8}s  now {c['exact_solve_s']:>8}s{speed}")
    for name, c in report["composite_cases"].items():
        print(f"{name:>20}: {c['stages']:>2} stages  TP {c['throughput']:>8}"
              f"  end-to-end {c['solve_s']:>8}s")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
