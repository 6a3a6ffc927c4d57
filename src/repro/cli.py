"""Command-line interface.

Solve subcommands are generated from the collective registry — one per
registered spec, sharing the platform/backend/schedule/simulate options —
so adding a collective automatically adds its CLI.  Examples::

    repro scatter --platform plat.json --source Ps --targets P0,P1
    repro reduce  --platform plat.json --participants 1,2,3 --target 1
    repro reduce-scatter --platform plat.json --participants 1,2,3
    repro broadcast --platform plat.json --source Ps --targets P0,P1
    repro all-gather --platform plat.json --participants 1,2,3
    repro all-reduce --platform plat.json --participants 1,2,3
    repro all-reduce --platform plat.json --participants 1,2,3 --mode pipelined
    repro collectives        # list every registered collective
    repro demo fig2          # the paper's Figure 2 instance end-to-end
    repro demo fig6
    repro demo fig9
    repro demo reduce-scatter
    repro demo broadcast
    repro demo all-gather
    repro demo all-reduce    # the composition layer end-to-end
    repro scatter --platform plat.json --source Ps --targets P0,P1 \\
        --backend revised --lp-stats   # pivot/LU counters from the solver
    repro perturb --platform plat.json --events fail:p0:p1
    repro scatter --platform plat.json --source Ps --targets P0,P1 \\
        --simulate --faults 4:fail:P0:P1   # mid-run failure + replan
    repro cache info         # inspect the persistent LP solve cache
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.collectives import (
    available_collectives,
    schedule_collective,
    solve_collective,
)
from repro.platform.io import load_platform
from repro.sim.executor import simulate_collective
from repro.viz.gantt import ascii_gantt


def parse_node(token: str):
    """Node ids in files may be ints or strings; try int first."""
    try:
        return int(token)
    except ValueError:
        return token


def parse_nodes(tokens: str) -> List[object]:
    """Comma-separated node-id list."""
    return [parse_node(t) for t in tokens.split(",")]


# ----------------------------------------------------------------------
# registry-generated solve subcommands
# ----------------------------------------------------------------------

def _add_solve_subcommand(sub, spec) -> None:
    """One solve subcommand per registered collective, with the shared
    platform/backend/schedule/simulate wiring added exactly once."""
    from repro.collectives import COMPOSITION_MODES, CompositeCollectiveSpec

    sp = sub.add_parser(spec.name, help=spec.title)
    sp.add_argument("--platform", required=True, help="platform JSON file")
    spec.add_arguments(sp)
    sp.add_argument("--backend", default="auto",
                    choices=["auto", "exact", "tableau", "revised", "highs",
                             "colgen"])
    sp.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="pricing worker processes for the colgen backend "
                         "(default: REPRO_JOBS, else 1; results are "
                         "identical for any value)")
    sp.add_argument("--lp-stats", action="store_true",
                    help="print solver statistics (pivot counts, LU "
                         "refactorizations, crash path, per-phase timings) "
                         "after solving; the revised backend records them, "
                         "tableau/HiGHS solves report none")
    if isinstance(spec, CompositeCollectiveSpec):
        sp.add_argument("--mode", default=None, choices=COMPOSITION_MODES,
                        help=f"composition mode (default: {spec.mode})")
    if spec.has_schedule:
        sp.add_argument("--schedule", action="store_true",
                        help="build and display the periodic schedule")
        sp.add_argument("--simulate", action="store_true")
        sp.add_argument("--periods", type=int, default=50)
        sp.add_argument("--sim-engine", default="auto",
                        choices=["auto", "compiled", "reference"],
                        help="simulation engine: 'compiled' replays on "
                             "the vectorized engine (pure-communication "
                             "schedules only), 'reference' forces the "
                             "per-instance executor, 'auto' picks "
                             "(default)")
        sp.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject faults while simulating: comma-"
                             "separated PERIOD:EVENT entries, e.g. "
                             "'4:fail:p0:p1,6:down:p2' (implies --simulate; "
                             "the schedule is re-solved and swapped in "
                             "mid-run)")
    sp.add_argument("--on-infeasible", default=None,
                    choices=["error", "degrade"],
                    help="what to do when the platform cannot serve the "
                         "full collective: 'degrade' shrinks to the "
                         "surviving reachable set")
    sp.set_defaults(func=lambda args, spec=spec: _cmd_solve(spec, args))


def _cmd_solve(spec, args) -> int:
    g = load_platform(args.platform)
    problem = spec.problem_from_args(g, args)
    sol = solve_collective(problem, collective=spec.name,
                           backend=args.backend,
                           mode=getattr(args, "mode", None),
                           jobs=getattr(args, "jobs", None),
                           on_infeasible=args.on_infeasible)
    print(f"platform {g.name}: TP = {sol.throughput}"
          f"{spec.tp_suffix(problem, sol)}")
    if sol.sacrificed:
        print(f"degraded: sacrificed {', '.join(map(str, sol.sacrificed))}")
    if getattr(args, "lp_stats", False):
        _print_lp_stats(sol)
    body = spec.report(sol)
    if body:
        print(body)
    faults = getattr(args, "faults", None)
    if faults is not None and spec.has_schedule and sol.exact:
        return _run_faulted(spec, sol, args)
    if spec.has_schedule and sol.exact and args.schedule:
        sched = schedule_collective(sol)
        print(ascii_gantt(sched))
        if args.simulate:
            sim_engine = getattr(args, "sim_engine", "auto")
            res = simulate_collective(sched, problem, n_periods=args.periods,
                                      collective=spec.name,
                                      record_trace=sim_engine == "reference",
                                      engine=sim_engine)
            bound = (float(sol.throughput) * float(res.horizon)
                     * spec.ops_bound_factor(problem))
            print(f"simulated {res.completed_ops()} ops over {res.horizon} "
                  f"time-units (bound {bound:.1f}); "
                  f"correct={res.correct} [{res.engine} engine]")
    return 0


def _print_lp_stats(sol) -> None:
    """Solver statistics for one solution (stage-by-stage for sequential
    composites, whose stages each carry their own LP)."""
    stages = [("", sol)]
    if sol.lp_solution is None and getattr(sol, "stage_solutions", None):
        stages = [(f"stage {i} ({s.collective})", s)
                  for i, s in enumerate(sol.stage_solutions)]
    for label, s in stages:
        lead = f"  {label}: " if label else "solver stats: "
        lps = s.lp_solution
        stats = lps.stats if lps is not None else None
        if not stats:
            backend = lps.backend if lps is not None else "?"
            print(f"{lead}none recorded (backend {backend})")
            continue
        if stats.get("engine") == "colgen":
            print(f"{lead}{lps.backend}, {stats['blocks']} block(s) "
                  f"({stats['path_blocks']} path-priced), "
                  f"master {stats['master_rows']} rows")
            print(f"    rounds: {stats['rounds']}, columns "
                  f"{stats['columns']} ({stats['seed_columns']} seeded), "
                  f"priced {stats['columns_priced']}, "
                  f"skipped {stats['pricing_skipped']}")
            print(f"    time: master {stats['master_s']:.3f}s "
                  f"({stats['master_pivots']} pivots), pricing "
                  f"{stats['pricing_s']:.3f}s on {stats['jobs']} job(s) "
                  f"(speedup {stats['parallel_speedup']:.2f}x)")
            continue
        if "path" not in stats:
            # tableau/HiGHS solves carry only the dispatch-stamped
            # variable counts, not revised-engine counters
            print(f"{lead}{lps.backend}, {stats['vars_raw']} vars "
                  f"({stats['vars_presolved']} after presolve); "
                  f"no engine counters recorded")
            continue
        print(f"{lead}{lps.backend}, path {stats['path']}, "
              f"basis {stats['basis_m']} rows")
        print(f"    pivots: {stats['pivots']} "
              f"(phase1 {stats['phase1_pivots']}, "
              f"phase2 {stats['phase2_pivots']}, "
              f"dual {stats['dual_pivots']})")
        print(f"    LU: {stats['refactorizations']} refactorization(s), "
              f"{stats['ftran']} ftran, {stats['btran']} btran")
        print(f"    time: factor {stats['factor_s']:.3f}s, "
              f"phase1 {stats['phase1_s']:.3f}s, "
              f"phase2 {stats['phase2_s']:.3f}s, "
              f"dual {stats['dual_s']:.3f}s")


def _run_faulted(spec, sol, args) -> int:
    from repro.sim.faults import (FaultPlan, run_with_faults,
                                  steady_window_throughput)
    from repro.viz.tables import degradation_table

    plan = FaultPlan.from_spec(args.faults)
    sim_engine = getattr(args, "sim_engine", "auto")
    run = run_with_faults(sol, plan, args.periods, backend=args.backend,
                          on_infeasible=args.on_infeasible or "degrade",
                          record_trace=sim_engine == "reference",
                          engine=sim_engine, compare=True)
    print(f"injected: {plan.describe()}")
    if not run.replanned:
        print("no replan was triggered (faults beyond the horizon, or "
              "nothing broke)")
        return 0
    for rep in run.reports:
        print(degradation_table(rep, run=run))
    res = run.result
    print(f"simulated {res.periods} periods; correct={res.correct}; "
          f"steady TP after replan = {steady_window_throughput(run)} "
          f"(LP optimum {run.reports[-1].throughput})")
    return 0


def _cmd_collectives(args) -> int:
    from repro.viz.tables import format_table

    rows = [(spec.name, spec.problem_type.__name__,
             "yes" if spec.has_schedule else "no", spec.title)
            for spec in available_collectives()]
    print(format_table(["name", "problem", "schedule", "description"], rows,
                       title="registered collectives"))
    return 0


def _cmd_tune(args) -> int:
    """Optimality-gap auto-tuner: LP optimum vs every applicable classical
    baseline, simulated bit-exactly (see :mod:`repro.tune`)."""
    from repro.tune import tune, tune_zoo
    from repro.viz.tables import gap_table

    if args.platform is None:
        report = tune_zoo(backend=args.backend, engine=args.sim_engine)
        rows = report.rows
    else:
        if args.collective is None:
            raise SystemExit("--collective is required with --platform")
        g = load_platform(args.platform)
        problem = _tune_problem(g, args)
        rows = tune(problem, backend=args.backend, mode=args.mode,
                    engine=args.sim_engine)
    print(gap_table(rows))
    dominated = [r for r in rows if r.gap < 1]
    mismatched = [r for r in rows if not r.sim_matches]
    worst = max(rows, key=lambda r: r.gap) if rows else None
    if worst is not None:
        print(f"{len(rows)} baseline runs; largest gap "
              f"{worst.gap} ({float(worst.gap):.2f}x) — "
              f"{worst.baseline} on {worst.topology}")
    if dominated or mismatched:
        for r in dominated:
            print(f"ERROR: LP beaten by {r.baseline} on {r.topology} "
                  f"({r.lp_tp} < {r.baseline_tp})")
        for r in mismatched:
            print(f"ERROR: sim rate {r.sim_tp} != analytic "
                  f"{r.baseline_tp} for {r.baseline} on {r.topology}")
        return 1
    return 0


def _tune_problem(g, args):
    """Build the LP-side problem for a single-instance ``repro tune``."""
    from repro.core.allgather import AllGatherProblem
    from repro.core.allreduce import AllReduceProblem
    from repro.core.reduce_scatter import ReduceScatterProblem
    from repro.core.scatter import ScatterProblem

    if args.collective == "scatter":
        if args.source is None or args.targets is None:
            raise SystemExit("scatter tuning needs --source and --targets")
        return ScatterProblem(g, parse_node(args.source),
                              parse_nodes(args.targets))
    if args.participants is None:
        raise SystemExit(f"{args.collective} tuning needs --participants")
    participants = parse_nodes(args.participants)
    if args.collective == "reduce-scatter":
        return ReduceScatterProblem(g, participants, msg_size=args.msg_size,
                                    task_work=args.task_work)
    if args.collective == "all-gather":
        return AllGatherProblem(g, participants, msg_size=args.msg_size)
    return AllReduceProblem(g, participants, msg_size=args.msg_size,
                            task_work=args.task_work)


# ----------------------------------------------------------------------
# paper-figure demos
# ----------------------------------------------------------------------

DEMOS = ["fig2", "fig6", "fig9", "reduce-scatter", "broadcast",
         "all-gather", "all-reduce"]


def _cmd_demo(args) -> int:
    from repro.core.allgather import AllGatherProblem
    from repro.core.allreduce import AllReduceProblem
    from repro.core.broadcast import BroadcastProblem
    from repro.core.reduce_op import ReduceProblem
    from repro.core.reduce_scatter import ReduceScatterProblem
    from repro.core.scatter import ScatterProblem
    from repro.core.schedule import build_reduce_schedule
    from repro.platform.examples import (figure2_platform, figure2_targets,
                                         figure6_platform, figure9_platform,
                                         figure9_participants, figure9_target)
    if args.which == "fig2":
        problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(problem, backend="exact")
        print(f"Figure 2 — Series of Scatters: TP = {sol.throughput} "
              f"(paper: 1/2)")
        print(ascii_gantt(schedule_collective(sol)))
    elif args.which == "fig6":
        problem = ReduceProblem(figure6_platform(), [0, 1, 2], target=0)
        sol = solve_collective(problem, backend="exact")
        print(f"Figure 6 — Series of Reduces: TP = {sol.throughput} (paper: 1)")
        for t in sol.extract():
            print(t.describe())
        print(ascii_gantt(build_reduce_schedule(sol)))
    elif args.which == "fig9":
        problem = ReduceProblem(figure9_platform(), figure9_participants(),
                                target=figure9_target(), msg_size=10,
                                task_work=10)
        sol = solve_collective(problem)
        print(f"Figure 9/10 — Tiers platform reduce: TP = {sol.throughput} "
              f"(paper: 2/9)")
        for t in sol.extract():
            print(t.describe())
    elif args.which == "reduce-scatter":
        problem = ReduceScatterProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(problem, backend="exact")
        print(f"Reduce-scatter on the Figure 6 triangle: TP = {sol.throughput}")
        for b, trees in sorted(sol.extract().items()):
            print(f"block {b} -> node {problem.block_target(b)}: "
                  f"{len(trees)} reduction tree(s)")
            for t in trees:
                print(t.describe())
        print(ascii_gantt(schedule_collective(sol)))
    elif args.which == "broadcast":
        problem = BroadcastProblem(figure2_platform(), "Ps",
                                   figure2_targets())
        sol = solve_collective(problem, backend="exact")
        print(f"Broadcast on the Figure 2 platform: TP = {sol.throughput} "
              f"(every target gets the full message; scatter managed 1/2)")
        for tree in sol.arborescences():
            print(tree.describe())
        print(ascii_gantt(schedule_collective(sol)))
    elif args.which == "all-gather":
        problem = AllGatherProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(problem, backend="exact")
        print(f"All-gather on the Figure 6 triangle: TP = {sol.throughput} "
              f"(joint LP over {len(sol.stage_solutions or ())} broadcasts "
              f"sharing the port budgets)")
        print(ascii_gantt(schedule_collective(sol)))
    elif args.which == "all-reduce":
        problem = AllReduceProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(problem, backend="exact")
        rs, ag = sol.stage_solutions
        print(f"All-reduce on the Figure 6 triangle: TP = {sol.throughput} "
              f"= 1/(1/({rs.throughput}) + 1/({ag.throughput}))")
        print(f"  stage 0 reduce-scatter: TP = {rs.throughput}")
        print(f"  stage 1 all-gather:     TP = {ag.throughput} "
              f"(joint LP over 3 broadcasts)")
        piped = solve_collective(problem, backend="exact", mode="pipelined")
        print(f"  pipelined (overlapped phases): TP = {piped.throughput} "
              f">= sequential {sol.throughput}")
        print(ascii_gantt(schedule_collective(sol)))
    else:
        print(f"unknown demo {args.which!r}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# platform perturbation inspection
# ----------------------------------------------------------------------

def _cmd_perturb(args) -> int:
    from repro.platform.perturb import failure_trace, parse_events, perturb

    g = load_platform(args.platform)
    if args.events:
        events = parse_events(args.events)
    elif args.trace:
        events = failure_trace(g, args.seed, n_events=args.trace)
    else:
        print("need --events or --trace N", file=sys.stderr)
        return 2
    g2, delta = perturb(g, events)
    print(f"{g.name}: {len(g.nodes())} nodes, "
          f"{sum(1 for _ in g.edges())} links")
    print(f"events: {delta.describe()}")
    print(f"perturbed: {g2.name}: {len(g2.nodes())} nodes, "
          f"{sum(1 for _ in g2.edges())} links "
          f"({'tightening' if delta.tightened else 'loosening'}, "
          f"fingerprint {delta.fingerprint})")
    if delta.row_edits:
        print("LP row edits (incremental re-solve path):")
        for ed in delta.row_edits:
            what = (f"scale x{ed.factor}" if ed.kind == "scale" else ed.kind)
            print(f"  {ed.row:<24} {what}")
    else:
        print("LP row edits: none expressible -- full rebuild required "
              "(node-level event)")
    return 0


# ----------------------------------------------------------------------
# persistent LP cache management
# ----------------------------------------------------------------------

def _cmd_cache(args) -> int:
    from repro.lp import diskcache

    root = args.dir if args.dir else diskcache.get_cache_dir()
    if args.action == "info":
        st = diskcache.stats(root)
        if not st["enabled"]:
            print("LP disk cache disabled (set REPRO_LP_CACHE_DIR or pass "
                  "--dir)")
        else:
            limit = ("unbounded" if not st["max_bytes"]
                     else f"{st['max_bytes']} bytes "
                          f"(LRU eviction, REPRO_LP_CACHE_MAX_BYTES)")
            print(f"LP disk cache at {st['dir']}: {st['entries']} entries, "
                  f"{st['bytes']} bytes; limit {limit}")
    elif args.action == "clear":
        removed = diskcache.clear(root)
        print(f"removed {removed} cached solution(s)")
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Steady-state collective scheduling on heterogeneous "
                    "platforms (Legrand-Marchal-Robert, RR-4872).")
    sub = p.add_subparsers(dest="command", required=True)

    for spec in available_collectives():
        _add_solve_subcommand(sub, spec)

    co = sub.add_parser("collectives",
                        help="list every registered collective")
    co.set_defaults(func=_cmd_collectives)

    dm = sub.add_parser("demo", help="run a paper-figure demo")
    dm.add_argument("which", choices=DEMOS)
    dm.set_defaults(func=_cmd_demo)

    tu = sub.add_parser(
        "tune",
        help="optimality-gap auto-tuner: exact LP optimum vs every "
             "applicable classical baseline, replayed on the sim engine "
             "(no arguments: run the standing topology zoo)")
    tu.add_argument("--platform", default=None,
                    help="platform JSON file (omit to run the zoo)")
    tu.add_argument("--collective", default=None,
                    choices=["scatter", "reduce-scatter", "all-gather",
                             "all-reduce"],
                    help="LP collective of the instance (with --platform)")
    tu.add_argument("--source", default=None)
    tu.add_argument("--targets", default=None,
                    help="comma-separated node ids (scatter)")
    tu.add_argument("--participants", default=None,
                    help="comma-separated node ids (rank order)")
    tu.add_argument("--msg-size", dest="msg_size", type=int, default=1)
    tu.add_argument("--task-work", dest="task_work", type=int, default=1)
    tu.add_argument("--mode", default=None,
                    choices=["sequential", "pipelined"],
                    help="composition mode of the all-reduce LP optimum")
    tu.add_argument("--backend", default="exact",
                    help="LP backend for the optimum (default exact)")
    tu.add_argument("--sim-engine", dest="sim_engine", default="auto",
                    choices=["auto", "compiled", "reference"])
    tu.set_defaults(func=_cmd_tune)

    pe = sub.add_parser("perturb",
                        help="apply perturbation events to a platform and "
                             "show the exact LP row-edit delta")
    pe.add_argument("--platform", required=True, help="platform JSON file")
    pe.add_argument("--events", default=None,
                    help="comma-separated events: fail:SRC:DST, "
                         "slow:SRC:DST:FACTOR, down:NODE")
    pe.add_argument("--trace", type=int, default=0, metavar="N",
                    help="draw N seeded failure-trace events instead")
    pe.add_argument("--seed", type=int, default=0,
                    help="failure-trace seed (with --trace)")
    pe.set_defaults(func=_cmd_perturb)

    ca = sub.add_parser("cache", help="inspect/clear the persistent LP "
                                      "solve cache")
    ca.add_argument("action", choices=["info", "clear"])
    ca.add_argument("--dir", default=None,
                    help="cache directory (default: REPRO_LP_CACHE_DIR)")
    ca.set_defaults(func=_cmd_cache)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
