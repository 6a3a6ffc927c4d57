"""Optimality-gap auto-tuner: LP optimum vs every classical baseline.

For a ``(topology, collective)`` instance the tuner solves the exact LP
optimum through the orchestrator, then replays every *applicable*
classical baseline spec (:mod:`repro.baselines.algorithms`) on the
simulation engine: each baseline is solved analytically, verified through
the shared invariant path, turned into a real periodic schedule, and
simulated long enough for the multi-hop pipeline to reach steady state —
the measured steady-window rate must equal the analytic rate *bit
exactly*, or the row is flagged.  The result is an exact-rational gap
table: ``gap = TP_LP / TP_baseline >= 1`` (every baseline plan is a
feasible point of its LP, so LP dominance is a theorem the table
re-checks empirically).

``tune_zoo`` runs the standing topology zoo (the paper's fig2/fig6/fig9
platforms plus ring / complete / fat-tree generators) and is what
``repro tune`` prints; ``tests/perf/test_work_pins.py`` pins its rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.collectives import (
    available_collectives, resolve_collective, schedule_collective,
    solve_collective,
)

#: steady-window width (periods) used for the bit-exact rate check
WINDOW = 3
#: periods simulated beyond the pipeline-fill depth
SETTLE = 2


@dataclass(frozen=True)
class GapRow:
    """One (instance, baseline) line of the gap table."""

    topology: str
    collective: str        # LP spec name (the optimum's collective)
    baseline: str          # baseline spec name
    algorithm: str         # human label of the classical algorithm
    n_rounds: int
    baseline_tp: object
    lp_tp: object
    gap: object            # lp_tp / baseline_tp, exact Fraction
    sim_tp: object         # steady-window rate measured on the sim engine
    sim_matches: bool      # sim_tp == baseline_tp, bit-exact
    engine: str            # engine that actually replayed the schedule


@dataclass
class TuneReport:
    rows: List[GapRow] = field(default_factory=list)
    instance_seconds: Dict[str, float] = field(default_factory=dict)


def applicable_baselines(problem) -> List[object]:
    """Registered classical-algorithm specs that can run this instance."""
    from repro.baselines.algorithms import AlgorithmSpec

    return [spec for spec in available_collectives()
            if isinstance(spec, AlgorithmSpec)
            and isinstance(problem, spec.problem_type)
            and spec.applicable(problem)]


def tune(problem, topology: Optional[str] = None, backend: str = "exact",
         mode: Optional[str] = None, engine: str = "auto",
         window: int = WINDOW) -> List[GapRow]:
    """Gap rows for one instance: exact LP optimum vs every applicable
    baseline, each baseline round-tripped through schedule + simulator."""
    from repro.sim.executor import simulate_collective

    lp_spec = resolve_collective(problem)
    solve_kwargs = {"mode": mode} if mode is not None else {}
    lp = solve_collective(problem, backend=backend, **solve_kwargs)
    rows = []
    for spec in applicable_baselines(problem):
        base = solve_collective(problem, collective=spec.name)
        errors = base.verify()
        if errors:
            raise RuntimeError(
                f"{spec.name} fails shared verification on "
                f"{problem.platform.name}: {errors[:3]}")
        plan = spec.plan(problem)
        schedule = schedule_collective(base)
        # each hop of a route can slip one period, so replay past the
        # pipeline-fill depth before measuring the steady window
        periods = plan.max_hops + window + SETTLE
        result = simulate_collective(schedule, problem, n_periods=periods,
                                     collective=spec.name,
                                     record_trace=False, engine=engine)
        sim_tp = result.steady_window_throughput(periods=window)
        rows.append(GapRow(
            topology=topology or problem.platform.name,
            collective=lp_spec.name, baseline=spec.name,
            algorithm=spec.algorithm, n_rounds=plan.n_rounds,
            baseline_tp=base.throughput, lp_tp=lp.throughput,
            gap=Fraction(lp.throughput) / Fraction(base.throughput),
            sim_tp=sim_tp, sim_matches=(sim_tp == base.throughput),
            engine=result.engine))
    return rows


def zoo_instances() -> List[Tuple[str, object, Optional[str]]]:
    """The standing gap-table zoo: ``(label, problem, lp mode)``.

    Spans the paper's example platforms (fig2/fig6/fig9) and the
    generator families (complete, ring, fat-tree).  All-reduce instances
    compare against the *pipelined* composite LP — the strongest optimum,
    and the fair one since the classical all-reduce plans overlap their
    phases across operations.  Reduce-scatter LP instances stay small
    (the SSRS LP grows ~n^4); larger participant counts are exercised by
    the LP-free round-trip tests instead.
    """
    from repro.core.allgather import AllGatherProblem
    from repro.core.allreduce import AllReduceProblem
    from repro.core.reduce_scatter import ReduceScatterProblem
    from repro.core.scatter import ScatterProblem
    from repro.platform.examples import (
        figure2_platform, figure2_targets, figure6_platform,
        figure9_platform, figure9_participants, figure9_target,
    )
    from repro.platform.generators import complete, fat_tree, heterogenize, ring

    fig2 = figure2_platform()
    fig6 = figure6_platform()
    fig9 = figure9_platform()
    fig9_hosts = figure9_participants()
    c4 = complete(4)
    c4_hosts = [f"p{i}" for i in range(4)]
    r8 = ring(8)
    hr8 = heterogenize(ring(8), seed=20260728)
    ft4 = fat_tree(4)
    return [
        ("fig2", ScatterProblem(fig2, "Ps", figure2_targets()), None),
        ("fig6", ReduceScatterProblem(fig6, [0, 1, 2]), None),
        ("fig6", AllGatherProblem(fig6, [0, 1, 2]), None),
        ("complete4", ReduceScatterProblem(c4, c4_hosts), None),
        ("complete4", AllReduceProblem(c4, c4_hosts), "pipelined"),
        ("ring8", AllGatherProblem(r8, [f"p{i}" for i in range(8)]), None),
        # heterogeneous link costs make the fixed single-route discipline
        # pay: the LP splits traffic across both ring directions
        ("hetero-ring8", ScatterProblem(hr8, "p0",
                                        [f"p{i}" for i in range(1, 8)]), None),
        ("fattree4", ScatterProblem(ft4, "h0", [f"h{i}" for i in range(1, 7)]),
         None),
        ("fig9", ScatterProblem(fig9, figure9_target(),
                                [h for h in fig9_hosts
                                 if h != figure9_target()]), None),
    ]


def tune_zoo(backend: str = "exact", engine: str = "auto",
             window: int = WINDOW) -> TuneReport:
    """Run the whole zoo; one report, timed per instance."""
    report = TuneReport()
    for label, problem, mode in zoo_instances():
        t0 = time.perf_counter()
        rows = tune(problem, topology=label, backend=backend, mode=mode,
                    engine=engine, window=window)
        key = f"{label}:{rows[0].collective}" if rows else label
        report.instance_seconds[key] = time.perf_counter() - t0
        report.rows.extend(rows)
    return report
