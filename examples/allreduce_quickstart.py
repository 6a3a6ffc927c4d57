#!/usr/bin/env python3
"""Quickstart for composed collectives: all-reduce on the Figure 6 triangle.

All-reduce = reduce-scatter ∘ all-gather (Träff's decomposition), built on
the collective registry's composition layer — and solvable in all three
composition modes side by side:

- **sequential**: each stage on its own steady-state LP, throughput the
  harmonic combination ``1/(1/TP_rs + 1/TP_ag)``, schedule the two phases
  back to back;
- **pipelined**: ONE joint LP overlaps both phases at a common TP on the
  shared capacities, the all-gather sources chained to the reduce-scatter
  sinks (``chain[..]`` precedence rows) — never below the harmonic value,
  strictly above it here (the reduce phase is compute-bound, the gather
  phase link-bound, so they hide inside each other);
- **joint**: the same LP without the chaining rows — an upper-bound
  sanity line (the coupling never costs throughput).

The simulator replays the pipelined schedule with credit-gated chaining:
no block is redistributed before the reduce-scatter stage actually
delivered it, and every participant must receive the full
non-commutative reduction.

Run:  python examples/allreduce_quickstart.py
"""

from fractions import Fraction

from repro.collectives import schedule_collective, solve_collective
from repro.core.allgather import AllGatherProblem
from repro.core.allreduce import AllReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.platform.examples import figure6_platform
from repro.sim.executor import simulate_collective
from repro.viz.gantt import ascii_gantt
from repro.viz.tables import composition_table, format_table


def main() -> None:
    platform = figure6_platform()
    participants = [0, 1, 2]
    # task_work=2 makes the reduce-scatter phase compute-bound — the
    # configuration where overlapping the phases pays off
    problem = AllReduceProblem(platform, participants, task_work=2)

    # 1. the stage optima (two independent exact LP solves)
    rs = solve_collective(
        ReduceScatterProblem(platform, participants, task_work=2),
        backend="exact")
    ag = solve_collective(AllGatherProblem(platform, participants),
                          backend="exact")
    print(f"platform: {platform!r}")
    print(f"reduce-scatter stage: TP = {rs.throughput} (compute-bound)")
    print(f"all-gather stage:     TP = {ag.throughput} "
          f"(joint LP over {len(participants)} shared-capacity broadcasts)")

    # 2. the three composition modes side by side
    sequential = solve_collective(problem, backend="exact")
    pipelined = solve_collective(problem, backend="exact", mode="pipelined")
    joint = solve_collective(problem, backend="exact", mode="joint")
    print()
    print(format_table(
        ["mode", "TP", "how"],
        [("sequential", sequential.throughput,
          f"harmonic combination of {rs.throughput} and {ag.throughput}"),
         ("pipelined", pipelined.throughput,
          "one joint LP, gather chained to reduce (chain[..] rows)"),
         ("joint", joint.throughput,
          "same LP without chaining (upper-bound sanity)")],
        title="all-reduce composition modes"))
    assert sequential.throughput == \
        1 / (1 / Fraction(rs.throughput) + 1 / Fraction(ag.throughput))
    assert pipelined.throughput >= sequential.throughput  # always
    assert pipelined.throughput > sequential.throughput   # here: strictly
    assert joint.throughput == pipelined.throughput       # chaining is free
    assert sequential.verify() == [] and pipelined.verify() == []
    print()
    print(composition_table(pipelined))

    # 3. the pipelined periodic schedule: ONE period carries both phases,
    # retimed so reduced blocks land before they are re-broadcast
    schedule = schedule_collective(pipelined)
    print()
    print(ascii_gantt(schedule))
    seq_schedule = schedule_collective(sequential)
    print(f"pipelined period {schedule.period} vs sequential "
          f"{seq_schedule.period} for "
          f"{schedule.throughput * schedule.period} op(s)")

    # 4. replay under the one-port model with chain-credit gating: the
    # all-gather sources only emit what the reduce-scatter delivered, and
    # every delivery must equal the full non-commutative reduction
    result = simulate_collective(schedule, problem, n_periods=40)
    from repro.collectives import get_collective

    factor = get_collective("all-reduce").ops_bound_factor(problem)
    bound = float(pipelined.throughput) * float(result.horizon) * factor
    print()
    print(f"simulated {result.completed_ops()} stream deliveries over "
          f"{result.horizon} time-units (bound {bound:.0f})")
    print(f"one-port violations: {len(result.one_port_violations)}, "
          f"payload errors: {len(result.errors)}")
    assert result.correct
    assert result.completed_ops() >= 0.8 * bound  # sustains the rate


if __name__ == "__main__":
    main()
