#!/usr/bin/env python3
"""Steady-state scheduling vs classical baselines on a heterogeneous cluster.

Generates a Tiers-like platform, then compares pipelined throughput of:

- the steady-state LP schedule (this paper),
- flat-tree reduce (everyone sends to the target),
- order-preserving binary-tree reduce,
- the best single reduction tree extracted from the LP solution.

Every baseline rate is an exact rational, and the LP optimum dominates each.

Run:  python examples/baseline_faceoff.py
"""

from fractions import Fraction

from repro.baselines.reduce_baselines import best_single_tree_throughput
from repro.collectives import solve_collective
from repro.core.reduce_op import ReduceProblem
from repro.core.schedule import build_reduce_schedule
from repro.platform.generators import tiers
from repro.sim.executor import simulate_collective
from repro.viz.tables import format_table


def main() -> None:
    g = tiers(seed=7, wan_nodes=3, mans_per_wan=1, lans_per_man=1,
              hosts_per_lan=2)
    hosts = g.compute_nodes()[:4]
    problem = ReduceProblem(g, participants=hosts, target=hosts[0],
                            msg_size=2, task_work=4)
    print(f"platform: {g!r}")
    print(f"participants: {hosts} -> target {hosts[0]}\n")

    solution = solve_collective(problem)
    schedule = build_reduce_schedule(solution) if solution.exact else None
    rows = []

    if schedule is not None:
        run = simulate_collective(schedule, problem, n_periods=80,
                                  record_trace=False)
        rows.append(["steady-state LP (this paper)",
                     f"{float(run.measured_throughput()):.4f}",
                     f"{solution.throughput} (optimal)"])

    for name, pinned in (("flat-tree-reduce", Fraction(1, 48)),
                         ("binary-tree-reduce", Fraction(1, 24))):
        base = solve_collective(problem, collective=name)
        assert base.verify() == [] and base.throughput == pinned
        assert solution.throughput >= base.throughput
        rows.append([name, f"{float(base.throughput):.4f}",
                     str(base.throughput)])

    single, _ = best_single_tree_throughput(solution.extract(), problem)
    assert single <= solution.throughput
    rows.append(["best single LP tree (pipelined)", f"{float(single):.4f}",
                 str(single)])

    print(format_table(["strategy", "throughput (ops/time-unit)", "exact rate"],
                       rows, title="Series of Reduces — who wins"))


if __name__ == "__main__":
    main()
