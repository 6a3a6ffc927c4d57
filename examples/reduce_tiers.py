#!/usr/bin/env python3
"""Series of Reduces on the paper's Figure 9 Tiers platform.

The headline experiment of Section 4.7: 8 compute hosts behind 6 routers,
message size 10, task time 10/speed, target node 6 (logical index 4).
Solves ``SSR(G)`` (~1900 variables, via HiGHS + exact rationalization),
extracts the two reduction trees of Figures 11-12, applies the Section 4.6
fixed-period approximation, and pipelines everything in the simulator with
a non-commutative operator.

Run:  python examples/reduce_tiers.py
"""


from repro.collectives import solve_collective
from repro.core.fixed_period import fixed_period_approximation
from repro.core.reduce_op import ReduceProblem
from repro.core.schedule import build_reduce_schedule
from repro.platform.examples import (
    figure9_participants, figure9_platform, figure9_target,
)
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod


def main() -> None:
    problem = ReduceProblem(
        figure9_platform(),
        participants=figure9_participants(),  # logical (⊕) order 0..7
        target=figure9_target(),              # node 6, index 4
        msg_size=10, task_work=10)
    print(f"platform: {problem.platform!r}")

    solution = solve_collective(problem)
    print(f"LP backend: {solution.lp_solution.backend}")
    print(f"optimal steady-state throughput TP = {solution.throughput} "
          f"(paper Figure 10: 2/9)\n")

    trees = solution.extract()
    print(f"{len(trees)} reduction trees (paper Figures 11-12: two at 1/9):")
    for tree in trees:
        print(tree.describe())
        print()

    # Section 4.6: round to a practical period
    fp = fixed_period_approximation(trees, period=90,
                                    original_throughput=solution.throughput)
    print(f"fixed period 90: achieved {fp.throughput}, "
          f"loss {fp.loss} <= bound {fp.bound}")

    schedule = build_reduce_schedule(solution, trees=fp.items)
    result = simulate_collective(schedule, problem, n_periods=100,
                                 op=MatMul2x2Mod, record_trace=False)
    bound = float(fp.throughput) * float(result.horizon)
    print(f"simulated {result.completed_ops()} reduces over "
          f"{result.horizon} time-units (bound {bound:.0f}); "
          f"errors: {len(result.errors)}")
    assert result.errors == []


if __name__ == "__main__":
    main()
