#!/usr/bin/env python3
"""Quickstart: the paper's Figure 2 toy scatter, end to end.

Builds the 5-node platform, solves the steady-state LP (exact rationals),
constructs the periodic one-port schedule, renders it as an ASCII Gantt
chart, and replays it in the simulator to confirm the throughput.

Run:  python examples/quickstart.py
"""

from repro.collectives import schedule_collective, solve_collective
from repro.core.scatter import ScatterProblem
from repro.platform.examples import figure2_platform, figure2_targets
from repro.sim.executor import simulate_collective
from repro.viz.gantt import ascii_gantt


def main() -> None:
    platform = figure2_platform()
    problem = ScatterProblem(platform, source="Ps", targets=figure2_targets())

    # 1. the steady-state LP (Section 3.1) — solved in exact rationals
    solution = solve_collective(problem, backend="exact")
    print(f"platform: {platform!r}")
    print(f"optimal steady-state throughput TP = {solution.throughput} "
          f"(paper: 1/2)\n")
    print("per-type routes (flow decomposition):")
    for target, paths in solution.paths.items():
        for path, rate in paths:
            print(f"  m[{target}]: {' -> '.join(path)}   rate {rate}")

    # 2. the periodic schedule (Section 3.3, matching decomposition)
    schedule = schedule_collective(solution)
    print()
    print(ascii_gantt(schedule))

    # 3. replay under the one-port model (init phase emerges by itself)
    result = simulate_collective(schedule, problem, n_periods=50)
    bound = float(solution.throughput) * float(result.horizon)
    print()
    print(f"simulated {result.completed_ops()} scatter ops over "
          f"{result.horizon} time-units (Lemma 1 bound {bound:.0f})")
    print(f"one-port violations: {len(result.one_port_violations)}, "
          f"payload errors: {len(result.errors)}")
    assert result.correct


if __name__ == "__main__":
    main()
