#!/usr/bin/env python3
"""Series of Gossips (personalized all-to-all) on a heterogeneous ring.

Section 3.5's generalization: every node streams a distinct message to
every other node.  On a ring, messages must share the two directions —
the LP splits traffic optimally and the matching decomposition turns the
rates into a conflict-free periodic schedule.

Run:  python examples/gossip_ring.py
"""

from repro.collectives import schedule_collective, solve_collective
from repro.core.gossip import GossipProblem
from repro.platform.generators import heterogenize, ring
from repro.sim.executor import simulate_collective
from repro.viz.gantt import ascii_gantt


def main() -> None:
    g = heterogenize(ring(4), seed=11, cost_choices=(1, 2),
                     speed_choices=(1,))
    nodes = g.nodes()
    problem = GossipProblem(g, sources=nodes, targets=nodes)
    print(f"platform: {g!r} (ring, heterogeneous link costs)")

    solution = solve_collective(problem, backend="exact")
    print(f"optimal gossip throughput TP = {solution.throughput} "
          f"({len(problem.pairs())} message types)\n")
    print("routes per (source, target) pair:")
    for (k, l), paths in sorted(solution.paths.items(), key=str):
        for path, rate in paths:
            print(f"  m({k},{l}): {' -> '.join(str(p) for p in path)}  rate {rate}")

    schedule = schedule_collective(solution)
    print()
    print(ascii_gantt(schedule))

    result = simulate_collective(schedule, problem, n_periods=40)
    bound = float(solution.throughput) * float(result.horizon)
    print(f"\nsimulated {result.completed_ops()} complete gossip ops "
          f"(bound {bound:.0f}); correct={result.correct}")
    assert result.correct


if __name__ == "__main__":
    main()
