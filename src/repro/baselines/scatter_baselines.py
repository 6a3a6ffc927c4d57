"""Scatter baselines.

``direct_scatter_solution`` is what a naive MPI implementation does for a
series of scatters: the source pushes each message itself, hop by hop along
a fixed shortest path (the registered ``direct-scatter`` spec).  It ignores
multi-route splitting and relay parallelism, which is exactly what the
steady-state LP exploits — the gap between the two is the paper's
motivation.

``spt_scatter_throughput`` is the single-route *ablation*: the full
steady-state machinery, but restricted to the edges of one shortest-path
tree.  Comparing it with ``TP(G)`` isolates the value of multiple routes
(Figure 2's m0 messages using both relays).
"""

from __future__ import annotations

from repro.core.scatter import ScatterProblem, solve_scatter
from repro.platform.routing import shortest_path_tree


def direct_scatter_solution(problem: ScatterProblem):
    """Direct scatter as a shared-pipeline solution.

    Solves the registered ``"direct-scatter"`` baseline spec
    (:mod:`repro.baselines.algorithms`): fixed canonical shortest-path
    routes, pipelined at the analytic rate ``1 / max port load``, as a
    ``CollectiveSolution`` — so it verifies, schedules and simulates
    through the exact machinery the LP solutions use.
    """
    from repro.collectives import solve_collective

    return solve_collective(problem, collective="direct-scatter")


def spt_scatter_throughput(problem: ScatterProblem,
                           backend: str = "auto") -> object:
    """Optimal steady-state throughput restricted to one shortest-path tree.

    Answers: how much of ``TP(G)`` is owed to multi-route freedom?  (always
    ``<= TP(G)``; strictly less whenever splitting traffic across routes
    relieves the bottleneck).
    """
    tree = shortest_path_tree(problem.platform, problem.source)
    for k in problem.targets:
        if k not in tree:
            raise ValueError(f"target {k!r} unreachable from source")
    sub_problem = ScatterProblem(tree, problem.source, problem.targets)
    return solve_scatter(sub_problem, backend=backend).throughput
