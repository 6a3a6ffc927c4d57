"""Scatter ablation.

(The naive MPI scatter — the source pushes each message itself, hop by
hop along a fixed shortest path — is the registered ``direct-scatter``
spec: ``solve_collective(problem, collective="direct-scatter")``.)

``spt_scatter_throughput`` is the single-route *ablation*: the full
steady-state machinery, but restricted to the edges of one shortest-path
tree.  Comparing it with ``TP(G)`` isolates the value of multiple routes
(Figure 2's m0 messages using both relays).
"""

from __future__ import annotations

from repro.collectives import solve_collective
from repro.core.scatter import ScatterProblem
from repro.platform.routing import shortest_path_tree


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
    return solve_collective(sub_problem, backend=backend).throughput
