"""Single-tree reduce baselines.

The flat-tree and binary-tree heuristics are registered classical specs
(``flat-tree-reduce`` / ``binary-tree-reduce`` in
:mod:`repro.baselines.algorithms`).  This module holds the multi-tree
ablation:

``best_single_tree_throughput``
    Ablation: take the LP's extracted trees, keep only the best one, and
    compute its standalone pipelined throughput analytically — pipelining
    one tree saturates its most-loaded resource, so the rate is
    ``1 / max resource load per operation``.  Comparing against ``TP(G)``
    isolates the value of *mixing several trees* (Figures 11-12 use two).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from repro.collectives.base import FLOAT_EPS
from repro.core.reduce_op import ReduceProblem
from repro.core.trees import ReductionTree
from repro.platform.graph import NodeId


def single_tree_resource_load(tree: ReductionTree,
                              problem: ReduceProblem) -> Dict[Tuple[str, NodeId], object]:
    """Per-operation busy time of every resource when running one tree.

    Resources: ``("send", node)``, ``("recv", node)``, ``("cpu", node)``.
    """
    g = problem.platform
    load: Dict[Tuple[str, NodeId], object] = {}

    def bump(key, amount):
        load[key] = load.get(key, 0) + amount

    for tr in tree.transfers:
        t = problem.size(tr.interval) * g.cost(tr.src, tr.dst)
        bump(("send", tr.src), t)
        bump(("recv", tr.dst), t)
    for tk in tree.tasks:
        bump(("cpu", tk.node), problem.task_time(tk.node, tk.task))
    return load


def single_tree_solution(tree: ReductionTree,
                         problem: ReduceProblem) -> "CollectiveSolution":
    """One tree, pipelined alone, as a shared-pipeline ``ReduceSolution``.

    The standalone rate saturates the tree's most-loaded resource:
    ``rate = 1 / max_load``, kept an exact ``Fraction`` for rational
    loads (``1 / worst`` in floats can round an occupation of exactly 1
    to just above it and trip the one-port check).  The returned solution
    runs the same ``verify()`` / ``edge_occupation()`` / ``alpha()`` path
    as every LP solution — the analytic accounting is cross-checked
    against the registered reduce spec's invariants, not trusted.
    """
    from repro.core.reduce_op import ReduceSolution

    load = single_tree_resource_load(tree, problem)
    worst = max(load.values()) if load else 0
    if worst <= 0:
        raise ValueError("tree occupies no resource; no standalone rate")
    rate = Fraction(1) / worst  # float only when the platform is inexact
    send: Dict[tuple, object] = {}
    cons: Dict[tuple, object] = {}
    for tr in tree.transfers:
        key = (tr.src, tr.dst, tr.interval)
        send[key] = send.get(key, 0) + rate
    for tk in tree.tasks:
        key = (tk.node, tk.task)
        cons[key] = cons.get(key, 0) + rate
    return ReduceSolution(problem=problem, throughput=rate, send=send,
                          cons=cons, lp_solution=None,
                          exact=isinstance(rate, Fraction))


def best_single_tree_throughput(trees: Sequence[ReductionTree],
                                problem: ReduceProblem) -> Tuple[object, Optional[ReductionTree]]:
    """Best standalone pipelined rate over the given trees.

    A single tree, pipelined, is limited by its most-loaded port/CPU:
    ``rate = 1 / max_load``.  Every candidate rate is built through
    :func:`single_tree_solution` and must pass the shared ``verify()``
    path (conservation, one-port, alpha).  Returns ``(rate, best tree)``.
    """
    best_rate = 0
    best_tree: Optional[ReductionTree] = None
    for tree in trees:
        load = single_tree_resource_load(tree, problem)
        worst = max(load.values()) if load else None
        if worst is None or worst <= 0:
            continue
        sol = single_tree_solution(tree, problem)
        errors = sol.verify(tol=0 if sol.exact else FLOAT_EPS)
        if errors:
            raise ValueError(
                f"single-tree baseline fails shared verification: {errors[:3]}")
        rate = sol.throughput
        if rate > best_rate:
            best_rate, best_tree = rate, tree
    return best_rate, best_tree
