"""Parallel-prefix extension (Section 6, concluding remarks).

The paper suggests extending the reduce machinery to *parallel prefix*: each
participant ``P_i`` must obtain the prefix ``v[0, i]`` of the reduction
limited to ranks at most its own.  The LP is ``SSR(G)`` with one delivery
constraint per rank instead of a single target:

- explicit non-negative *delivery* variables ``deliver_i`` absorb copies of
  ``v[0, i]`` at the owner of rank ``i`` — this keeps the conservation law
  intact at delivery nodes (a prefix ``v[0, i]`` may legitimately transit
  through ``P_i`` as an input for larger tasks elsewhere, so forbidding
  re-emission, as the plain reduce does for the final result, would cost
  throughput; an absorption variable is the phantom-safe alternative),
- all deliveries proceed at the common rate ``TP``; note ``deliver_0``
  is trivially satisfiable in place (``v[0,0]`` lives at rank 0), matching
  the convention that the rank-0 prefix needs no work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import CollectiveSolution
from repro.core import intervals as iv
from repro.core.reduce_op import ReduceProblem, _cons_name, _send_name
from repro.lp import LinearProgram, LinExpr, lin_sum


@dataclass
class PrefixSolution(CollectiveSolution):
    """Solved parallel-prefix LP: common delivery throughput and rates.

    Shared behavior (``verify``, ``edge_occupation``, ``alpha``) comes
    from the registered ``"prefix"`` spec.
    """

    collective: str = "prefix"


def build_prefix_lp(problem: ReduceProblem) -> LinearProgram:
    """LP maximizing the common rate of all prefix deliveries.

    ``problem.target`` is ignored — every participant is a target for its
    own prefix.
    """
    g = problem.platform
    n = problem.n_values
    lp = LinearProgram(f"PREFIX({g.name})")
    tp = lp.var("TP")
    ivals = iv.all_intervals(n)
    tasks = iv.all_tasks(n)
    hosts = problem.compute_hosts()

    svars = {}
    for e in g.edges():
        for interval in ivals:
            svars[(e.src, e.dst, interval)] = lp.var(_send_name(e.src, e.dst, interval))
    cvars = {}
    for h in hosts:
        for t in tasks:
            cvars[(h, t)] = lp.var(_cons_name(h, t))
    dvars = {i: lp.var(f"deliver[{i}]") for i in range(1, n)}

    def s_expr(i, j):
        c = g.cost(i, j)
        e = LinExpr()
        for interval in ivals:
            e.add_term(svars[(i, j, interval)], problem.size(interval) * c)
        return e

    for e in g.edges():
        lp.add(s_expr(e.src, e.dst) <= 1, name=f"edge[{e.src}->{e.dst}]")
    for p in g.nodes():
        if g.successors(p):
            lp.add(lin_sum(s_expr(p, q) for q in g.successors(p)) <= 1,
                   name=f"out[{p}]")
        if g.predecessors(p):
            lp.add(lin_sum(s_expr(q, p) for q in g.predecessors(p)) <= 1,
                   name=f"in[{p}]")
    for h in hosts:
        alpha = LinExpr()
        for t in tasks:
            alpha.add_term(cvars[(h, t)], problem.task_time(h, t))
        lp.add(alpha <= 1, name=f"alpha[{h}]")

    for p in g.nodes():
        for interval in ivals:
            if iv.is_leaf(interval) and problem.owner(interval[0]) == p:
                continue
            inflow = lin_sum(svars[(q, p, interval)] for q in g.predecessors(p))
            produced = lin_sum(cvars[(p, t)] for t in iv.tasks_producing(interval)
                               if (p, t) in cvars)
            outflow = lin_sum(svars[(p, q, interval)] for q in g.successors(p))
            consumed = lin_sum(cvars[(p, t)] for t in iv.tasks_consuming(interval, n)
                               if (p, t) in cvars)
            absorbed = 0
            k, m = interval
            if k == 0 and m >= 1 and problem.owner(m) == p:
                absorbed = dvars[m]  # prefix v[0, m] delivered at rank m's owner
            lp.add(inflow + produced == outflow + consumed + absorbed,
                   name=f"conserve[{p},v[{k},{m}]]")

    for i in range(1, n):
        lp.add(dvars[i] == tp, name=f"prefix-throughput[{i}]")
    lp.maximize(tp)
    return lp
