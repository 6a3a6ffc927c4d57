"""Series of Reduces: the ``SSR(G)`` linear program (Section 4.2).

Values ``v_0 .. v_{n-1}`` live on *participant* nodes (logical order is the
``⊕`` order — the operator is associative but **not** commutative); the
result ``v[0, n-1]`` must reach ``P_target``.  Unlike scatter, computation
enters the picture: merge tasks ``T_{k,l,m}`` may run on any compute node,
so the LP has both transfer variables and task-count variables, coupled by
the conservation law (equation 10):

   (received) + (produced in place)
        = (sent away) + (consumed as left input) + (consumed as right input)

imposed for every node ``i`` and every interval ``[k,m]`` *except*:

- ``[j,j]`` at the owner of ``v_j`` (fresh values appear there), and
- ``[0,n-1]`` at the target (the result is absorbed there — equation 11
  turns that absorption into the throughput ``TP``).

Fidelity note: as in :mod:`repro.core.scatter`, the target never re-emits
the complete result (no ``send(target -> *, v[0,n-1])`` variables), which
closes the phantom-circulation loophole in the literal text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.collectives.base import CollectiveSolution
from repro.core import intervals as iv
from repro.lp import LinearProgram, LinExpr, lin_sum
from repro.platform.graph import NodeId, PlatformGraph

Interval = Tuple[int, int]
Task = Tuple[int, int, int]


@dataclass(frozen=True)
class ReduceProblem:
    """A Series-of-Reduces instance.

    Parameters
    ----------
    platform:
        The platform graph.
    participants:
        Node ids in *logical order*: ``participants[j]`` owns ``v_j``.
        Must be compute nodes (they at least produce their own value).
    target:
        Node receiving every ``v[0, n-1]``.
    msg_size:
        Size of a ``v[k,m]`` message; either a number (all equal — the
        paper's experiments use 10) or a callable ``(k, m) -> size``.
    task_work:
        Work of one merge task; ``task_time(node) = task_work / speed``.
        The paper's Section 4.7 uses ``10 / s_i`` i.e. ``task_work = 10``.
    task_time_fn:
        Optional full override ``(node, (k, l, m)) -> time``.
    """

    platform: PlatformGraph
    participants: Tuple[NodeId, ...]
    target: NodeId
    msg_size: object = 1
    task_work: object = 1
    task_time_fn: Optional[Callable[[NodeId, Task], object]] = None

    def __init__(self, platform: PlatformGraph, participants: Sequence[NodeId],
                 target: NodeId, msg_size: object = 1, task_work: object = 1,
                 task_time_fn: Optional[Callable[[NodeId, Task], object]] = None) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "participants", tuple(participants))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "msg_size", msg_size)
        object.__setattr__(self, "task_work", task_work)
        object.__setattr__(self, "task_time_fn", task_time_fn)
        if len(self.participants) < 2:
            raise ValueError("a reduction needs at least two participants")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("duplicate participant")
        for p in self.participants:
            if p not in platform:
                raise ValueError(f"participant {p!r} not in platform")
            if not platform.is_compute(p):
                raise ValueError(f"participant {p!r} is a router (no speed)")
        if target not in platform:
            raise ValueError(f"target {target!r} not in platform")

    # ------------------------------------------------------------------
    @property
    def n_values(self) -> int:
        return len(self.participants)

    def owner(self, j: int) -> NodeId:
        """Physical node owning logical value ``v_j``."""
        return self.participants[j]

    def logical_index(self, node: NodeId) -> Optional[int]:
        try:
            return self.participants.index(node)
        except ValueError:
            return None

    def size(self, interval: Interval) -> object:
        if callable(self.msg_size):
            return self.msg_size(*interval)
        return self.msg_size

    def task_time(self, node: NodeId, task: Task) -> object:
        if self.task_time_fn is not None:
            return self.task_time_fn(node, task)
        speed = self.platform.speed(node)
        if speed is None or speed <= 0:
            raise ValueError(f"node {node!r} cannot compute")
        if isinstance(self.task_work, Fraction) or isinstance(speed, Fraction) \
                or (isinstance(self.task_work, int) and isinstance(speed, int)):
            return Fraction(self.task_work) / Fraction(speed)
        return self.task_work / speed

    def compute_hosts(self) -> List[NodeId]:
        """Nodes allowed to run merge tasks (all compute nodes)."""
        return self.platform.compute_nodes()


def _send_name(i: NodeId, j: NodeId, interval: Interval) -> str:
    return f"send[{i}->{j},v[{interval[0]},{interval[1]}]]"


def _cons_name(i: NodeId, task: Task) -> str:
    return f"cons[{i},T({task[0]},{task[1]},{task[2]})]"


def build_reduce_lp(problem: ReduceProblem) -> LinearProgram:
    """Construct ``SSR(G)`` (not yet solved)."""
    g = problem.platform
    n = problem.n_values
    lp = LinearProgram(f"SSR({g.name})")
    tp = lp.var("TP")
    ivals = iv.all_intervals(n)
    tasks = iv.all_tasks(n)
    full = iv.full_interval(n)
    hosts = problem.compute_hosts()

    svars: Dict[Tuple[NodeId, NodeId, Interval], object] = {}
    for e in g.edges():
        for interval in ivals:
            if e.src == problem.target and interval == full:
                continue  # the target never re-emits the final result
            svars[(e.src, e.dst, interval)] = lp.var(_send_name(e.src, e.dst, interval))

    cvars: Dict[Tuple[NodeId, Task], object] = {}
    for h in hosts:
        for t in tasks:
            cvars[(h, t)] = lp.var(_cons_name(h, t))

    # edge occupation and one-port (equations 1-3, 8)
    def s_expr(i: NodeId, j: NodeId):
        c = g.cost(i, j)
        e = LinExpr()
        for interval in ivals:
            v = svars.get((i, j, interval))
            if v is not None:
                e.add_term(v, problem.size(interval) * c)
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

    # computation time (equations 7, 9): alpha(Pi) <= 1
    for h in hosts:
        alpha = LinExpr()
        for t in tasks:
            alpha.add_term(cvars[(h, t)], problem.task_time(h, t))
        lp.add(alpha <= 1, name=f"alpha[{h}]")

    # conservation law (equation 10)
    for p in g.nodes():
        for interval in ivals:
            if iv.is_leaf(interval) and problem.owner(interval[0]) == p:
                continue  # fresh values appear here
            if p == problem.target and interval == full:
                continue  # absorbed here — handled by the throughput equation
            inflow = lin_sum(svars[(q, p, interval)] for q in g.predecessors(p)
                             if (q, p, interval) in svars)
            produced = lin_sum(cvars[(p, t)] for t in iv.tasks_producing(interval)
                               if (p, t) in cvars)
            outflow = lin_sum(svars[(p, q, interval)] for q in g.successors(p)
                              if (p, q, interval) in svars)
            consumed = lin_sum(cvars[(p, t)] for t in
                               iv.tasks_consuming(interval, n) if (p, t) in cvars)
            lp.add(inflow + produced == outflow + consumed,
                   name=f"conserve[{p},v[{interval[0]},{interval[1]}]]")

    # throughput (equation 11)
    arrival = lin_sum(svars[(q, problem.target, full)]
                      for q in g.predecessors(problem.target)
                      if (q, problem.target, full) in svars)
    local = lin_sum(cvars[(problem.target, t)] for t in iv.tasks_producing(full)
                    if (problem.target, t) in cvars)
    lp.add(arrival + local == tp, name="throughput")

    lp.maximize(tp)
    return lp


@dataclass
class ReduceSolution(CollectiveSolution):
    """Solved ``SSR(G)``.

    ``send[(i, j, (k, m))]`` are transfer rates (cycles per interval type
    already cancelled); ``cons[(i, (k, l, m))]`` are task rates.  ``trees``
    is filled by :meth:`extract` (Section 4.4).  Shared behavior
    (``verify``, ``edge_occupation``, ``alpha``) comes from the registered
    ``"reduce"`` spec.
    """

    collective: str = "reduce"

    def extract(self, eps: Optional[float] = None) -> list:
        """Extract weighted reduction trees (Section 4.4); caches result."""
        from repro.core.trees import extract_trees

        if self.trees is None:
            self.trees = extract_trees(self, eps=eps)
        return self.trees
