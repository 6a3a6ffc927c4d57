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

from repro.collectives.base import CollectiveSolution, add_capacity_rows
from repro.core import intervals as iv
from repro.lp import LinearProgram
from repro.lp.model import EQ, LE
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


def reduction_tree_graph(problem, target: NodeId,
                         send_name: Callable = _send_name,
                         cons_name: Callable = _cons_name) -> dict:
    """Reduction-tree pricing descriptor of one reduce commodity block
    (see :meth:`repro.collectives.base.CollectiveSpec.pricing_graphs`):
    every ``send`` of ``v[k,m]`` as ``(i, j, (k, m), name)`` and every
    task as ``(host, (k, l, m), name)``, named by ``send_name`` /
    ``cons_name``; the target's re-emissions of ``v[0,n-1]`` are left
    out, as :func:`build_reduce_lp` leaves them out."""
    n = problem.n_values
    full = iv.full_interval(n)
    ivals = iv.all_intervals(n)
    sends = tuple((e.src, e.dst, ival, send_name(e.src, e.dst, ival))
                  for e in problem.platform.edges() for ival in ivals
                  if not (e.src == target and ival == full))
    tasks = tuple((h, t, cons_name(h, t)) for h in problem.compute_hosts()
                  for t in iv.all_tasks(n))
    return {"kind": "tree", "target": target,
            "owners": tuple(problem.participants), "n": n,
            "sends": sends, "tasks": tasks}


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

    # column indices; rows go in as integer rows, no expressions
    svars: Dict[Tuple[NodeId, NodeId, Interval], int] = {}
    for e in g.edges():
        for interval in ivals:
            if e.src == problem.target and interval == full:
                continue  # the target never re-emits the final result
            svars[(e.src, e.dst, interval)] = lp.var(
                _send_name(e.src, e.dst, interval)).index

    cvars: Dict[Tuple[NodeId, Task], int] = {}
    for h in hosts:
        for t in tasks:
            cvars[(h, t)] = lp.var(_cons_name(h, t)).index

    # edge occupation and one-port (equations 1-3, 8)
    occ = {}
    for e in g.edges():
        i, j = e.src, e.dst
        c = g.cost(i, j)
        live = [(v, problem.size(interval) * c) for interval in ivals
                if (v := svars.get((i, j, interval))) is not None]
        occ[(i, j)] = ([v for v, _ in live], [a for _, a in live])
    add_capacity_rows(lp, g, occ)

    # computation time (equations 7, 9): alpha(Pi) <= 1
    for h in hosts:
        lp.add_row([cvars[(h, t)] for t in tasks],
                   [problem.task_time(h, t) for t in tasks],
                   LE, 1, f"alpha[{h}]")

    # conservation law (equation 10): inflow + produced == outflow + consumed
    for p in g.nodes():
        for interval in ivals:
            if iv.is_leaf(interval) and problem.owner(interval[0]) == p:
                continue  # fresh values appear here
            if p == problem.target and interval == full:
                continue  # absorbed here — handled by the throughput equation
            gain = [svars[(q, p, interval)] for q in g.predecessors(p)
                    if (q, p, interval) in svars]
            gain += [cvars[(p, t)] for t in iv.tasks_producing(interval)
                     if (p, t) in cvars]
            loss = [svars[(p, q, interval)] for q in g.successors(p)
                    if (p, q, interval) in svars]
            loss += [cvars[(p, t)] for t in iv.tasks_consuming(interval, n)
                     if (p, t) in cvars]
            lp.add_row(gain + loss, [1] * len(gain) + [-1] * len(loss), EQ,
                       0, f"conserve[{p},v[{interval[0]},{interval[1]}]]")

    # throughput (equation 11): arrival + local == TP
    gain = [svars[(q, problem.target, full)]
            for q in g.predecessors(problem.target)
            if (q, problem.target, full) in svars]
    gain += [cvars[(problem.target, t)] for t in iv.tasks_producing(full)
             if (problem.target, t) in cvars]
    lp.add_row(gain + [tp.index], [1] * len(gain) + [-1], EQ, 0, "throughput")

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
