"""Series of Reduce-scatters: the ``SSRS(G)`` linear program.

Reduce-scatter (Träff 2024, *Optimal, Non-pipelined Reduce-scatter and
Allreduce Algorithms*) is the collective where every participant
contributes one fragment per *block* and each participant ends up with one
fully reduced block: block ``b`` is ``v_b[0] ⊕ ... ⊕ v_b[n-1]`` and must
reach participant ``b``.  In the steady-state framework of the paper this
is ``n`` Series-of-Reduces instances — one per block, block ``b``
targeting ``participants[b]`` — *coupled through the shared one-port and
computation capacities* and driven at a single common throughput ``TP``
(one reduce-scatter operation is complete when every block has been
delivered once).

The LP is the reduce LP replicated per block:

- transfer variables ``send(Pi -> Pj, b: v[k,m])`` and task variables
  ``cons(Pi, b: T_{k,l,m})`` for every block ``b``,
- edge occupation / one-port / alpha constraints sum over **all** blocks,
- the conservation law (equation 10) holds per ``(block, interval)``, with
  fresh leaves ``v_b[j,j]`` appearing at ``participants[j]`` for every
  block (each participant owns one fragment of every block),
- per-block throughput: ``v_b[0, n-1]`` is absorbed at ``participants[b]``
  at rate ``TP`` (the same fidelity rule as reduce applies per block: the
  block's target never re-emits its complete result).

Downstream machinery is reused through per-block *projections*: block
``b``'s rates form a valid ``ReduceSolution`` for the reduce problem
targeting ``participants[b]``, so tree extraction (Section 4.4) and the
periodic schedule reconstruction run unchanged per block and are then
superposed into one schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.collectives.base import CollectiveSolution, add_capacity_rows
from repro.core import intervals as iv
from repro.core.reduce_op import ReduceProblem
from repro.lp import LinearProgram
from repro.lp.model import EQ, LE
from repro.platform.graph import NodeId, PlatformGraph

Interval = Tuple[int, int]
Task = Tuple[int, int, int]


@dataclass(frozen=True)
class ReduceScatterProblem:
    """A Series-of-Reduce-scatters instance.

    ``participants[j]`` owns fragment ``v_b[j]`` of every block ``b``;
    block ``b``'s reduced result must reach ``participants[b]``.
    ``msg_size``/``task_work``/``task_time_fn`` follow
    :class:`repro.core.reduce_op.ReduceProblem` (all blocks share them).
    """

    platform: PlatformGraph
    participants: Tuple[NodeId, ...]
    msg_size: object = 1
    task_work: object = 1
    task_time_fn: Optional[Callable[[NodeId, Task], object]] = None

    def __init__(self, platform: PlatformGraph, participants: Sequence[NodeId],
                 msg_size: object = 1, task_work: object = 1,
                 task_time_fn: Optional[Callable[[NodeId, Task], object]] = None) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "participants", tuple(participants))
        object.__setattr__(self, "msg_size", msg_size)
        object.__setattr__(self, "task_work", task_work)
        object.__setattr__(self, "task_time_fn", task_time_fn)
        # participant/platform validation is exactly the reduce problem's;
        # the prototype is kept because size/task_time delegate to it from
        # O(n^4)-iteration LP-build and verify loops
        object.__setattr__(self, "_proto", self.block_problem(0))

    # ------------------------------------------------------------------
    @property
    def n_values(self) -> int:
        return len(self.participants)

    @property
    def blocks(self) -> range:
        return range(self.n_values)

    def owner(self, j: int) -> NodeId:
        return self.participants[j]

    def block_target(self, b: int) -> NodeId:
        """Destination of block ``b``'s reduced result."""
        return self.participants[b]

    def block_problem(self, b: int) -> ReduceProblem:
        """Block ``b`` as a standalone Series-of-Reduces problem."""
        return ReduceProblem(self.platform, self.participants,
                             self.block_target(b), msg_size=self.msg_size,
                             task_work=self.task_work,
                             task_time_fn=self.task_time_fn)

    def size(self, interval: Interval) -> object:
        if callable(self.msg_size):
            return self.msg_size(*interval)
        return self.msg_size

    def task_time(self, node: NodeId, task: Task) -> object:
        return self._proto.task_time(node, task)

    def compute_hosts(self) -> List[NodeId]:
        return self.platform.compute_nodes()


def _send_name(i: NodeId, j: NodeId, b: int, interval: Interval) -> str:
    return f"send[{i}->{j},b{b}:v[{interval[0]},{interval[1]}]]"


def _cons_name(i: NodeId, b: int, task: Task) -> str:
    return f"cons[{i},b{b}:T({task[0]},{task[1]},{task[2]})]"


def build_reduce_scatter_lp(problem: ReduceScatterProblem) -> LinearProgram:
    """Construct ``SSRS(G)`` (not yet solved)."""
    g = problem.platform
    n = problem.n_values
    lp = LinearProgram(f"SSRS({g.name})")
    tp = lp.var("TP")
    ivals = iv.all_intervals(n)
    tasks = iv.all_tasks(n)
    full = iv.full_interval(n)
    hosts = problem.compute_hosts()

    # column indices
    svars: Dict[Tuple[NodeId, NodeId, int, Interval], int] = {}
    for e in g.edges():
        for b in problem.blocks:
            for interval in ivals:
                if e.src == problem.block_target(b) and interval == full:
                    continue  # a block's target never re-emits its result
                svars[(e.src, e.dst, b, interval)] = \
                    lp.var(_send_name(e.src, e.dst, b, interval)).index

    cvars: Dict[Tuple[NodeId, int, Task], int] = {}
    for h in hosts:
        for b in problem.blocks:
            for t in tasks:
                cvars[(h, b, t)] = lp.var(_cons_name(h, b, t)).index

    # edge occupation and one-port, summed over every block's traffic;
    # rows go in as integer rows, no expressions
    occ = {}
    for e in g.edges():
        i, j = e.src, e.dst
        c = g.cost(i, j)
        live = [(v, problem.size(interval) * c) for b in problem.blocks
                for interval in ivals
                if (v := svars.get((i, j, b, interval))) is not None]
        occ[(i, j)] = ([v for v, _ in live], [a for _, a in live])
    add_capacity_rows(lp, g, occ)

    # computation time: alpha(Pi) <= 1 over every block's tasks
    for h in hosts:
        lp.add_row([cvars[(h, b, t)] for b in problem.blocks for t in tasks],
                   [problem.task_time(h, t) for _ in problem.blocks
                    for t in tasks], LE, 1, f"alpha[{h}]")

    # conservation law per (block, interval): inflow + produced ==
    # outflow + consumed
    for p in g.nodes():
        for b in problem.blocks:
            for interval in ivals:
                if iv.is_leaf(interval) and problem.owner(interval[0]) == p:
                    continue  # fresh fragment of every block appears here
                if p == problem.block_target(b) and interval == full:
                    continue  # absorbed — handled by the throughput equation
                gain = [svars[(q, p, b, interval)] for q in g.predecessors(p)
                        if (q, p, b, interval) in svars]
                gain += [cvars[(p, b, t)]
                         for t in iv.tasks_producing(interval)
                         if (p, b, t) in cvars]
                loss = [svars[(p, q, b, interval)] for q in g.successors(p)
                        if (p, q, b, interval) in svars]
                loss += [cvars[(p, b, t)]
                         for t in iv.tasks_consuming(interval, n)
                         if (p, b, t) in cvars]
                lp.add_row(gain + loss, [1] * len(gain) + [-1] * len(loss),
                           EQ, 0, f"conserve[{p},b{b}:v[{interval[0]},"
                           f"{interval[1]}]]")

    # common throughput: every block delivered at rate TP
    for b in problem.blocks:
        tgt = problem.block_target(b)
        gain = [svars[(q, tgt, b, full)] for q in g.predecessors(tgt)
                if (q, tgt, b, full) in svars]
        gain += [cvars[(tgt, b, t)] for t in iv.tasks_producing(full)
                 if (tgt, b, t) in cvars]
        lp.add_row(gain + [tp.index], [1] * len(gain) + [-1], EQ, 0,
                   f"throughput[b{b}]")

    lp.maximize(tp)
    return lp


@dataclass
class ReduceScatterSolution(CollectiveSolution):
    """Solved ``SSRS(G)``.

    ``send[(i, j, b, (k, m))]`` are per-block transfer rates (cycles
    cancelled per block/interval); ``cons[(i, b, (k, l, m))]`` are
    per-block task rates.  ``trees`` maps block -> weighted reduction
    trees once :meth:`extract` has run.
    """

    collective: str = "reduce-scatter"

    def block_solution(self, b: int):
        """Block ``b``'s rates projected onto a :class:`ReduceSolution`.

        The projection is a genuine solution of the block's reduce problem
        (same platform capacities, throughput ``TP``), so tree extraction
        and scheduling reuse the reduce machinery unchanged.
        """
        from repro.core.reduce_op import ReduceSolution

        send = {(i, j, interval): f
                for (i, j, bb, interval), f in self.send.items() if bb == b}
        cons = {(h, t): r
                for (h, bb, t), r in (self.cons or {}).items() if bb == b}
        return ReduceSolution(problem=self.problem.block_problem(b),
                              throughput=self.throughput, send=send,
                              cons=cons, lp_solution=self.lp_solution,
                              exact=self.exact)

    def extract(self, eps: Optional[float] = None) -> Dict[int, list]:
        """Per-block weighted reduction trees (Section 4.4); caches."""
        if self.trees is None:
            self.trees = {b: self.block_solution(b).extract(eps=eps)
                          for b in self.problem.blocks}
        return self.trees


def build_reduce_scatter_schedule(solution: ReduceScatterSolution,
                                  trees: Optional[Dict[int, list]] = None):
    """Periodic schedule superposing every block's reduction trees.

    Each block contributes the rate bundle of its reduction trees
    (:func:`repro.core.schedule.tree_rate_bundle`, stream ids ``(b, r)`` so
    per-block streams stay distinct in the simulator), and the shared
    :func:`repro.core.schedule.superpose_schedules` merges them into one
    period — the same machinery every joint composite rides.  The schedule
    throughput is ``TP`` (one operation == one delivery of *every* block).
    """
    from repro.core.schedule import superpose_schedules, tree_rate_bundle

    if not solution.exact:
        raise ValueError("schedule construction needs exact rational rates")
    if trees is None:
        trees = solution.extract()
    problem = solution.problem
    bundles = [tree_rate_bundle(problem, block_trees,
                                target=problem.block_target(b),
                                stream=lambda r, b=b: (b, r))
               for b, block_trees in trees.items()]
    return superpose_schedules(bundles, throughput=solution.throughput,
                               name=f"reduce-scatter({problem.platform.name})")
