"""``SimComm`` — an mpi4py-flavoured façade over the simulated platform.

Ranks map to compute nodes of a :class:`~repro.platform.graph.PlatformGraph`.
Single-shot collectives (``scatter``, ``reduce``) replay the classical
``direct-scatter`` / ``flat-tree-reduce`` baseline schedules and return both
the results and the completion time of the first operation — the makespan,
the quantity classical collective algorithms optimize.  The ``*_series``
variants build the paper's steady-state schedules and return measured
throughput — the quantity this paper optimizes.  Having both on one object
makes the makespan-vs-throughput contrast of the introduction tangible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.collectives import (
    resolve_collective, schedule_collective, solve_collective,
)
from repro.core.reduce_op import ReduceProblem, solve_reduce
from repro.core.scatter import ScatterProblem, solve_scatter, build_scatter_schedule
from repro.core.schedule import build_reduce_schedule
from repro.platform.graph import NodeId, PlatformGraph
from repro.sim.executor import simulate_collective, simulate_reduce, simulate_scatter
from repro.sim.operators import SeqConcat, noncommutative_reduce


@dataclass
class SeriesReport:
    """Result of a pipelined series of collectives."""

    kind: str
    lp_throughput: object
    measured_throughput: float
    completed_ops: int
    horizon: object
    correct: bool


class SimComm:
    """A communicator whose ranks live on platform compute nodes.

    Parameters
    ----------
    platform:
        The platform graph.
    ranks:
        Compute nodes in rank order; defaults to ``platform.compute_nodes()``.
    """

    def __init__(self, platform: PlatformGraph,
                 ranks: Optional[Sequence[NodeId]] = None) -> None:
        self.platform = platform
        self.ranks: List[NodeId] = list(ranks if ranks is not None
                                        else platform.compute_nodes())
        if len(self.ranks) < 2:
            raise ValueError("a communicator needs at least 2 ranks")
        for r in self.ranks:
            if r not in platform:
                raise ValueError(f"rank node {r!r} not in platform")

    # ------------------------------------------------------------------
    def size(self) -> int:
        return len(self.ranks)

    def node_of(self, rank: int) -> NodeId:
        return self.ranks[rank]

    # ------------------------------------------------------------------
    # single-shot collectives (makespan semantics, baseline schedules)
    # ------------------------------------------------------------------
    def scatter(self, values: Sequence, root: int = 0) -> Tuple[List, object]:
        """One scatter from ``root``; returns (per-rank values, makespan)."""
        if len(values) != self.size():
            raise ValueError("need exactly one value per rank")
        src = self.node_of(root)
        problem = ScatterProblem(self.platform, src,
                                 [n for n in self.ranks if n != src])
        return list(values), self._first_op_time(problem, "direct-scatter")

    def reduce(self, values: Sequence, root: int = 0,
               op=SeqConcat) -> Tuple[object, object]:
        """One reduce to ``root`` (flat strategy); returns (result, makespan)."""
        if len(values) != self.size():
            raise ValueError("need exactly one value per rank")
        problem = ReduceProblem(self.platform, participants=self.ranks,
                                target=self.node_of(root))
        result = noncommutative_reduce(list(values), op=op)
        return result, self._first_op_time(problem, "flat-tree-reduce")

    def _first_op_time(self, problem, baseline: str) -> object:
        """Completion time of operation 0 on the baseline's schedule.

        The schedule is replayed for ``max_hops + 1`` periods, enough for
        the first instance to cross every route.  Merge tasks are priced
        into the baseline's rate but not replayed, so a reduce's makespan
        is its last arrival at the target.
        """
        sol = solve_collective(problem, collective=baseline)
        plan = resolve_collective(problem, baseline).plan(problem)
        res = simulate_collective(schedule_collective(sol), problem,
                                  n_periods=plan.max_hops + 1,
                                  collective=baseline, record_trace=False)
        firsts = [res.delivery_times.get(item) for item in res.schedule.deliveries]
        if not all(firsts):
            raise RuntimeError(f"{baseline}: operation 0 did not complete "
                               f"within {res.periods} periods")
        return max(times[0] for times in firsts)

    # ------------------------------------------------------------------
    # pipelined series (steady-state semantics, LP schedules)
    # ------------------------------------------------------------------
    def scatter_series(self, root: int = 0, n_periods: int = 50,
                       backend: str = "auto") -> SeriesReport:
        """Run a pipelined series of scatters at the LP-optimal rate."""
        src = self.node_of(root)
        targets = [n for n in self.ranks if n != src]
        problem = ScatterProblem(self.platform, src, targets)
        sol = solve_scatter(problem, backend=backend)
        if not sol.exact:
            raise RuntimeError("series execution needs an exact LP solution")
        sched = build_scatter_schedule(sol)
        res = simulate_scatter(sched, problem, n_periods=n_periods)
        return SeriesReport(kind="scatter", lp_throughput=sol.throughput,
                            measured_throughput=float(res.measured_throughput()),
                            completed_ops=res.completed_ops(),
                            horizon=res.horizon, correct=res.correct)

    def reduce_series(self, root: int = 0, n_periods: int = 50,
                      op=SeqConcat, backend: str = "auto",
                      msg_size: object = 1, task_work: object = 1) -> SeriesReport:
        """Run a pipelined series of reduces at the LP-optimal rate."""
        problem = ReduceProblem(self.platform, participants=self.ranks,
                                target=self.node_of(root), msg_size=msg_size,
                                task_work=task_work)
        sol = solve_reduce(problem, backend=backend)
        if not sol.exact:
            raise RuntimeError("series execution needs an exact LP solution")
        sched = build_reduce_schedule(sol)
        res = simulate_reduce(sched, problem, n_periods=n_periods, op=op)
        return SeriesReport(kind="reduce", lp_throughput=sol.throughput,
                            measured_throughput=float(res.measured_throughput()),
                            completed_ops=res.completed_ops(),
                            horizon=res.horizon, correct=res.correct)
