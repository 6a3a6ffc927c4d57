"""Series of All-reduces: reduce-scatter composed with all-gather.

All-reduce — every participant ends with the full reduction ``v[0] ⊕ ...
⊕ v[n-1]`` — decomposes canonically (Träff, arXiv:2410.14234) into a
reduce-scatter (participant ``b`` computes reduced block ``b``) followed
by an all-gather (the reduced blocks are redistributed to everyone).  In
the steady-state framework the two stages pipeline: while operation ``s``
is being all-gathered, operation ``s + 1`` is already being
reduce-scattered, so the composed throughput is the harmonic combination

    TP  =  1 / (1 / TP_reduce-scatter  +  1 / TP_all-gather)

and the composed period is the two stage periods back to back — exactly
what :class:`repro.collectives.base.CompositeCollectiveSpec` in
``"sequential"`` mode computes generically.

The harmonic value is a *bound*, not the optimum: both phases are priced
against the same one-port/alpha capacities, so nothing forces them to
alternate.  ``solve_collective(problem, mode="pipelined")`` instead
solves ONE joint LP in which both phases run concurrently at a single
common ``TP`` — the all-gather broadcasts sourcing from the
reduce-scatter block sinks through explicit ``chain[..]`` precedence
rows — and always satisfies ``TP_pipelined >= TP_sequential`` (the
phase-scaled sequential point is feasible), strictly beating the
harmonic bound whenever the phases stress different links or CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.platform.graph import NodeId, PlatformGraph


@dataclass(frozen=True)
class AllReduceProblem:
    """A Series-of-All-reduces instance.

    ``participants[j]`` owns fragment ``v[j]``; every participant must end
    with the full reduction.  ``msg_size``/``task_work``/``task_time_fn``
    follow :class:`repro.core.reduce_op.ReduceProblem` (the reduce-scatter
    stage inherits them; the all-gather stage redistributes blocks of size
    ``msg_size``).
    """

    platform: PlatformGraph
    participants: Tuple[NodeId, ...]
    msg_size: object = 1
    task_work: object = 1
    task_time_fn: Optional[Callable] = None

    def __init__(self, platform: PlatformGraph,
                 participants: Sequence[NodeId], msg_size: object = 1,
                 task_work: object = 1,
                 task_time_fn: Optional[Callable] = None) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "participants", tuple(participants))
        object.__setattr__(self, "msg_size", msg_size)
        object.__setattr__(self, "task_work", task_work)
        object.__setattr__(self, "task_time_fn", task_time_fn)
        if len(self.participants) < 2:
            raise ValueError("need at least two participants")
        # stage problems re-validate platform membership / duplicates

    @property
    def n_values(self) -> int:
        return len(self.participants)

    def owner(self, j: int) -> NodeId:
        return self.participants[j]
