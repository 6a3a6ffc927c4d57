"""Series of All-gathers: joint composition of per-block broadcasts.

All-gather is the communication transpose of reduce-scatter: participant
``b`` starts with block ``b`` and every participant must end with *all*
blocks.  In the steady-state framework this is ``n`` series-of-broadcasts
— block ``b`` broadcast from ``participants[b]`` to every other
participant — *coupled through the shared one-port capacities* and driven
at one common throughput ``TP`` (one all-gather completes when every block
reached every participant once).

There is no bespoke LP here: the collective is a
:class:`repro.collectives.base.CompositeCollectiveSpec` in ``"joint"``
mode, so :func:`repro.collectives.base.compose_joint_lp` assembles the
joint LP from the registered broadcast stages and the schedule is the
superposition of the per-block arborescence bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.platform.graph import NodeId, PlatformGraph


@dataclass(frozen=True)
class AllGatherProblem:
    """A Series-of-All-gathers instance.

    ``participants[b]`` owns block ``b`` (of size ``msg_size``) and must
    receive every other block; non-participant nodes may relay content.
    """

    platform: PlatformGraph
    participants: Tuple[NodeId, ...]
    msg_size: object = 1

    def __init__(self, platform: PlatformGraph,
                 participants: Sequence[NodeId],
                 msg_size: object = 1) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "participants", tuple(participants))
        object.__setattr__(self, "msg_size", msg_size)
        seen = set()
        for p in self.participants:
            if p not in platform:
                raise ValueError(f"participant {p!r} not in platform")
            if p in seen:
                raise ValueError(f"duplicate participant {p!r}")
            seen.add(p)
        if len(self.participants) < 2:
            raise ValueError("need at least two participants")

    @property
    def n_values(self) -> int:
        return len(self.participants)

    @property
    def blocks(self) -> range:
        return range(self.n_values)

    def owner(self, b: int) -> NodeId:
        return self.participants[b]

    def block_targets(self, b: int) -> List[NodeId]:
        """Everyone but the owner receives block ``b``."""
        return [p for p in self.participants if p != self.owner(b)]
