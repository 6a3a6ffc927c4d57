"""Series of Broadcasts: the content-divisible flow LP (Section 5 outlook).

Broadcast streams the *same* message from one source to every target, so —
unlike scatter, whose per-target messages are distinct — flows to different
targets may share bytes on a common edge.  The paper's Section 5 discussion
points at exactly this relaxation: model a per-target flow ``f_t`` of value
``TP`` for every target plus a per-edge *content* rate ``x`` with

    f_t(i, j) <= x(i, j)           (content is shared, not summed)

and charge the one-port/edge occupation with ``x`` alone.  This is the
series-of-broadcasts LP of Beaumont-Legrand-Marchal-Robert; its optimum
upper-bounds any steady-state broadcast and is achieved by routing message
*slices* along weighted arborescences packed from ``x``
(:mod:`repro.core.arborescence`, Edmonds' branching theorem).

Variables:

- ``send(Pi -> Pj, m_t)``: rate of target ``t``'s flow on edge ``(i, j)``
  (the scatter naming, so the shared codec/cleaning pipeline applies),
- ``content(Pi -> Pj)``: rate of distinct message content on the edge,
- ``TP``: broadcast operations initiated per time-unit.

Constraints: per-target conservation and ``TP`` delivery exactly as in the
scatter LP (a target never re-emits its own flow), ``f_t <= x`` per edge
and target, and edge/one-port occupation of ``x * size * c(i, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collectives.base import CollectiveSolution
from repro.lp import LinearProgram, LinExpr, lin_sum
from repro.platform.graph import NodeId, PlatformGraph

EdgeKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class BroadcastProblem:
    """A Series-of-Broadcasts instance: platform, source, targets.

    Every target must receive the full ``msg_size`` message each
    operation; non-target nodes may relay content.
    """

    platform: PlatformGraph
    source: NodeId
    targets: Tuple[NodeId, ...]
    msg_size: object = 1

    def __init__(self, platform: PlatformGraph, source: NodeId,
                 targets: Sequence[NodeId], msg_size: object = 1) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "msg_size", msg_size)
        if source not in platform:
            raise ValueError(f"source {source!r} not in platform")
        seen = set()
        for t in self.targets:
            if t not in platform:
                raise ValueError(f"target {t!r} not in platform")
            if t == source:
                raise ValueError("the source holds the message already; "
                                 "listing it as a target is not meaningful")
            if t in seen:
                raise ValueError(f"duplicate target {t!r}")
            seen.add(t)
        if not self.targets:
            raise ValueError("need at least one target")


def _fvar(i: NodeId, j: NodeId, t: NodeId) -> str:
    return f"send[{i}->{j},m{t}]"


def _xvar(i: NodeId, j: NodeId) -> str:
    return f"content[{i}->{j}]"


def build_broadcast_lp(problem: BroadcastProblem) -> LinearProgram:
    """Construct the content-divisible broadcast LP (not yet solved)."""
    g = problem.platform
    lp = LinearProgram(f"SSB({g.name})")
    tp = lp.var("TP")

    xvars: Dict[EdgeKey, object] = {}
    fvars: Dict[Tuple[NodeId, NodeId, NodeId], object] = {}
    for e in g.edges():
        xvars[(e.src, e.dst)] = lp.var(_xvar(e.src, e.dst))
        for t in problem.targets:
            if e.src == t:
                continue  # a target never re-emits its own flow
            fvars[(e.src, e.dst, t)] = lp.var(_fvar(e.src, e.dst, t))

    # occupation is charged on content, not on the per-target flows
    def x_expr(i: NodeId, j: NodeId):
        e = LinExpr()
        e.add_term(xvars[(i, j)], problem.msg_size * g.cost(i, j))
        return e

    for e in g.edges():
        lp.add(x_expr(e.src, e.dst) <= 1, name=f"edge[{e.src}->{e.dst}]")
    for p in g.nodes():
        if g.successors(p):
            lp.add(lin_sum(x_expr(p, q) for q in g.successors(p)) <= 1,
                   name=f"out[{p}]")
        if g.predecessors(p):
            lp.add(lin_sum(x_expr(q, p) for q in g.predecessors(p)) <= 1,
                   name=f"in[{p}]")

    # content dominates every per-target flow on the edge
    for (i, j, t), f in fvars.items():
        lp.add(f <= xvars[(i, j)], name=f"content[{i}->{j},m{t}]")

    # per-target conservation away from source and target
    for p in g.nodes():
        if p == problem.source:
            continue
        for t in problem.targets:
            if p == t:
                continue
            inflow = lin_sum(v for q in g.predecessors(p)
                             if (v := fvars.get((q, p, t))) is not None)
            outflow = lin_sum(v for q in g.successors(p)
                              if (v := fvars.get((p, q, t))) is not None)
            lp.add(inflow == outflow, name=f"conserve[{p},m{t}]")

    # every target absorbs the message at rate TP
    for t in problem.targets:
        inflow = lin_sum(fvars[(q, t, t)] for q in g.predecessors(t)
                         if (q, t, t) in fvars)
        lp.add(inflow == tp, name=f"throughput[m{t}]")

    lp.maximize(tp)
    return lp


@dataclass
class BroadcastSolution(CollectiveSolution):
    """Solved series of broadcasts.

    ``send[(i, j)]`` is the cleaned *content* rate on the edge (what
    occupies the ports); ``flows[t][(i, j)]`` the per-target flow it
    dominates; ``paths[t]`` the per-target path decomposition.  ``trees``
    caches the weighted arborescences once :meth:`arborescences` has
    packed them.
    """

    collective: str = "broadcast"
    flows: Optional[Dict[NodeId, Dict[EdgeKey, object]]] = None

    def arborescences(self) -> List[object]:
        """Weighted arborescences carrying the content (cached)."""
        from repro.core.arborescence import pack_arborescences

        if self.trees is None:
            self.trees = pack_arborescences(
                dict(self.send), self.problem.source,
                list(self.problem.targets), self.throughput)
        return self.trees
