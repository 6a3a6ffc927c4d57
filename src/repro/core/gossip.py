"""Series of Gossips — personalized all-to-all (Section 3.5).

The ``SSPA2A(G)`` linear program: every source ``P_k`` streams a distinct
message ``m_{k,l}`` to every target ``P_l``.  Constraints are the one-port
bounds, per-type conservation, and a *common* throughput ``TP`` for every
(source, target) pair — one gossip operation is complete when every pair has
been served once.

The same fidelity notes as :mod:`repro.core.scatter` apply, per type
``(k, l)``: conservation is imposed at ``i not in {k, l}`` and the target
``l`` never re-emits ``m_{k,l}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.collectives.base import CollectiveSolution
from repro.lp import LinearProgram, LinExpr, lin_sum
from repro.platform.graph import NodeId, PlatformGraph

TypeKey = Tuple[NodeId, NodeId]  # (emitting source k, destination l)


@dataclass(frozen=True)
class GossipProblem:
    """A Series-of-Gossips instance.

    ``sources`` and ``targets`` may overlap (the usual all-to-all has them
    equal); the pair ``(k, k)`` is skipped — a node keeps its own message.
    """

    platform: PlatformGraph
    sources: Tuple[NodeId, ...]
    targets: Tuple[NodeId, ...]

    def __init__(self, platform: PlatformGraph, sources: Sequence[NodeId],
                 targets: Sequence[NodeId]) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "targets", tuple(targets))
        for n in list(self.sources) + list(self.targets):
            if n not in platform:
                raise ValueError(f"node {n!r} not in platform")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError("duplicate source")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target")
        if not self.pairs():
            raise ValueError("no (source, target) pair with source != target")

    def pairs(self) -> List[TypeKey]:
        return [(k, l) for k in self.sources for l in self.targets if k != l]


def _gvar(i: NodeId, j: NodeId, k: NodeId, l: NodeId) -> str:
    return f"send[{i}->{j},m({k},{l})]"


def build_gossip_lp(problem: GossipProblem) -> LinearProgram:
    """Construct ``SSPA2A(G)`` (not yet solved)."""
    g = problem.platform
    lp = LinearProgram(f"SSPA2A({g.name})")
    tp = lp.var("TP")
    pairs = problem.pairs()

    gvars: Dict[Tuple[NodeId, NodeId, NodeId, NodeId], object] = {}
    for e in g.edges():
        for (k, l) in pairs:
            if e.src == l:  # destination never re-emits its type
                continue
            gvars[(e.src, e.dst, k, l)] = lp.var(_gvar(e.src, e.dst, k, l))

    def s_expr(i: NodeId, j: NodeId):
        c = g.cost(i, j)
        e = LinExpr()
        for (k, l) in pairs:
            v = gvars.get((i, j, k, l))
            if v is not None:
                e.add_term(v, c)
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
    for p in g.nodes():
        for (k, l) in pairs:
            if p == k or p == l:
                continue
            inflow = lin_sum(gvars[(q, p, k, l)] for q in g.predecessors(p)
                             if (q, p, k, l) in gvars)
            outflow = lin_sum(gvars[(p, q, k, l)] for q in g.successors(p)
                              if (p, q, k, l) in gvars)
            lp.add(inflow == outflow, name=f"conserve[{p},m({k},{l})]")
    for (k, l) in pairs:
        inflow = lin_sum(gvars[(q, l, k, l)] for q in g.predecessors(l)
                         if (q, l, k, l) in gvars)
        lp.add(inflow == tp, name=f"throughput[m({k},{l})]")
    lp.maximize(tp)
    return lp


@dataclass
class GossipSolution(CollectiveSolution):
    """Solved ``SSPA2A(G)`` with cleaned per-pair flows.

    ``send[(i, j, k, l)]`` is the rate of ``m_{k,l}`` on edge ``(i, j)``;
    ``paths[(k, l)]`` the pair's weighted path decomposition.  Shared
    behavior comes from the registered ``"gossip"`` spec.
    """

    collective: str = "gossip"
