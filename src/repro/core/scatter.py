"""Series of Scatters: the ``SSSP(G)`` linear program (Section 3).

One source processor streams distinct same-size messages to every target;
we maximize the common throughput ``TP`` — the (rational) number of scatter
operations initiated per time-unit — subject to the one-port constraints
and a per-message-type conservation law.

Variables (per Section 3.1):

- ``send(Pi -> Pj, m_k)``: fractional number of messages of type ``m_k``
  (destination ``P_k``) crossing edge ``(i, j)`` per time-unit,
- ``s(Pi -> Pj) = sum_k send(Pi->Pj, m_k) * c(i, j)``: fraction of time the
  edge is busy (an *expression* here, not a MILP variable),
- ``TP``: the throughput, identical at every target (equation 6).

Fidelity notes (documented deviations from the literal text):

1. Equation (5) — the conservation law — is imposed for every node *except
   the source and the destination of the type* (``i != source``, ``i != k``).
   The paper states only ``k != i``; applying it at the source would force
   the source's net emission to zero.
2. A destination never re-emits its own type: variables
   ``send(P_k -> *, m_k)`` are not created.  Without this, the LP could
   inflate ``TP`` with phantom circulation through the target (a cycle
   ``k -> a -> k`` adds to the left side of equation (6) without any message
   ever leaving the source).  The paper implicitly assumes messages are
   genuine; this restriction makes that explicit and costs no throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple

Item = Hashable

from repro.collectives.base import CollectiveSolution
from repro.lp import LinearProgram, LinExpr, lin_sum
from repro.platform.graph import NodeId, PlatformGraph

EdgeKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class ScatterProblem:
    """A Series-of-Scatters instance: platform, source, targets.

    Messages are unit-size (the paper's setting); heterogeneous message
    sizes can be emulated by scaling edge costs.
    """

    platform: PlatformGraph
    source: NodeId
    targets: Tuple[NodeId, ...]

    def __init__(self, platform: PlatformGraph, source: NodeId,
                 targets: Sequence[NodeId]) -> None:
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "targets", tuple(targets))
        if source not in platform:
            raise ValueError(f"source {source!r} not in platform")
        seen = set()
        for t in self.targets:
            if t not in platform:
                raise ValueError(f"target {t!r} not in platform")
            if t == source:
                raise ValueError(
                    "the source keeps its own message locally; listing it as "
                    "a target is not meaningful — remove it")
            if t in seen:
                raise ValueError(f"duplicate target {t!r}")
            seen.add(t)
        if not self.targets:
            raise ValueError("need at least one target")


def _svar(i: NodeId, j: NodeId, k: NodeId) -> str:
    return f"send[{i}->{j},m{k}]"


def build_scatter_lp(problem: ScatterProblem) -> LinearProgram:
    """Construct ``SSSP(G)`` for ``problem`` (not yet solved)."""
    g = problem.platform
    lp = LinearProgram(f"SSSP({g.name})")
    tp = lp.var("TP")

    edges = [(e.src, e.dst, e.cost) for e in g.edges()]
    # send variables, skipping re-emission by the type's destination
    svars: Dict[Tuple[NodeId, NodeId, NodeId], object] = {}
    for (i, j, _c) in edges:
        for k in problem.targets:
            if i == k:
                continue
            svars[(i, j, k)] = lp.var(_svar(i, j, k))

    def s_expr(i: NodeId, j: NodeId):
        c = g.cost(i, j)
        e = LinExpr()
        for k in problem.targets:
            v = svars.get((i, j, k))
            if v is not None:
                e.add_term(v, c)
        return e

    # edge occupation in [0, 1]  (equations 1 and 4)
    for (i, j, _c) in edges:
        lp.add(s_expr(i, j) <= 1, name=f"edge[{i}->{j}]")
    # one-port: outgoing (2) and incoming (3)
    for p in g.nodes():
        out = lin_sum(s_expr(p, q) for q in g.successors(p))
        if g.successors(p):
            lp.add(out <= 1, name=f"out[{p}]")
        inc = lin_sum(s_expr(q, p) for q in g.predecessors(p))
        if g.predecessors(p):
            lp.add(inc <= 1, name=f"in[{p}]")
    # conservation law (5), at i not in {source, k}
    for p in g.nodes():
        if p == problem.source:
            continue
        for k in problem.targets:
            if p == k:
                continue
            inflow = lin_sum(v for q in g.predecessors(p)
                             if (v := svars.get((q, p, k))) is not None)
            outflow = lin_sum(v for q in g.successors(p)
                              if (v := svars.get((p, q, k))) is not None)
            lp.add(inflow == outflow, name=f"conserve[{p},m{k}]")
    # same throughput at every target (6)
    for k in problem.targets:
        inflow = lin_sum(svars[(q, k, k)] for q in g.predecessors(k)
                         if (q, k, k) in svars)
        lp.add(inflow == tp, name=f"throughput[m{k}]")

    lp.maximize(tp)
    return lp


@dataclass
class ScatterSolution(CollectiveSolution):
    """Solved ``SSSP(G)``: throughput and per-edge, per-type rates.

    ``send[(i, j, k)]`` is the rate of type-``k`` messages on edge ``(i,j)``
    per time-unit, after flow cleaning (cycles and junk dropped, so each
    type is exactly a ``TP``-valued source→k path flow).  ``paths[k]`` is
    the corresponding weighted path decomposition.  Shared behavior
    (``verify``, ``edge_occupation``) comes from
    :class:`repro.collectives.base.CollectiveSolution` via the registered
    ``"scatter"`` spec.
    """

    collective: str = "scatter"


def build_scatter_schedule_fixed_period(solution: ScatterSolution,
                                        period: int):
    """Exact schedule from a *float* scatter solution via Section 4.6.

    The per-target path flows are rounded down to multiples of
    ``1/period`` (:func:`repro.core.fixed_period.fixed_period_paths`), which
    keeps every conservation law intact, restores exact rational rates, and
    loses at most ``card(paths)/period`` throughput (Proposition 4 applied
    to paths).  The platform costs must be rational.

    Returns ``(schedule, FixedPeriodResult)``.
    """
    from repro.core.fixed_period import fixed_period_paths
    from repro.core.schedule import schedule_from_rates

    fp = fixed_period_paths(solution.paths, period=period,
                            original_throughput=solution.throughput)
    g = solution.problem.platform
    rates: Dict[Tuple[NodeId, NodeId, Item], Tuple[object, object]] = {}
    for (k, path, w) in fp.items:
        for (i, j) in zip(path, path[1:]):
            key = (i, j, ("msg", k))
            old = rates.get(key)
            rates[key] = ((old[0] if old else 0) + w, g.cost(i, j))
    deliveries = {("msg", k): k for k in solution.problem.targets
                  if any(kk == k for (kk, _p, _w) in fp.items)}
    sched = schedule_from_rates(rates, throughput=fp.throughput,
                                deliveries=deliveries,
                                name=f"scatter-fp{period}({g.name})")
    return sched, fp
