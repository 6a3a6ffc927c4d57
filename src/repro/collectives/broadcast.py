"""Registry spec for the Series of Broadcasts (content-divisible flows).

The LP, problem and solution live in :mod:`repro.core.broadcast`; the
schedule routes message *slices* along the weighted arborescences packed
from the content rates (:mod:`repro.core.arborescence`).  Slice ``r``'s
item on a tree edge ``(i, j)`` is ``("slc", r, j)`` — destination-tagged so
each hop has its own FIFO — and the schedule's ``replicas`` map fans a
landed slice out to the node's children (and to its own delivery token
``("dlv", r, node)`` when the node is a target).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.collectives.base import CollectiveSolution, CollectiveSpec, SimSemantics
from repro.collectives.registry import register_collective
from repro.core.broadcast import (
    BroadcastProblem,
    BroadcastSolution,
    build_broadcast_lp,
    _fvar,
)
from repro.core.schedule import RateBundle
from repro.platform.graph import NodeId


class BroadcastSpec(CollectiveSpec):
    name = "broadcast"
    title = "Series of Broadcasts — one source streams the same message to every target (SSB)"
    problem_type = BroadcastProblem
    solution_type = BroadcastSolution
    delivery_mode = "sum"  # arborescence slices are independent streams

    # ------------------------------------------------------------- LP
    def build_lp(self, problem):
        return build_broadcast_lp(problem)

    # ---------------------------------------------------------- codec
    def commodities(self, problem):
        return list(problem.targets)

    def commodity_var(self, problem, commodity, i, j):
        return _fvar(i, j, commodity)

    def commodity_endpoints(self, problem, commodity) -> Optional[Tuple[NodeId, NodeId]]:
        return (problem.source, commodity)

    def send_key(self, commodity, i, j):
        return (i, j, commodity)

    def send_unit_time(self, problem, key):
        # send keys of the *finalized* solution are bare edges carrying
        # content; per-target flows live in ``solution.flows``
        return problem.msg_size * problem.platform.cost(key[0], key[1])

    def format_commodity(self, send_key):
        return "content"

    # ----------------------------------------------------- extraction
    def finalize(self, problem, throughput, send, paths, lp, sol, tol):
        """Fold the cleaned per-target flows into per-edge content.

        The content a schedule must ship on an edge is the *maximum* of
        the per-target flows crossing it (shared bytes), never more than
        the LP's ``content`` variable — so occupation can only drop.
        """
        flows = {t: {} for t in problem.targets}
        for (i, j, t), f in send.items():
            flows[t][(i, j)] = f
        content = {}
        for fl in flows.values():
            for e, f in fl.items():
                if f > content.get(e, 0):
                    content[e] = f
        return self.solution_type(problem=problem, throughput=throughput,
                                  send=content, paths=paths, flows=flows,
                                  lp_solution=sol, exact=sol.exact,
                                  collective=self.name)

    # ----------------------------------------------------- invariants
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        problem = solution.problem
        g = problem.platform
        bad = self._port_violations(solution, tol)
        for t in problem.targets:
            flow = solution.flows.get(t, {})
            for e, f in flow.items():
                if f > solution.send.get(e, 0) + tol:
                    bad.append(f"content[{e[0]}->{e[1]},m{t}] flow {f} "
                               f"exceeds content {solution.send.get(e, 0)}")
            inflows, outflows = {}, {}
            for (i, j), f in flow.items():
                inflows[j] = inflows.get(j, 0) + f
                outflows[i] = outflows.get(i, 0) + f
            for p in g.nodes():
                inflow = inflows.get(p, 0)
                outflow = outflows.get(p, 0)
                if p == problem.source:
                    continue
                if p == t:
                    if abs(inflow - solution.throughput) > tol:
                        bad.append(f"throughput[m{t}] {inflow} != "
                                   f"{solution.throughput}")
                    if outflow > tol:
                        bad.append(f"reemit[{p},m{t}] {outflow} > 0")
                elif abs(inflow - outflow) > tol:
                    bad.append(f"conserve[{p},m{t}] in {inflow} != out "
                               f"{outflow}")
        return bad

    # ------------------------------------------------------- schedule
    def rate_bundle(self, solution: CollectiveSolution) -> RateBundle:
        problem = solution.problem
        g = problem.platform
        rates = {}
        replicas = {}
        deliveries = {}
        targets = set(problem.targets)
        for r, arb in enumerate(solution.arborescences()):
            w = arb.weight
            children = arb.children()
            for (i, j) in arb.edges:
                rates[(i, j, ("slc", r, j))] = \
                    (w, problem.msg_size * g.cost(i, j))
            for v in arb.nodes():
                if v == problem.source:
                    continue
                reps = tuple(("slc", r, c) for c in children.get(v, ()))
                if v in targets:
                    reps = reps + (("dlv", r, v),)
                replicas[(v, ("slc", r, v))] = reps
            for t in problem.targets:
                deliveries[("dlv", r, t)] = t
        return RateBundle(rates=rates, deliveries=deliveries,
                          replicas=replicas)

    def build_schedule(self, solution: CollectiveSolution):
        from repro.core.schedule import schedule_from_rates

        if not solution.exact:
            raise ValueError("schedule construction needs exact rational "
                             "rates; solve with backend='exact' or "
                             "rationalize first")
        bundle = self.rate_bundle(solution)
        return schedule_from_rates(
            bundle.rates, throughput=solution.throughput,
            deliveries=bundle.deliveries,
            name=f"broadcast({solution.problem.platform.name})",
            replicas=bundle.replicas, delivery_mode=self.delivery_mode)

    # ------------------------------------------------------ simulator
    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        supplies = {}
        for slot in schedule.slots:
            for tr in slot.transfers:
                if tr.src == problem.source and tr.item[0] == "slc":
                    # slice r enters the platform at the source; every
                    # root edge ships the same stamped content copy
                    r = tr.item[1]
                    supplies[(problem.source, tr.item)] = \
                        (lambda rr: (lambda seq: ("bc", rr, seq)))(r)
        return SimSemantics(
            supplies=supplies,
            expected=lambda item, seq: ("bc", item[1], seq))

    def ops_bound_factor(self, problem) -> int:
        return len(problem.targets)  # one slice-stream group per target

    def tp_suffix(self, problem, solution=None) -> str:
        return f" ({len(problem.targets)} targets share content)"

    # ------------------------------------------------------------ CLI
    def add_arguments(self, parser) -> None:
        parser.add_argument("--source", required=True)
        parser.add_argument("--targets", required=True,
                            help="comma-separated node ids")
        parser.add_argument("--msg-size", type=int, default=1,
                            dest="msg_size")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_node, parse_nodes

        return BroadcastProblem(platform, parse_node(args.source),
                                parse_nodes(args.targets),
                                msg_size=args.msg_size)

    def report(self, solution: CollectiveSolution) -> str:
        from repro.viz.tables import rates_table

        lines = [rates_table(solution, title="content rates")]
        if solution.exact:
            lines += [a.describe() for a in solution.arborescences()]
        return "\n".join(lines)

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        src = hosts[0]
        return BroadcastProblem(platform, src,
                                [h for h in hosts[1:5] if h != src])


BROADCAST = register_collective(BroadcastSpec())
