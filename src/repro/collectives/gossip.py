"""Registry spec for the Series of Gossips (``SSPA2A(G)``, Section 3.5)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.collectives.base import CollectiveSolution, CollectiveSpec, SimSemantics
from repro.collectives.registry import register_collective
from repro.core.gossip import GossipProblem, GossipSolution, build_gossip_lp, _gvar
from repro.platform.graph import NodeId


class GossipSpec(CollectiveSpec):
    name = "gossip"
    title = "Series of Gossips — personalized all-to-all (SSPA2A)"
    problem_type = GossipProblem
    solution_type = GossipSolution

    def build_lp(self, problem):
        return build_gossip_lp(problem)

    def commodities(self, problem):
        return problem.pairs()

    def commodity_var(self, problem, commodity, i, j):
        k, l = commodity
        return _gvar(i, j, k, l)

    def commodity_endpoints(self, problem, commodity) -> Optional[Tuple[NodeId, NodeId]]:
        return commodity  # (emitting source, destination)

    def send_key(self, commodity, i, j):
        k, l = commodity
        return (i, j, k, l)

    def send_unit_time(self, problem, key):
        return problem.platform.cost(key[0], key[1])

    def format_commodity(self, send_key):
        return f"m({send_key[2]},{send_key[3]})"

    # extraction: base default_passes (prune -> clean-commodity) applies

    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        bad = self._port_violations(solution, tol)
        arrivals = {}
        for (i, j, k, l), f in solution.send.items():
            if j == l:
                arrivals[(k, l)] = arrivals.get((k, l), 0) + f
        for (k, l) in solution.problem.pairs():
            delivered = arrivals.get((k, l), 0)
            if abs(delivered - solution.throughput) > tol:
                bad.append(
                    f"throughput[m({k},{l})] {delivered} != {solution.throughput}")
        return bad

    def rate_bundle(self, solution: CollectiveSolution):
        from repro.core.schedule import RateBundle

        g = solution.problem.platform
        rates = {}
        for (i, j, k, l), f in solution.send.items():
            rates[(i, j, ("msg", k, l))] = (f, g.cost(i, j))
        deliveries = {("msg", k, l): l for (k, l) in solution.problem.pairs()}
        return RateBundle(rates=rates, deliveries=deliveries)

    def build_schedule(self, solution: CollectiveSolution):
        from repro.core.schedule import schedule_from_rates

        if not solution.exact:
            raise ValueError("schedule construction needs exact rational rates")
        bundle = self.rate_bundle(solution)
        return schedule_from_rates(
            bundle.rates, throughput=solution.throughput,
            deliveries=bundle.deliveries,
            name=f"gossip({solution.problem.platform.name})")

    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        supplies = {}
        for item in schedule.deliveries:
            _tag, k, _l = item  # ("msg", k, l)
            supplies[(k, item)] = (lambda it: (lambda seq: (it, seq)))(item)
        return SimSemantics(supplies=supplies,
                            expected=lambda item, seq: (item, seq))

    def tp_suffix(self, problem, solution=None) -> str:
        return f" ({len(problem.pairs())} message types)"

    def add_arguments(self, parser) -> None:
        parser.add_argument("--sources", required=True,
                            help="comma-separated node ids")
        parser.add_argument("--targets", required=True,
                            help="comma-separated node ids")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_nodes

        return GossipProblem(platform, parse_nodes(args.sources),
                             parse_nodes(args.targets))

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        return GossipProblem(platform, hosts[:2], hosts[:3])


GOSSIP = register_collective(GossipSpec())
