"""Registry spec for the Series of Scatters (``SSSP(G)``, Section 3)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.collectives.base import (CollectiveSolution, CollectiveSpec,
                                   SimSemantics, send_balance)
from repro.collectives.registry import register_collective
from repro.core.scatter import ScatterProblem, ScatterSolution, build_scatter_lp, _svar
from repro.platform.graph import NodeId


class ScatterSpec(CollectiveSpec):
    name = "scatter"
    title = "Series of Scatters — one source streams a distinct message to every target (SSSP)"
    problem_type = ScatterProblem
    solution_type = ScatterSolution

    # ------------------------------------------------------------- LP
    def build_lp(self, problem):
        return build_scatter_lp(problem)

    # ---------------------------------------------------------- codec
    def commodities(self, problem):
        return list(problem.targets)

    def commodity_var(self, problem, commodity, i, j):
        return _svar(i, j, commodity)

    def commodity_endpoints(self, problem, commodity) -> Optional[Tuple[NodeId, NodeId]]:
        return (problem.source, commodity)

    def send_key(self, commodity, i, j):
        return (i, j, commodity)

    def send_unit_time(self, problem, key):
        return problem.platform.cost(key[0], key[1])

    def format_commodity(self, send_key):
        return f"m[{send_key[2]}]"

    # extraction: base default_passes (prune -> clean-commodity) applies

    # ----------------------------------------------------- invariants
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        problem = solution.problem
        g = problem.platform
        bad = self._port_violations(solution, tol)
        inflows, outflows = send_balance(solution.send)
        for k in problem.targets:
            for p in g.nodes():
                inflow = inflows.get((p, k), 0)
                outflow = outflows.get((p, k), 0)
                if p == problem.source:
                    continue
                if p == k:
                    if abs(inflow - solution.throughput) > tol:
                        bad.append(
                            f"throughput[m{k}] {inflow} != {solution.throughput}")
                    if outflow > tol:
                        bad.append(f"reemit[{p},m{k}] {outflow} > 0")
                elif abs(inflow - outflow) > tol:
                    bad.append(f"conserve[{p},m{k}] in {inflow} != out {outflow}")
        return bad

    # ------------------------------------------------------- schedule
    def rate_bundle(self, solution: CollectiveSolution):
        from repro.core.schedule import RateBundle

        g = solution.problem.platform
        rates = {}
        for (i, j, k), f in solution.send.items():
            rates[(i, j, ("msg", k))] = (f, g.cost(i, j))
        deliveries = {("msg", k): k for k in solution.problem.targets}
        return RateBundle(rates=rates, deliveries=deliveries)

    def build_schedule(self, solution: CollectiveSolution):
        from repro.core.schedule import schedule_from_rates

        if not solution.exact:
            raise ValueError(
                "schedule construction needs exact rational rates; solve with "
                "backend='exact' or rationalize first (see repro.lp.rationalize)")
        bundle = self.rate_bundle(solution)
        return schedule_from_rates(
            bundle.rates, throughput=solution.throughput,
            deliveries=bundle.deliveries,
            name=f"scatter({solution.problem.platform.name})")

    # ------------------------------------------------------ simulator
    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        supplies = {}
        for item in schedule.deliveries:
            # item == ("msg", k): infinite supply at the source
            supplies[(problem.source, item)] = \
                (lambda it: (lambda seq: (it, seq)))(item)
        return SimSemantics(supplies=supplies,
                            expected=lambda item, seq: (item, seq))

    # ------------------------------------------------------------ CLI
    def add_arguments(self, parser) -> None:
        parser.add_argument("--source", required=True)
        parser.add_argument("--targets", required=True,
                            help="comma-separated node ids")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_node, parse_nodes

        return ScatterProblem(platform, parse_node(args.source),
                              parse_nodes(args.targets))

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        src = hosts[0]
        return ScatterProblem(platform, src,
                              [h for h in hosts[1:5] if h != src])


SCATTER = register_collective(ScatterSpec())
