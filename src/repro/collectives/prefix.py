"""Registry spec for the parallel-prefix extension (Section 6 outlook).

Prefix shares :class:`ReduceProblem` with the plain reduce, so type-based
resolution picks ``"reduce"`` first; request this spec by name
(``solve_collective(problem, collective="prefix")``).
"""

from __future__ import annotations

from typing import List

from repro.collectives.base import (CollectiveSolution, CollectiveSpec,
                                   send_balance, task_balance)
from repro.collectives.registry import register_collective
from repro.core import intervals as iv
from repro.core.flowclean import PruneEpsilonRatesPass
from repro.core.prefix import PrefixSolution, build_prefix_lp
from repro.core.reduce_op import ReduceProblem, _cons_name, _send_name


class PrefixSpec(CollectiveSpec):
    name = "prefix"
    title = "Parallel prefix — every rank receives its prefix v[0, i]"
    problem_type = ReduceProblem
    solution_type = PrefixSolution
    has_schedule = False
    resolve_by_type = False  # ReduceProblem belongs to "reduce"

    def build_lp(self, problem):
        return build_prefix_lp(problem)

    def commodities(self, problem):
        return iv.all_intervals(problem.n_values)

    def commodity_var(self, problem, commodity, i, j):
        return _send_name(i, j, commodity)

    def send_key(self, commodity, i, j):
        return (i, j, commodity)

    def send_unit_time(self, problem, key):
        i, j, interval = key
        return problem.size(interval) * problem.platform.cost(i, j)

    def cons_unit_time(self, problem, key):
        node, task = key
        return problem.task_time(node, task)

    def format_commodity(self, send_key):
        k, m = send_key[2]
        return f"v[{k},{m}]"

    def default_passes(self):
        # No source→sink cleaning (intervals are many-to-many) and no cycle
        # cancellation either: prefix flows may legitimately transit a
        # delivery node, and no downstream tree extraction requires
        # acyclicity yet.
        return (PruneEpsilonRatesPass(),)

    def finalize(self, problem, throughput, send, paths, lp, sol, tol):
        cons = {}
        for h in problem.compute_hosts():
            for t in iv.all_tasks(problem.n_values):
                r = sol.value(lp.get(_cons_name(h, t)))
                if r > tol:
                    cons[(h, t)] = r
        return self.solution_type(problem=problem, throughput=throughput,
                                  send=send, cons=cons, lp_solution=sol,
                                  exact=sol.exact, collective=self.name)

    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        """Port/alpha capacities plus the delivery-aware conservation law.

        At the owner of rank ``m``, the prefix ``v[0, m]`` must be absorbed
        at exactly the common throughput ``TP``; everywhere else (except
        fresh leaves) inflow + production balances outflow + consumption.
        """
        bad = self._port_violations(solution, tol)
        p_ = solution.problem
        n = p_.n_values
        inflow, outflow = send_balance(solution.send)
        produced, consumed = task_balance(solution.cons)
        for h in p_.compute_hosts():
            a = solution.alpha(h)
            if a > 1 + tol:
                bad.append(f"alpha[{h}] {a} > 1")
        for node in p_.platform.nodes():
            for interval in iv.all_intervals(n):
                if iv.is_leaf(interval) and p_.owner(interval[0]) == node:
                    continue
                absorbed = 0
                k, m = interval
                if k == 0 and m >= 1 and p_.owner(m) == node:
                    absorbed = solution.throughput
                key = (node, interval)
                lhs = inflow.get(key, 0) + produced.get(key, 0)
                rhs = (outflow.get(key, 0) + consumed.get(key, 0)
                       + absorbed)
                if abs(lhs - rhs) > tol:
                    bad.append(f"conserve[{node},v{interval}] {lhs} != {rhs}")
        return bad

    def add_arguments(self, parser) -> None:
        parser.add_argument("--participants", required=True,
                            help="comma-separated node ids in logical (⊕) order")
        parser.add_argument("--msg-size", type=int, default=1, dest="msg_size")
        parser.add_argument("--task-work", type=int, default=1,
                            dest="task_work")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_nodes

        participants = parse_nodes(args.participants)
        # every participant is a target for its own prefix; the problem's
        # single target field is ignored by the prefix LP
        return ReduceProblem(platform, participants, participants[0],
                             msg_size=args.msg_size, task_work=args.task_work)

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        parts = hosts[:3]
        return ReduceProblem(platform, parts, parts[0])


PREFIX = register_collective(PrefixSpec())
