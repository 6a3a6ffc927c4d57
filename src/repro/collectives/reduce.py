"""Registry spec for the Series of Reduces (``SSR(G)``, Section 4)."""

from __future__ import annotations

from typing import List

from repro.collectives.base import (CollectiveSolution, CollectiveSpec,
                                   SimSemantics, send_balance, task_balance)
from repro.collectives.registry import register_collective
from repro.core import intervals as iv
from repro.core.flowclean import PruneEpsilonRatesPass, RemoveCyclesPass
from repro.core.reduce_op import (
    ReduceProblem,
    ReduceSolution,
    build_reduce_lp,
    reduction_tree_graph,
    _cons_name,
    _send_name,
)
from repro.sim.operators import SeqConcat


class ReduceSpec(CollectiveSpec):
    name = "reduce"
    title = "Series of Reduces — non-commutative reduction to one target (SSR)"
    problem_type = ReduceProblem
    solution_type = ReduceSolution

    def build_lp(self, problem):
        return build_reduce_lp(problem)

    # ---------------------------------------------------------- codec
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

    def pricing_graphs(self, problem):
        # the whole SSR cone is one block of reduction trees
        return (reduction_tree_graph(problem, problem.target),)

    # ----------------------------------------------------- extraction
    def default_passes(self):
        # Per-interval transfer cycles are cancelled so tree extraction
        # terminates: FIND_TREE can chase its own tail around a cycle
        # (see repro.core.trees); intervals have many producers/consumers,
        # so no source→sink path cleaning applies.
        return (PruneEpsilonRatesPass(), RemoveCyclesPass())

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

    # ----------------------------------------------------- invariants
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        bad = self._port_violations(solution, tol)
        p_ = solution.problem
        g = p_.platform
        n = p_.n_values
        inflow, outflow = send_balance(solution.send)
        produced, consumed = task_balance(solution.cons)
        for h in p_.compute_hosts():
            a = solution.alpha(h)
            if a > 1 + tol:
                bad.append(f"alpha[{h}] {a} > 1")
        full = iv.full_interval(n)
        for node in g.nodes():
            for interval in iv.all_intervals(n):
                if iv.is_leaf(interval) and p_.owner(interval[0]) == node:
                    continue
                if node == p_.target and interval == full:
                    continue
                key = (node, interval)
                lhs = inflow.get(key, 0) + produced.get(key, 0)
                rhs = outflow.get(key, 0) + consumed.get(key, 0)
                if abs(lhs - rhs) > tol:
                    bad.append(f"conserve[{node},v{interval}] {lhs} != {rhs}")
        arrived = inflow.get((p_.target, full), 0)
        local = produced.get((p_.target, full), 0)
        if abs(arrived + local - solution.throughput) > tol:
            bad.append(f"throughput {arrived + local} != {solution.throughput}")
        return bad

    # ------------------------------------------------------- schedule
    def rate_bundle(self, solution: CollectiveSolution):
        from repro.core.schedule import tree_rate_bundle

        trees = solution.trees if solution.trees is not None \
            else solution.extract()
        return tree_rate_bundle(solution.problem, trees,
                                target=solution.problem.target)

    def build_schedule(self, solution: CollectiveSolution):
        from repro.core.schedule import build_reduce_schedule

        return build_reduce_schedule(solution)

    # ------------------------------------------------------ simulator
    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        op = op or SeqConcat
        n = problem.n_values
        return SimSemantics(
            supplies=self._leaf_value_supplies(schedule, problem, op),
            expected=lambda item, seq: op.expected(n, seq),
            combine=op.combine)

    # ------------------------------------------------------------ CLI
    def add_arguments(self, parser) -> None:
        parser.add_argument("--participants", required=True,
                            help="comma-separated node ids in logical (⊕) order")
        parser.add_argument("--target", required=True)
        parser.add_argument("--msg-size", type=int, default=1, dest="msg_size")
        parser.add_argument("--task-work", type=int, default=1,
                            dest="task_work")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_node, parse_nodes

        return ReduceProblem(platform, parse_nodes(args.participants),
                             parse_node(args.target), msg_size=args.msg_size,
                             task_work=args.task_work)

    def report(self, solution: CollectiveSolution) -> str:
        trees = solution.extract()
        lines = [f"{len(trees)} reduction tree(s):"]
        lines.extend(t.describe() for t in trees)
        return "\n".join(lines)

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        parts = hosts[:4]
        return ReduceProblem(platform, parts, rng.choice(parts))


# priority makes reduce's claim on bare ReduceProblem instances explicit
# (prefix shares the problem type but opts out of type resolution; the
# priority guards the precedence even if that ever changes)
REDUCE = register_collective(ReduceSpec(), priority=1)
