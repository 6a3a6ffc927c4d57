"""Registry spec for the Series of Reduce-scatters (``SSRS(G)``).

This collective exists to prove the registry architecture: everything
below is plug-in code — the LP builder and per-block projections live in
:mod:`repro.core.reduce_scatter`, and the shared orchestrator, pass
pipeline, schedule machinery and simulator run unchanged.
"""

from __future__ import annotations

from typing import List

from repro.collectives.base import (CollectiveSolution, CollectiveSpec,
                                   SimSemantics, send_balance, task_balance)
from repro.collectives.registry import register_collective
from repro.core import intervals as iv
from repro.core.flowclean import PruneEpsilonRatesPass, RemoveCyclesPass
from repro.core.reduce_op import reduction_tree_graph
from repro.core.reduce_scatter import (
    ReduceScatterProblem,
    ReduceScatterSolution,
    build_reduce_scatter_lp,
    build_reduce_scatter_schedule,
    _cons_name,
    _send_name,
)
from repro.sim.operators import SeqConcat


class ReduceScatterSpec(CollectiveSpec):
    name = "reduce-scatter"
    title = "Series of Reduce-scatters — every participant ends with one reduced block (SSRS)"
    problem_type = ReduceScatterProblem
    solution_type = ReduceScatterSolution

    def build_lp(self, problem):
        return build_reduce_scatter_lp(problem)

    # ---------------------------------------------------------- codec
    def commodities(self, problem):
        ivals = iv.all_intervals(problem.n_values)
        return [(b, interval) for b in problem.blocks for interval in ivals]

    def commodity_var(self, problem, commodity, i, j):
        b, interval = commodity
        return _send_name(i, j, b, interval)

    def send_key(self, commodity, i, j):
        b, interval = commodity
        return (i, j, b, interval)

    def send_unit_time(self, problem, key):
        i, j, _b, interval = key
        return problem.size(interval) * problem.platform.cost(i, j)

    def cons_node(self, key):
        return key[0]

    def cons_unit_time(self, problem, key):
        node, _b, task = key
        return problem.task_time(node, task)

    def format_commodity(self, send_key):
        b = send_key[2]
        k, m = send_key[3]
        return f"b{b}:v[{k},{m}]"

    def pricing_graphs(self, problem):
        # one block of reduction trees per reduced block
        return tuple(
            reduction_tree_graph(
                problem, problem.block_target(b),
                send_name=lambda i, j, ival, b=b: _send_name(i, j, b, ival),
                cons_name=lambda h, t, b=b: _cons_name(h, b, t))
            for b in problem.blocks)

    # ----------------------------------------------------- extraction
    def default_passes(self):
        # cycles cancelled per (block, interval) so per-block tree
        # extraction terminates, exactly as for the plain reduce
        return (PruneEpsilonRatesPass(), RemoveCyclesPass())

    def finalize(self, problem, throughput, send, paths, lp, sol, tol):
        cons = {}
        for h in problem.compute_hosts():
            for b in problem.blocks:
                for t in iv.all_tasks(problem.n_values):
                    r = sol.value(lp.get(_cons_name(h, b, t)))
                    if r > tol:
                        cons[(h, b, t)] = r
        return self.solution_type(problem=problem, throughput=throughput,
                                  send=send, cons=cons, lp_solution=sol,
                                  exact=sol.exact, collective=self.name)

    # ----------------------------------------------------- invariants
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        """Shared port/alpha capacities plus per-block reduce invariants
        (conservation and a ``TP`` delivery for every block)."""
        bad = self._port_violations(solution, tol)
        p_ = solution.problem
        for h in p_.compute_hosts():
            a = solution.alpha(h)
            if a > 1 + tol:
                bad.append(f"alpha[{h}] {a} > 1")
        n = p_.n_values
        full = iv.full_interval(n)
        for b in p_.blocks:
            block = solution.block_solution(b)
            tgt = p_.block_target(b)
            inflow, outflow = send_balance(block.send)
            produced, consumed = task_balance(block.cons)
            for node in p_.platform.nodes():
                for interval in iv.all_intervals(n):
                    if iv.is_leaf(interval) and p_.owner(interval[0]) == node:
                        continue
                    if node == tgt and interval == full:
                        continue
                    key = (node, interval)
                    lhs = inflow.get(key, 0) + produced.get(key, 0)
                    rhs = outflow.get(key, 0) + consumed.get(key, 0)
                    if abs(lhs - rhs) > tol:
                        bad.append(
                            f"conserve[{node},b{b}:v{interval}] {lhs} != {rhs}")
            arrived = inflow.get((tgt, full), 0)
            local = produced.get((tgt, full), 0)
            if abs(arrived + local - solution.throughput) > tol:
                bad.append(
                    f"throughput[b{b}] {arrived + local} != {solution.throughput}")
        return bad

    # ------------------------------------------------------- schedule
    def rate_bundle(self, solution: CollectiveSolution):
        from repro.core.schedule import RateBundle, tree_rate_bundle

        return RateBundle.merge(
            [tree_rate_bundle(solution.problem, block_trees,
                              target=solution.problem.block_target(b),
                              stream=lambda r, b=b: (b, r))
             for b, block_trees in solution.extract().items()])

    def build_schedule(self, solution: CollectiveSolution):
        return build_reduce_scatter_schedule(solution)

    # ------------------------------------------------------ simulator
    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        op = op or SeqConcat
        n = problem.n_values
        # every block reduces the same logical fragment sequence, so each
        # delivered block equals the full non-commutative reduction
        return SimSemantics(
            supplies=self._leaf_value_supplies(schedule, problem, op),
            expected=lambda item, seq: op.expected(n, seq),
            combine=op.combine)

    def ops_bound_factor(self, problem) -> int:
        return problem.n_values  # one TP-rate delivery group per block

    # ------------------------------------------------------------ CLI
    def add_arguments(self, parser) -> None:
        parser.add_argument("--participants", required=True,
                            help="comma-separated node ids in logical (⊕) "
                                 "order; participant b receives block b")
        parser.add_argument("--msg-size", type=int, default=1, dest="msg_size")
        parser.add_argument("--task-work", type=int, default=1,
                            dest="task_work")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_nodes

        return ReduceScatterProblem(platform, parse_nodes(args.participants),
                                    msg_size=args.msg_size,
                                    task_work=args.task_work)

    def report(self, solution: CollectiveSolution) -> str:
        trees = solution.extract()
        lines = []
        for b in sorted(trees):
            block_trees = trees[b]
            lines.append(f"block {b} -> {solution.problem.block_target(b)!r}: "
                         f"{len(block_trees)} reduction tree(s)")
            lines.extend(t.describe() for t in block_trees)
        return "\n".join(lines)

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        return ReduceScatterProblem(platform, hosts[:3])


REDUCE_SCATTER = register_collective(ReduceScatterSpec())
