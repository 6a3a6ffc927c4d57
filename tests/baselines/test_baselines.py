"""Unit tests for baseline algorithms — and the paper's qualitative claims:
the steady-state LP throughput dominates every baseline."""

from fractions import Fraction

import pytest

from repro.baselines.reduce_baselines import (
    best_single_tree_throughput, single_tree_resource_load,
)
from repro.baselines.scatter_baselines import spt_scatter_throughput
from repro.collectives import (
    resolve_collective, schedule_collective, solve_collective,
)
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.platform.examples import (
    figure6_platform, figure9_participants, figure9_platform, figure9_target,
)
from repro.platform.generators import random_connected
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod, SeqConcat


def _replay(problem, name, record_trace=True):
    """Solve a baseline spec and replay its schedule past pipeline fill on
    the reference executor (which records and validates a one-port trace)."""
    sol = solve_collective(problem, collective=name)
    plan = resolve_collective(problem, name).plan(problem)
    res = simulate_collective(schedule_collective(sol), problem,
                              n_periods=plan.max_hops + 5, collective=name,
                              record_trace=record_trace, engine="reference")
    return sol, res


class TestDirectScatter:
    def test_runs_and_respects_one_port(self, fig2_problem):
        sol, res = _replay(fig2_problem, "direct-scatter")
        assert sol.verify() == []
        assert res.correct  # payload checks + the traced one-port check
        assert res.steady_window_throughput(periods=3) == sol.throughput

    def test_completion_times_monotone(self, fig2_problem):
        _sol, res = _replay(fig2_problem, "direct-scatter", record_trace=False)
        for times in res.delivery_times.values():
            assert times == sorted(times)

    def test_lp_dominates_direct(self, fig2_problem, fig2_solution):
        direct = solve_collective(fig2_problem, collective="direct-scatter")
        assert direct.throughput == Fraction(1, 2)
        assert fig2_solution.throughput >= direct.throughput

    def test_random_platform(self):
        g = random_connected(7, extra_edges=3, seed=3)
        nodes = g.nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:4])
        sol, res = _replay(problem, "direct-scatter")
        assert sol.verify() == [] and sol.throughput > 0
        assert res.correct
        assert solve_collective(problem, backend="exact").throughput \
            >= sol.throughput


class TestSptScatter:
    def test_single_route_never_beats_lp(self, fig2_problem, fig2_solution):
        spt_tp = spt_scatter_throughput(fig2_problem)
        assert spt_tp <= fig2_solution.throughput

    def test_fig2_single_route_equals_half(self, fig2_problem):
        # In fig2, the SPT routes m0 via Pa and m1 via Pb; the source port
        # is the binding resource either way, so TP stays 1/2 — multi-route
        # helps only when a relay/edge binds first.
        assert spt_scatter_throughput(fig2_problem) == Fraction(1, 2)

    def test_multi_route_strictly_helps_when_relays_bind(self):
        # Two targets behind relay `a`; relay `b` offers a slow detour to
        # t2.  The SPT routes everything through `a` (its out-port binds at
        # TP = 1/2); the LP offloads part of t2's traffic to `b` and reaches
        # TP = 3/5.
        from repro.platform.graph import PlatformGraph

        g = PlatformGraph()
        for n in ("s", "a", "b", "t1", "t2"):
            g.add_node(n, 1)
        g.add_edge("s", "a", Fraction(1, 4))
        g.add_edge("s", "b", Fraction(1, 4))
        g.add_edge("a", "t1", 1)
        g.add_edge("a", "t2", 1)
        g.add_edge("b", "t2", 3)
        problem = ScatterProblem(g, "s", ["t1", "t2"])
        full = solve_collective(problem, backend="exact").throughput
        spt = spt_scatter_throughput(problem)
        assert full == Fraction(3, 5)
        assert spt == Fraction(1, 2)
        assert full > spt


class TestFlatTreeReduce:
    def test_correct_results(self, fig6_problem):
        sol, res = _replay(fig6_problem, "flat-tree-reduce")
        assert sol.verify() == []
        assert res.correct
        assert res.steady_window_throughput(periods=3) == sol.throughput

    def test_lp_dominates_flat(self, fig6_problem, fig6_solution):
        flat = solve_collective(fig6_problem, collective="flat-tree-reduce")
        assert flat.throughput == Fraction(1, 2)
        assert fig6_solution.throughput >= flat.throughput


class TestBinaryTreeReduce:
    def test_correct_results(self, fig6_problem):
        sol, res = _replay(fig6_problem, "binary-tree-reduce")
        assert sol.verify() == []
        assert res.correct
        assert res.steady_window_throughput(periods=3) == sol.throughput

    def test_lp_dominates_binary(self, fig6_problem, fig6_solution):
        binary = solve_collective(fig6_problem,
                                  collective="binary-tree-reduce")
        assert binary.throughput == Fraction(1, 2)
        assert fig6_solution.throughput >= binary.throughput

    def test_handles_target_not_root_of_tree(self):
        # v_0 lives on node 1, so the tree root is node 1 and the result
        # must be forwarded to the target as one last transfer
        problem = ReduceProblem(figure6_platform(), participants=[1, 2, 0],
                                target=0)
        sol = solve_collective(problem, collective="binary-tree-reduce")
        plan = resolve_collective(problem, "binary-tree-reduce").plan(problem)
        last = plan.transfers[-1]
        assert (last.item, last.src, last.dst) == (("v", 0, 2), 1, 0)
        assert sol.verify() == [] and sol.throughput == Fraction(1, 2)


def _fold(problem, plan, op, stamp):
    """Run one operation of a reduce plan on real values: a transfer (item
    ``("v", k, m)``) moves partial ``v[k,m]`` from node to node, a merge
    combines two adjacent partials held on its node.  Returns the value
    the target ends up holding."""
    held = {(problem.owner(j), (j, j)): op.leaf(j, stamp)
            for j in range(problem.n_values)}
    transfers = list(plan.transfers)
    tasks = [key for key, count in plan.task_counts.items()
             for _ in range(count)]
    while transfers or tasks:
        pending = len(transfers) + len(tasks)
        for tr in list(transfers):
            if (tr.src, tr.item[1:]) in held:
                held[(tr.dst, tr.item[1:])] = held.pop((tr.src, tr.item[1:]))
                transfers.remove(tr)
        for node, (k, l, m) in list(tasks):
            left, right = (node, (k, l)), (node, (l + 1, m))
            if left in held and right in held:
                held[(node, (k, m))] = op.combine(held.pop(left),
                                                  held.pop(right))
                tasks.remove((node, (k, l, m)))
        assert len(transfers) + len(tasks) < pending, "plan stalls"
    full = (problem.target, (0, problem.n_values - 1))
    assert list(held) == [full]  # every partial was consumed
    return held[full]


FOLD_CASES = {
    "fig6": lambda: ReduceProblem(figure6_platform(), [0, 1, 2], 0),
    "fig6-rotated": lambda: ReduceProblem(figure6_platform(), [1, 2, 0], 0),
    "fig9": lambda: ReduceProblem(figure9_platform(), figure9_participants(),
                                  figure9_target(), msg_size=10,
                                  task_work=10),
}


@pytest.mark.parametrize("op", [SeqConcat, MatMul2x2Mod],
                         ids=["seqconcat", "matmul"])
@pytest.mark.parametrize("name", ["flat-tree-reduce", "binary-tree-reduce"])
@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_plan_merges_fold_in_order(case, name, op):
    """The plan's merges, folded per operation with a non-commutative
    operator, reproduce the reference reduction at the target."""
    problem = FOLD_CASES[case]()
    plan = resolve_collective(problem, name).plan(problem)
    for stamp in range(3):
        assert _fold(problem, plan, op, stamp) \
            == op.expected(problem.n_values, stamp)


class TestSingleTree:
    def test_resource_load_accounts_everything(self, fig6_solution):
        tree = fig6_solution.extract()[0]
        load = single_tree_resource_load(tree, fig6_solution.problem)
        assert sum(1 for (kind, _n) in load if kind == "cpu") >= 1
        assert all(v > 0 for v in load.values())

    def test_single_tree_never_beats_lp(self, fig6_solution):
        rate, tree = best_single_tree_throughput(
            fig6_solution.extract(), fig6_solution.problem)
        assert tree is not None
        assert rate <= fig6_solution.throughput

    #: three optimal vertices: the tableau's Devex one, the revised
    #: engine's and the canonical (lex-min) one
    VERTICES = {"tableau": {"backend": "tableau"},
                "revised": {"backend": "revised"},
                "canonical": {"backend": "tableau", "canonical": True}}

    @pytest.mark.parametrize("vertex", list(VERTICES))
    def test_lp_dominates_extracted_trees_on_fig9(self, fig9_solution,
                                                  vertex):
        """Figures 11-12, restated for every optimal vertex: the LP's TP
        is at least the best extracted single tree's.  (Mixing is not
        strictly needed on fig9: the tableau's vertex mixes 2/27 + 4/27,
        but the revised and canonical vertices are one 2/9 tree.)"""
        sol = solve_collective(fig9_solution.problem, cache=False,
                               **self.VERTICES[vertex])
        rate, tree = best_single_tree_throughput(sol.extract(), sol.problem)
        assert sol.throughput == Fraction(2, 9)
        assert tree is not None and rate <= sol.throughput

    @pytest.mark.parametrize("vertex", list(VERTICES))
    def test_multi_tree_strictly_helps_on_fig6_task_work2(self, vertex):
        """fig6 with ``task_work=2``: node 0 merges in 1, nodes 1 and 2 in
        2.  A single tree of three values runs two merges, so its busiest
        CPU carries at least ``min(2 * 1, 2) = 2`` per operation and no
        single tree beats 1/2, while the LP reaches 1: every optimal
        vertex mixes two or more trees, each strictly worse alone."""
        problem = ReduceProblem(figure6_platform(), [0, 1, 2], 0,
                                task_work=2)
        times = sorted(problem.task_time(n, (0, 0, 1))
                       for n in problem.platform.compute_nodes())
        single_bound = 1 / min(2 * times[0], times[1])
        sol = solve_collective(problem, cache=False, **self.VERTICES[vertex])
        assert single_bound == Fraction(1, 2) and sol.throughput == 1
        trees = sol.extract()
        assert len(trees) >= 2
        rate, _ = best_single_tree_throughput(trees, problem)
        assert rate <= single_bound < sol.throughput

    def test_empty_tree_list(self, fig6_solution):
        rate, tree = best_single_tree_throughput([], fig6_solution.problem)
        assert rate == 0 and tree is None
