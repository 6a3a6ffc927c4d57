"""Figures 6-7: the 3-processor Series-of-Reduces example.

- Figure 6: triangle platform (unit links, node 0 twice as fast), target
  node 0; the paper's LP gives period T = 3 with 3 reductions per period,
  i.e. TP = 1 after pipelining (Figure 6e).
- Figure 7: the solution decomposes into reduction trees; the paper shows
  two trees with throughputs 1/3 and 2/3 (summing to TP = 1).
"""

from fractions import Fraction

from repro.collectives import solve_collective
from repro.core import intervals as iv
from repro.core.reduce_op import ReduceProblem
from repro.core.schedule import build_reduce_schedule
from repro.core.trees import extract_trees, trees_weight_sum
from repro.platform.examples import figure6_platform
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod


def _problem():
    return ReduceProblem(figure6_platform(), participants=[0, 1, 2], target=0)


def test_fig6_lp_throughput(benchmark, report):
    problem = _problem()
    sol = benchmark(lambda: solve_collective(problem, backend="exact", canonical=True))
    report.row("Fig 6: steady-state reduce throughput TP", 1, sol.throughput)
    report.row("Fig 6: reductions per 3 time-units", 3, sol.throughput * 3)
    assert sol.throughput == 1
    assert sol.verify() == []


def test_fig6_pipelined_schedule(benchmark, report):
    problem = _problem()
    sol = solve_collective(problem, backend="exact", canonical=True)
    sched = build_reduce_schedule(sol)
    res = benchmark(lambda: simulate_collective(sched, problem, n_periods=60,
                                                record_trace=False))
    bound = float(sol.throughput) * float(res.horizon)
    report.row("Fig 6e: simulated ops vs TP*K bound",
               f"{bound:.0f}", res.completed_ops(),
               "difference is the pipeline warm-up only")
    report.row("Fig 6e: non-commutative results correct", "yes",
               "yes" if res.errors == [] else res.errors[:1])
    assert res.errors == []
    assert res.completed_ops() >= 0.9 * bound


def test_fig7_reduction_trees(benchmark, report):
    problem = _problem()
    sol = solve_collective(problem, backend="exact", canonical=True)
    trees = benchmark(lambda: extract_trees(sol))
    weights = sorted(Fraction(t.weight) for t in trees)
    report.row("Fig 7: tree throughputs sum to TP", 1, trees_weight_sum(trees))
    report.row("Fig 7: tree weights", "[1/3, 2/3]",
               [str(w) for w in weights],
               "the optimum is degenerate; any convex mix achieving TP=1 is valid")
    for tree in trees:
        assert iv.validate_tree_intervals(tree.leaf_intervals(), 3)
        assert len(tree.tasks) == 2  # n-1 merges for n=3
    assert trees_weight_sum(trees) == 1


def test_fig6_matmul_validation(benchmark, report):
    problem = _problem()
    sol = solve_collective(problem, backend="exact", canonical=True)
    sched = build_reduce_schedule(sol)
    res = benchmark(lambda: simulate_collective(sched, problem, n_periods=40,
                                                op=MatMul2x2Mod,
                                                record_trace=False))
    report.row("Fig 6: matrix-product operator delivers same count",
               "same as SeqConcat", res.completed_ops())
    assert res.errors == []
