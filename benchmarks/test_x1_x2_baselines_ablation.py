"""X1/X2: steady-state LP vs classical baselines, and the two ablations the
paper's examples motivate.

X1 — who wins: the LP optimum against the registered classical baseline
specs — direct (store-and-forward) scatter and flat/binary-tree reduce — on
the paper's platforms, all as exact rationals.  The paper's thesis predicts
the LP wins or ties everywhere.

X2 — why it wins: (a) multi-route vs single shortest-path-tree routing for
scatter; (b) multi-tree mixing vs the best single reduction tree for
reduce (Figures 11-12's two trees).
"""

from fractions import Fraction

from repro.baselines.reduce_baselines import best_single_tree_throughput
from repro.baselines.scatter_baselines import spt_scatter_throughput
from repro.collectives import schedule_collective, solve_collective
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.core.schedule import build_reduce_schedule
from repro.platform.examples import (
    figure2_platform, figure2_targets, figure6_platform,
    figure9_participants, figure9_platform, figure9_target,
)
from repro.platform.graph import PlatformGraph
from repro.sim.executor import simulate_collective


def test_x1_scatter_lp_vs_direct(benchmark, report):
    problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
    sol = solve_collective(problem, backend="exact")
    sched = schedule_collective(sol)
    lp_run = simulate_collective(sched, problem, n_periods=60, record_trace=False)
    direct = benchmark(lambda: solve_collective(problem,
                                                collective="direct-scatter"))
    report.row("X1 scatter (Fig 2): LP steady throughput", "1/2 (optimal)",
               round(float(lp_run.measured_throughput()), 4))
    report.row("X1 scatter (Fig 2): direct store-and-forward", "<= 1/2",
               direct.throughput)
    assert direct.throughput == Fraction(1, 2)
    assert sol.throughput >= direct.throughput


def test_x1_reduce_lp_vs_trees(benchmark, report):
    problem = ReduceProblem(figure6_platform(), participants=[0, 1, 2],
                            target=0)
    sol = solve_collective(problem, backend="exact")
    sched = build_reduce_schedule(sol)
    lp_run = simulate_collective(sched, problem, n_periods=60, record_trace=False)

    def run_baselines():
        return (solve_collective(problem, collective="flat-tree-reduce"),
                solve_collective(problem, collective="binary-tree-reduce"))

    flat, binary = benchmark(run_baselines)
    report.row("X1 reduce (Fig 6): LP steady throughput", "1 (optimal)",
               round(float(lp_run.measured_throughput()), 4))
    report.row("X1 reduce (Fig 6): flat tree", "< 1", flat.throughput)
    report.row("X1 reduce (Fig 6): binary tree", "<= 1", binary.throughput)
    assert flat.verify() == [] and binary.verify() == []
    assert flat.throughput == Fraction(1, 2)
    assert binary.throughput == Fraction(1, 2)
    assert sol.throughput >= max(flat.throughput, binary.throughput)


def test_x2_multiroute_ablation(benchmark, report):
    # platform where single-route provably loses (relay out-port binds)
    g = PlatformGraph("multiroute")
    for n in ("s", "a", "b", "t1", "t2"):
        g.add_node(n, 1)
    g.add_edge("s", "a", Fraction(1, 4))
    g.add_edge("s", "b", Fraction(1, 4))
    g.add_edge("a", "t1", 1)
    g.add_edge("a", "t2", 1)
    g.add_edge("b", "t2", 3)
    problem = ScatterProblem(g, "s", ["t1", "t2"])
    full = solve_collective(problem, backend="exact").throughput
    spt = benchmark(lambda: spt_scatter_throughput(problem))
    report.row("X2a: multi-route LP throughput", "3/5", full)
    report.row("X2a: single shortest-path-tree throughput", "1/2", spt)
    report.row("X2a: multi-route speedup", "1.2x",
               f"{float(full / spt):.2f}x")
    assert full == Fraction(3, 5) and spt == Fraction(1, 2)


def test_x2_multitree_ablation(benchmark, report):
    problem = ReduceProblem(figure9_platform(),
                            participants=figure9_participants(),
                            target=figure9_target(), msg_size=10, task_work=10)
    sol = solve_collective(problem)
    trees = sol.extract()
    single, _tree = benchmark(lambda: best_single_tree_throughput(trees, problem))
    report.row("X2b (Fig 9): optimal multi-tree TP", "2/9", sol.throughput)
    report.row("X2b (Fig 9): best single extracted tree", "< 2/9", single)
    report.row("X2b (Fig 9): multi-tree speedup", "> 1x",
               f"{float(Fraction(sol.throughput) / Fraction(single)):.3f}x")
    assert single < sol.throughput
