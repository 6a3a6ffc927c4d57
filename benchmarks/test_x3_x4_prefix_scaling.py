"""X3/X4: the parallel-prefix extension and LP solver scaling.

X3 — Section 6 names "general parallel prefix computations" as the natural
extension; we solve the prefix LP on the paper's triangle and report how
much throughput the extra deliveries cost versus a plain reduce.

X4 — solver scaling: exact rational simplex vs HiGHS on growing reduce
LPs (the reason the library auto-dispatches by size).
"""

import time

from repro.collectives import solve_collective
from repro.core.reduce_op import ReduceProblem, build_reduce_lp
from repro.lp import ExactSimplexSolver, HighsSolver, dispatch
from repro.platform.examples import figure6_platform
from repro.platform.generators import complete


def test_x3_prefix_vs_reduce(benchmark, report):
    problem = ReduceProblem(figure6_platform(), participants=[0, 1, 2],
                            target=0)
    reduce_tp = solve_collective(problem, backend="exact").throughput
    prefix = benchmark(lambda: solve_collective(problem, collective="prefix",
                                                backend="exact"))
    report.row("X3: plain reduce TP (Fig 6)", 1, reduce_tp)
    report.row("X3: parallel-prefix TP (deliver v[0,i] to every rank)",
               "<= reduce TP", prefix.throughput)
    report.row("X3: prefix/reduce ratio", "(not reported)",
               f"{float(prefix.throughput) / float(reduce_tp):.3f}")
    assert 0 < prefix.throughput <= reduce_tp


def test_x4_lp_scaling_exact_vs_highs(benchmark, report):
    """Exact-solver scaling on the growing ``SSR(complete-n)`` family.

    Also exercises the dispatch warm start: the re-solve of each size
    passes the cold solve's optimal basis as ``warm_basis``, crash-pivots
    it back in and skips Phase 1 entirely (the memo cache is bypassed to
    measure the simplex, not the cache).
    """
    dispatch.clear_cache()
    rows = []
    for n in (3, 4, 5, 6):
        g = complete(n, cost=1)
        nodes = g.nodes()
        problem = ReduceProblem(g, nodes, nodes[0])
        lp = build_reduce_lp(problem)
        t0 = time.perf_counter()
        cold = dispatch.solve(lp, backend="exact", cache=False)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = dispatch.solve(build_reduce_lp(problem), backend="exact",
                              cache=False, warm_basis=cold.basis_labels)
        t_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        approx = HighsSolver().solve(lp)
        t_highs = time.perf_counter() - t0
        assert warm.objective == cold.objective
        assert abs(float(cold.objective) - float(approx.objective)) < 1e-6
        rows.append((n, lp.num_vars(), round(t_cold * 1000, 1),
                     round(t_warm * 1000, 1), round(t_highs * 1000, 1)))

    def solve_largest_exact():
        g = complete(5, cost=1)
        nodes = g.nodes()
        lp = build_reduce_lp(ReduceProblem(g, nodes, nodes[0]))
        return ExactSimplexSolver().solve(lp)

    benchmark(solve_largest_exact)
    report.row("X4: (n, vars, exact-cold ms, exact-warm ms, highs ms)",
               "exact blows up past ~200 vars (pre-PR1)",
               "; ".join(str(r) for r in rows))
    report.line("X4: the sparse fraction-free simplex keeps the whole "
                "family exact (dispatch limit "
                f"{dispatch.EXACT_VAR_LIMIT} vars); re-solves warm-start "
                "from the cold solve's basis and skip Phase 1, HiGHS "
                "remains the float fallback beyond the limit.")
