"""Proposition 4: the fixed-period approximation converges to the optimum.

``r(T) = floor(w(T) * T_fixed)`` per tree; the throughput loss is bounded by
``card(Trees) / T_fixed``.  We sweep ``T_fixed`` on the Figure 9 instance
and on a synthetic instance with awkward (non-dividing) weights.
"""

from fractions import Fraction

from repro.collectives import solve_collective
from repro.core.fixed_period import fixed_period_approximation
from repro.core.reduce_op import ReduceProblem
from repro.core.trees import ReductionTree
from repro.platform.examples import (
    figure9_participants, figure9_platform, figure9_target,
)

PERIODS = (5, 10, 50, 100, 1000)


def test_prop4_fig9_sweep(benchmark, report):
    problem = ReduceProblem(figure9_platform(),
                            participants=figure9_participants(),
                            target=figure9_target(), msg_size=10, task_work=10)
    sol = solve_collective(problem)
    trees = sol.extract()

    def sweep():
        return [fixed_period_approximation(trees, period=p,
                                           original_throughput=sol.throughput)
                for p in PERIODS]

    results = benchmark(sweep)
    losses = [float(fp.loss) for fp in results]
    bounds = [float(fp.bound) for fp in results]
    report.row("Prop 4: T_fixed sweep", list(PERIODS), "")
    report.row("Prop 4: throughput loss per T_fixed", "<= card(Trees)/T",
               [round(l, 5) for l in losses])
    report.row("Prop 4: Proposition-4 bound per T_fixed", "",
               [round(b, 5) for b in bounds])
    for fp in results:
        assert fp.loss_within_bound()
    # weights 1/9 are exact multiples of 1/9, 1/90, ... -> zero loss there
    assert losses[-1] <= bounds[-1]


def test_prop4_awkward_weights_converge(benchmark, report):
    trees = [ReductionTree(weight=Fraction(2, 7), transfers=(), tasks=()),
             ReductionTree(weight=Fraction(3, 11), transfers=(), tasks=()),
             ReductionTree(weight=Fraction(1, 13), transfers=(), tasks=())]
    total = sum(t.weight for t in trees)

    def sweep():
        return [fixed_period_approximation(trees, period=p,
                                           original_throughput=total)
                for p in PERIODS]

    results = benchmark(sweep)
    losses = [float(fp.loss) for fp in results]
    report.row("Prop 4 (awkward 2/7+3/11+1/13): loss per T_fixed",
               "monotone -> 0", [round(l, 6) for l in losses])
    assert all(b >= a - 1e-12 for a, b in zip(losses[1:], losses))  # nonincreasing
    assert losses[-1] < 0.005
    for fp in results:
        assert fp.loss_within_bound()
