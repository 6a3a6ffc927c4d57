"""Propositions 1-3: asymptotic optimality of the steady-state schedules.

Lemma 1 bounds any schedule by ``opt(G, K) <= TP(G) * K``; the periodic
construction achieves ``steady(G, K) / opt(G, K) -> 1``.  We replay each
schedule over growing horizons and report the ratio series — it must be
nondecreasing toward 1 and never exceed the bound.
"""

from repro.collectives import schedule_collective, solve_collective
from repro.core.gossip import GossipProblem
from repro.core.optimality import is_monotone_nondecreasing, upper_bound_ops
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.core.schedule import build_reduce_schedule
from repro.platform.examples import (
    figure2_platform, figure2_targets, figure6_platform,
)
from repro.platform.generators import complete
from repro.sim.executor import simulate_collective

HORIZON_PERIODS = (5, 10, 20, 40, 80)


def _ratio_series(sched, problem, simulate, throughput):
    ratios = []
    for periods in HORIZON_PERIODS:
        res = simulate(sched, problem, n_periods=periods, record_trace=False)
        bound = upper_bound_ops(throughput, res.horizon)
        assert res.completed_ops() <= bound + 1e-9, "Lemma 1 violated"
        ratios.append(res.completed_ops() / bound if bound else 0.0)
    return ratios


def test_prop1_scatter_asymptotic(benchmark, report):
    problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
    sol = solve_collective(problem, backend="exact")
    sched = schedule_collective(sol)
    ratios = benchmark(lambda: _ratio_series(sched, problem, simulate_collective,
                                             sol.throughput))
    report.row("Prop 1: steady/opt ratio over K = 5..80 periods", "-> 1",
               [round(r, 3) for r in ratios])
    assert is_monotone_nondecreasing(ratios, slack=1e-6)
    assert ratios[-1] > 0.95


def test_prop2_gossip_asymptotic(benchmark, report):
    g = complete(3, cost=1)
    nodes = g.nodes()
    problem = GossipProblem(g, nodes, nodes)
    sol = solve_collective(problem, backend="exact")
    sched = schedule_collective(sol)
    ratios = benchmark(lambda: _ratio_series(sched, problem, simulate_collective,
                                             sol.throughput))
    report.row("Prop 2: gossip TP on K3 (all-to-all)", "(not reported)",
               sol.throughput)
    report.row("Prop 2: steady/opt ratio over K = 5..80 periods", "-> 1",
               [round(r, 3) for r in ratios])
    assert is_monotone_nondecreasing(ratios, slack=1e-6)
    assert ratios[-1] > 0.9


def test_prop3_reduce_asymptotic(benchmark, report):
    problem = ReduceProblem(figure6_platform(), participants=[0, 1, 2],
                            target=0)
    sol = solve_collective(problem, backend="exact")
    sched = build_reduce_schedule(sol)
    ratios = benchmark(lambda: _ratio_series(sched, problem, simulate_collective,
                                             sol.throughput))
    report.row("Prop 3: steady/opt ratio over K = 5..80 periods", "-> 1",
               [round(r, 3) for r in ratios])
    assert is_monotone_nondecreasing(ratios, slack=1e-6)
    assert ratios[-1] > 0.9
