"""X5: Proposition 4 applied to scatter path flows.

Section 4.6 is stated for reduce trees; the same rounding applies verbatim
to the per-target *path* decomposition of a scatter solution, and doubles as
the bridge from float (HiGHS) LP solutions to exact periodic schedules.
"""

from repro.collectives import solve_collective
from repro.core.scatter import (
    ScatterProblem,
    build_scatter_schedule_fixed_period,
)
from repro.platform.generators import clustered
from repro.sim.executor import simulate_collective

PERIODS = (10, 100, 1000)


def test_x5_scatter_fixed_period_sweep(benchmark, report):
    g = clustered(3, 2, seed=4)
    hosts = g.compute_nodes()
    problem = ScatterProblem(g, hosts[0], hosts[1:5])
    sol = solve_collective(problem, backend="highs")

    def sweep():
        return [build_scatter_schedule_fixed_period(sol, p) for p in PERIODS]

    results = benchmark(sweep)
    losses = [float(fp.loss) for _s, fp in results]
    report.row("X5: scatter LP optimum (float solve)", "(instance-specific)",
               round(float(sol.throughput), 5))
    report.row("X5: fixed-period loss at T = 10/100/1000",
               "<= card(paths)/T, -> 0", [round(l, 5) for l in losses])
    for sched, fp in results:
        assert fp.loss_within_bound()
        assert sched.validate() == []
    sched, fp = results[-1]
    res = simulate_collective(sched, problem, n_periods=30, record_trace=False)
    assert res.errors == []
    report.row("X5: simulated ops vs rounded bound (30 periods)",
               "-> 1 as K grows",
               round(res.completed_ops() /
                     (float(fp.throughput) * float(res.horizon)), 3))
