"""The float -> exact bridge for scatter: rounded path flows to schedules."""

from fractions import Fraction


from repro.collectives import solve_collective
from repro.core.scatter import (
    ScatterProblem,
    build_scatter_schedule_fixed_period,
)
from repro.platform.examples import figure2_platform, figure2_targets
from repro.platform.generators import clustered
from repro.sim.executor import simulate_collective


class TestScatterFixedPeriod:
    def test_float_solution_yields_exact_schedule(self):
        problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(problem, backend="highs")
        # force a genuinely float pipeline by dropping exactness markers
        sol.exact = False
        sched, fp = build_scatter_schedule_fixed_period(sol, period=60)
        assert sched.validate() == []
        assert isinstance(sched.throughput, Fraction)
        assert fp.loss_within_bound()

    def test_throughput_loss_bounded(self):
        problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(problem, backend="highs")
        for period in (10, 100, 1000):
            _sched, fp = build_scatter_schedule_fixed_period(sol, period)
            assert float(fp.loss) <= float(fp.bound) + 1e-12

    def test_simulation_achieves_rounded_rate(self):
        problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(problem, backend="exact")
        sched, fp = build_scatter_schedule_fixed_period(sol, period=12)
        res = simulate_collective(sched, problem, n_periods=40)
        assert res.correct
        bound = float(fp.throughput) * float(res.horizon)
        assert res.completed_ops() >= 0.85 * bound
        assert res.completed_ops() <= bound + 1e-9

    def test_every_target_served_equally(self):
        g = clustered(3, 2, seed=4)
        hosts = g.compute_nodes()
        problem = ScatterProblem(g, hosts[0], hosts[1:5])
        sol = solve_collective(problem, backend="highs")
        sched, fp = build_scatter_schedule_fixed_period(sol, period=300)
        assert sched.validate() == []
        # delivered counts per target must be identical (common throughput)
        delivered = {}
        for (k, path, w) in fp.items:
            delivered[k] = delivered.get(k, 0) + w
        assert len(set(delivered.values())) == 1

    def test_tiny_period_drops_paths(self):
        problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(problem, backend="exact")
        # period 1 floors 1/2 rates to 0 -> empty schedule is legitimate
        _sched, fp = build_scatter_schedule_fixed_period(sol, period=1)
        assert fp.throughput == 0
