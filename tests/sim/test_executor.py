"""Unit tests for the periodic schedule executor."""

import math

import pytest

from repro.collectives import schedule_collective, solve_collective
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.core.schedule import build_reduce_schedule
from repro.platform.examples import figure2_platform, figure2_targets
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod


@pytest.fixture(scope="module")
def fig2_run():
    problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
    sol = solve_collective(problem, backend="exact")
    sched = schedule_collective(sol)
    return problem, sol, sched, simulate_collective(sched, problem, n_periods=40)


@pytest.fixture(scope="module")
def fig6_run(fig6_solution_module=None):
    from repro.platform.examples import figure6_platform

    problem = ReduceProblem(figure6_platform(), participants=[0, 1, 2], target=0)
    sol = solve_collective(problem, backend="exact")
    sched = build_reduce_schedule(sol)
    return problem, sol, sched, simulate_collective(sched, problem, n_periods=40)


class TestScatterExecution:
    def test_no_errors(self, fig2_run):
        *_, res = fig2_run
        assert res.errors == []

    def test_one_port_invariants_hold(self, fig2_run):
        *_, res = fig2_run
        assert res.one_port_violations == []

    def test_ops_close_to_bound(self, fig2_run):
        _p, sol, _s, res = fig2_run
        bound = float(sol.throughput) * float(res.horizon)
        assert res.completed_ops() <= bound + 1e-9
        assert res.completed_ops() >= 0.9 * bound  # small warm-up loss only

    def test_deliveries_in_seq_order(self, fig2_run):
        *_, res = fig2_run
        for times in res.delivery_times.values():
            assert times == sorted(times)

    def test_warmup_then_periodic(self, fig2_run):
        _p, sol, sched, res = fig2_run
        # per-period delivery counts settle to ops_per_period; a delivery
        # at exactly kT closes period k (index k - 1)
        for item in ("P0", "P1"):
            per_period = [0] * res.periods
            for t in res.delivery_times[("msg", item)]:
                per_period[math.ceil(t / sched.period) - 1] += 1
            settled = per_period[len(per_period) // 2:]
            assert all(c == settled[0] for c in settled), (item, per_period)

    def test_measured_throughput_converges(self):
        problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(problem, backend="exact")
        sched = schedule_collective(sol)
        short = simulate_collective(sched, problem, n_periods=10)
        long_ = simulate_collective(sched, problem, n_periods=60)
        assert long_.measured_throughput() >= short.measured_throughput()
        assert abs(long_.measured_throughput() - 0.5) < 0.05

    def test_trace_contains_delivery_markers(self, fig2_run):
        *_, res = fig2_run
        assert len(res.trace.deliveries()) == sum(
            len(v) for v in res.delivery_times.values())


class TestReduceExecution:
    def test_correct_with_seqconcat(self, fig6_run):
        *_, res = fig6_run
        assert res.errors == [] and res.one_port_violations == []

    def test_correct_with_matmul(self, fig6_run):
        problem, sol, sched, _ = fig6_run
        res = simulate_collective(sched, problem, n_periods=25, op=MatMul2x2Mod)
        assert res.correct

    def test_ops_close_to_bound(self, fig6_run):
        _p, sol, _s, res = fig6_run
        bound = float(sol.throughput) * float(res.horizon)
        assert 0.85 * bound <= res.completed_ops() <= bound + 1e-9

    def test_steady_throughput_estimate(self, fig6_run):
        _p, sol, _s, res = fig6_run
        assert res.steady_window_throughput() == sol.throughput == 1

    def test_no_trace_mode(self, fig6_run):
        problem, sol, sched, _ = fig6_run
        res = simulate_collective(sched, problem, n_periods=10, record_trace=False)
        assert res.trace is None and res.errors == []

    def test_lemma1_upper_bound_never_violated(self, fig6_run):
        """opt(G, K) <= TP x K — the schedule can never beat the LP bound."""
        problem, sol, sched, _ = fig6_run
        for periods in (5, 15, 30):
            res = simulate_collective(sched, problem, n_periods=periods)
            assert res.completed_ops() <= float(sol.throughput) * float(res.horizon) + 1e-9
