"""Mid-run fault injection and the drain-and-switch hand-off (PR 6).

The headline loop — break a link mid-run, detect it, replan warm, swap
the re-solved schedule in — must sustain the *new* LP optimum exactly
and account for every item (nothing lost, nothing double-delivered).
Also pins the executor's explicit retry queue (the PR 6 satellite fix:
a drawn-then-returned credit instance goes through a deterministic
``park``/``take`` path, not back into the supply gate).
"""

from fractions import Fraction

import pytest

from repro.collectives import schedule_collective, solve_collective
from repro.platform.examples import (figure6_platform, figure9_participants,
                                     figure9_platform, figure9_target)
from repro.platform.perturb import LinkDegradation, LinkFailure, NodeFailure
from repro.sim.executor import Instance, ScheduleExecutor
from repro.sim.faults import (Fault, FaultPlan, run_with_faults,
                              steady_window_throughput)


def _fig9_scatter_solution():
    g = figure9_platform()
    src = figure9_target()
    targets = [p for p in figure9_participants() if p != src]
    from repro.core.scatter import ScatterProblem

    return solve_collective(ScatterProblem(g, src, targets), backend="exact",
                            cache=False)


class TestFaultPlan:
    def test_from_spec_parses_and_sorts(self):
        plan = FaultPlan.from_spec("6:fail:2:8, 3:slow:0:1:2")
        assert [f.period for f in plan.faults] == [3, 6]
        assert plan.at(6) == [LinkFailure(2, 8)]
        assert plan.at(5) == []
        assert "fail link" in plan.describe()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("x:fail:0:1")
        with pytest.raises(ValueError):
            FaultPlan([Fault(-1, LinkFailure(0, 1))])


class TestRetryQueue:
    """Satellite regression: a drawn-then-returned instance must come back
    deterministically through the explicit retry queue."""

    def _executor(self):
        sol = _fig9_scatter_solution()
        sched = schedule_collective(sol)
        sem = sol.spec.simulation(sched, sol.problem)
        return ScheduleExecutor(sched, sem.supplies, combine=sem.combine,
                                expected=sem.expected)

    def test_park_then_take_returns_same_instance_first(self):
        ex = self._executor()
        key = next(iter(ex.supplies))
        node, item = key
        a = ex.take(node, item)
        b = ex.take(node, item)
        assert a is not None and b is not None and a.seq != b.seq
        ex.park(node, item, a)
        ex.park(node, item, b)
        # FIFO out of retry, ahead of any fresh supply draw
        assert ex.take(node, item) is a
        assert ex.take(node, item) is b
        assert ex.take(node, item).seq == 2

    def test_peek_sees_parked_instance(self):
        ex = self._executor()
        (node, item) = next(iter(ex.supplies))
        inst = Instance(item=item, seq=99, value=None)
        ex.park(node, item, inst)
        assert ex.peek_count(node, item)
        assert ex.take(node, item) is inst

    def test_failed_link_parks_in_flight_instance(self):
        ex = self._executor()
        tr = ex.schedule.slots[0].transfers[0]
        inst = Instance(item=tr.item, seq=0, value=None)
        # stage a partial shipment on the wire, then cut the link under it
        ex.pipe[(tr.src, tr.dst, tr.item)] = (inst, 1)
        ex.fail_link(tr.src, tr.dst)
        assert (tr.src, tr.dst, tr.item) not in ex.pipe
        assert ex.retry[(tr.src, tr.item)][-1] is inst


class TestFaultedScatter:
    @pytest.fixture(scope="class")
    def run(self):
        sol = _fig9_scatter_solution()
        # (2, 8) is survivable: every target stays reachable without it
        plan = FaultPlan.from_spec("6:fail:2:8")
        return sol, run_with_faults(sol, plan, 40, compare=True)

    def test_replan_triggered_once(self, run):
        _, fr = run
        assert fr.replanned and len(fr.reports) == 1
        assert fr.switch_periods == [7]     # detected one period after fire

    def test_no_items_lost_or_duplicated(self, run):
        _, fr = run
        assert fr.result.errors == []
        assert fr.result.one_port_violations == []
        assert fr.result.abandoned == []

    def test_switch_carries_state(self, run):
        _, fr = run
        assert [sw["mode"] for sw in fr.result.switches] == ["carry"]

    def test_steady_tp_equals_resolved_optimum(self, run):
        _, fr = run
        report = fr.reports[0]
        assert steady_window_throughput(fr) == report.throughput
        assert report.throughput == report.cold_solution.throughput

    def test_base_throughput_recorded(self, run):
        sol, fr = run
        assert fr.reports[0].base_throughput == sol.throughput

    def test_without_replan_schedule_stays_broken(self):
        sol = _fig9_scatter_solution()
        plan = FaultPlan.from_spec("6:fail:2:8")
        fr = run_with_faults(sol, plan, 20, replan=False)
        assert not fr.replanned
        assert steady_window_throughput(fr) < sol.throughput


class TestFaultedComposite:
    def test_pipelined_allreduce_restart_switch(self):
        from repro.core.allreduce import AllReduceProblem

        problem = AllReduceProblem(figure6_platform(), [0, 1, 2], task_work=2)
        sol = solve_collective(problem, collective="all-reduce",
                               backend="exact", mode="pipelined", cache=False)
        plan = FaultPlan.from_spec("5:slow:1:2:2")
        fr = run_with_faults(sol, plan, 60, compare=True)
        assert fr.replanned
        # computing/chained schedules cannot graft state: restart hand-off,
        # written-off instances show up in the abandonment ledger
        assert [sw["mode"] for sw in fr.result.switches] == ["restart"]
        assert fr.result.errors == []
        report = fr.reports[0]
        assert report.throughput == report.cold_solution.throughput
        # composite schedules count per-stream deliveries (delivery_mode
        # "sum"): the measured rate is TP x the spec's stream-group factor
        factor = sol.spec.ops_bound_factor(report.problem)
        assert steady_window_throughput(fr) == report.throughput * factor

    def test_node_failure_degrades_and_resumes(self):
        from repro.core.scatter import ScatterProblem
        from repro.platform.generators import complete

        g = complete(4)
        nodes = g.nodes()
        sol = solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                               backend="exact", cache=False)
        plan = FaultPlan([Fault(4, NodeFailure(nodes[-1]))])
        fr = run_with_faults(sol, plan, 40)
        assert fr.replanned
        report = fr.reports[0]
        assert tuple(report.sacrificed) == (nodes[-1],)
        assert nodes[-1] not in report.problem.targets
        assert fr.result.errors == []
        assert steady_window_throughput(fr) == report.throughput

    def test_soft_event_detected_immediately(self):
        sol = _fig9_scatter_solution()
        plan = FaultPlan([Fault(6, LinkDegradation(2, 8, factor=2))])
        fr = run_with_faults(sol, plan, 24)
        # no physical breakage: the replan still fires, in the same period
        assert fr.switch_periods == [6]
        assert fr.result.errors == []


class TestFaultedReduction:
    """A faulted reduce stays on the reference executor even with
    ``record_trace=False`` (the CLI ``--sim-engine auto`` fault path): a
    dead resource abandons one input's instances and mis-pairs stamps,
    which only per-instance replay sees.  The ledgers are the ones the
    reference executor wrote before the compiled engine replayed
    reductions."""

    LEDGERS = {
        "4:fail:1:0": [
            "('val', (2, 2), 0) seq 8 written off at 1 (schedule restart)",
            "('val', (2, 2), 0) seq 9 written off at 1 (schedule restart)",
            "('val', (1, 2), 0) seq 4 written off at 1 (schedule restart)",
            "('val', (1, 2), 0) seq 5 written off at 1 (schedule restart)",
            "('val', (1, 2), 0) seq 6 written off at 1 (schedule restart)",
            "('val', (1, 2), 0) seq 7 written off at 1 (schedule restart)"],
        "4:down:2": [
            "('val', (1, 2), 0) seq 6 written off at 1 (schedule restart)",
            "('val', (1, 2), 0) seq 7 written off at 1 (schedule restart)",
            "('val', (1, 2), 0) seq 4 written off at 0 (schedule restart)",
            "('val', (1, 2), 0) seq 5 written off at 0 (schedule restart)"],
    }

    @pytest.mark.parametrize("spec", list(LEDGERS))
    def test_faulted_reduce_runs_on_reference(self, spec):
        from repro.core.reduce_op import ReduceProblem

        sol = solve_collective(ReduceProblem(figure6_platform(), [0, 1, 2], 0),
                               backend="exact", cache=False)
        fr = run_with_faults(sol, FaultPlan.from_spec(spec), 12,
                             record_trace=False)
        assert fr.result.engine == "reference"
        assert fr.replanned and fr.result.errors == []
        assert [sw["mode"] for sw in fr.result.switches] == ["restart"]
        assert fr.result.abandoned == self.LEDGERS[spec]


class TestSteadyWindow:
    def test_exact_fraction_and_window_semantics(self):
        sol = _fig9_scatter_solution()
        fr = run_with_faults(sol, FaultPlan([]), 20)
        tp = steady_window_throughput(fr, periods=8)
        assert isinstance(tp, Fraction)
        assert tp == sol.throughput

    def test_rejects_empty_window(self):
        sol = _fig9_scatter_solution()
        fr = run_with_faults(sol, FaultPlan([]), 10)
        with pytest.raises(ValueError):
            steady_window_throughput(fr, periods=0)
