"""Engine-selection rule and exact-Fraction throughput metrics (PR 9)."""

from fractions import Fraction as F

import pytest

from repro.core.schedule import ComputeTask, PeriodicSchedule, Slot, Transfer
from repro.sim.engine import SIM_ENGINES, resolve_sim_engine
from repro.sim.executor import ScheduleExecutor, carry_compatible


def _pure_comm():
    return PeriodicSchedule(
        name="relay", period=1, throughput=1,
        slots=[Slot(duration=1, transfers=[Transfer("A", "B", "x", 1, 1)])],
        per_period={"x": 1}, deliveries={"x": "B"})


def _with_compute():
    s = _pure_comm()
    s.compute = {"B": [ComputeTask(node="B", output="r", inputs=("x",),
                                   count=1, unit_time=1)]}
    return s


class TestResolveSimEngine:
    def test_auto_picks_compiled_for_pure_comm(self):
        pytest.importorskip("numpy")
        assert resolve_sim_engine("auto", _pure_comm()) == "compiled"

    def test_auto_falls_back_on_combine(self):
        assert resolve_sim_engine(
            "auto", _pure_comm(), combine=lambda a, b: a) == "reference"

    def test_auto_falls_back_on_compute(self):
        assert resolve_sim_engine("auto", _with_compute()) == "reference"

    def test_auto_falls_back_on_trace(self):
        assert resolve_sim_engine(
            "auto", _pure_comm(), record_trace=True) == "reference"

    def test_compiled_raises_with_reason(self):
        with pytest.raises(ValueError, match="combine"):
            resolve_sim_engine("compiled", _pure_comm(),
                               combine=lambda a, b: a)
        with pytest.raises(ValueError, match="compute"):
            resolve_sim_engine("compiled", _with_compute())
        with pytest.raises(ValueError, match="trace"):
            resolve_sim_engine("compiled", _pure_comm(), record_trace=True)

    def test_reference_always_wins(self):
        for sched in (_pure_comm(), _with_compute()):
            assert resolve_sim_engine("reference", sched) == "reference"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            resolve_sim_engine("turbo", _pure_comm())
        assert SIM_ENGINES == ("auto", "compiled", "reference")

    def test_float_times_disqualify_compiled(self):
        pytest.importorskip("numpy")
        s = _pure_comm()
        s.slots[0].transfers[0] = Transfer("A", "B", "x", 1, 0.5)
        s.slots[0].duration = 0.5
        assert resolve_sim_engine("auto", s) == "reference"

    def test_micro_unit_overflow_falls_back(self):
        # coprime unit-count denominators 2**31 - 1 and 2**31 push the
        # micro-unit scale past the int64 guard: the compiled engine
        # declines with its reason instead of overflowing
        pytest.importorskip("numpy")
        s = _pure_comm()
        s.slots[0].transfers = [
            Transfer("A", "B", "x", F(1, 2**31 - 1), F(1, 2**31 - 1)),
            Transfer("A", "B", "x", F(1, 2**31), F(1, 2**31))]
        assert resolve_sim_engine("auto", s) == "reference"
        with pytest.raises(ValueError,
                           match="micro-unit scale overflows int64"):
            resolve_sim_engine("compiled", s)


class TestCarryCompatible:
    def test_pure_comm_same_destinations(self):
        assert carry_compatible(_pure_comm(), _pure_comm())

    def test_compute_blocks_carry(self):
        assert not carry_compatible(_with_compute(), _pure_comm())
        assert not carry_compatible(_pure_comm(), _with_compute())

    def test_moved_delivery_blocks_carry(self):
        moved = _pure_comm()
        moved.deliveries = {"x": "A"}
        assert not carry_compatible(_pure_comm(), moved)


class TestExactThroughput:
    def _run(self, periods=6):
        sched = _pure_comm()
        ex = ScheduleExecutor(sched, {("A", "x"): lambda s: ("x", s)},
                              record_trace=False)
        for _ in range(periods):
            ex.run_period()
        return ex.result()

    def test_measured_throughput_is_exact_fraction(self):
        res = self._run()
        tp = res.measured_throughput()
        assert isinstance(tp, F)
        assert tp == F(res.completed_ops(), res.horizon)

    def test_steady_window_throughput_is_exact_fraction(self):
        res = self._run()
        tp = res.steady_window_throughput(periods=3)
        assert isinstance(tp, F) and tp == 1

    def test_steady_window_rejects_bad_window(self):
        res = self._run()
        with pytest.raises(ValueError):
            res.steady_window_throughput(periods=0)
        with pytest.raises(ValueError):
            res.steady_window_throughput(periods=-2)
