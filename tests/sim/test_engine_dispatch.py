"""Engine-selection rule and exact-Fraction throughput metrics."""

from fractions import Fraction as F

import pytest

from repro.core.schedule import ComputeTask, PeriodicSchedule, Slot, Transfer
from repro.sim.engine import SIM_ENGINES, resolve_sim_engine
from repro.sim.executor import (
    ScheduleExecutor, carry_compatible, simulate_schedule,
)
from repro.sim.operators import SeqConcat


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


def _merge(left, right, out):
    return ComputeTask(node="B", output=("val", out, 0),
                       inputs=(("val", left, 0), ("val", right, 0)),
                       count=1, unit_time=1)


def _reduce2(task=None):
    """A ships leaf 0 to B, B merges it with its own leaf 1 and delivers
    [0, 1] there: the smallest certified reduction."""
    return PeriodicSchedule(
        name="reduce2", period=1, throughput=1,
        slots=[Slot(duration=1, transfers=[
            Transfer("A", "B", ("val", (0, 0), 0), 1, 1)])],
        per_period={("val", (0, 0), 0): 1},
        deliveries={("val", (0, 1), 0): "B"},
        compute={"B": [task or _merge((0, 0), (1, 1), (0, 1))]})


class TestResolveSimEngine:
    def test_auto_picks_compiled_for_pure_comm(self):
        pytest.importorskip("numpy")
        assert resolve_sim_engine("auto", _pure_comm()) == "compiled"

    def test_combine_without_compute_picks_compiled(self):
        # an operator no task applies cannot change a payload
        pytest.importorskip("numpy")
        assert resolve_sim_engine(
            "auto", _pure_comm(), combine=lambda a, b: a) == "compiled"

    def test_auto_picks_compiled_for_certified_reduction(self):
        pytest.importorskip("numpy")
        assert resolve_sim_engine("auto", _reduce2(),
                                  combine=lambda a, b: a) == "compiled"

    def test_auto_falls_back_on_compute(self):
        # a one-input task is no merge: the certificate fails
        assert resolve_sim_engine("auto", _with_compute()) == "reference"

    def test_auto_falls_back_on_faulted_reduction(self):
        assert resolve_sim_engine("auto", _reduce2(),
                                  faulted=True) == "reference"
        pytest.importorskip("numpy")
        assert resolve_sim_engine("auto", _pure_comm(),
                                  faulted=True) == "compiled"

    def test_auto_falls_back_on_trace(self):
        assert resolve_sim_engine(
            "auto", _pure_comm(), record_trace=True) == "reference"

    def test_compiled_raises_with_reason(self):
        pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="has 1 inputs, not two"):
            resolve_sim_engine("compiled", _with_compute())
        with pytest.raises(ValueError, match="trace"):
            resolve_sim_engine("compiled", _pure_comm(), record_trace=True)
        with pytest.raises(ValueError, match="faulted replays"):
            resolve_sim_engine("compiled", _reduce2(), faulted=True)

    def test_reference_always_wins(self):
        for sched in (_pure_comm(), _with_compute(), _reduce2()):
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


def _leaf(rank):
    return lambda seq: SeqConcat.leaf(rank, seq)


def _replay(sched, engine, supplies=None, periods=6):
    supplies = supplies or {("A", ("val", (0, 0), 0)): _leaf(0),
                            ("B", ("val", (1, 1), 0)): _leaf(1),
                            ("C", ("val", (2, 2), 0)): _leaf(2)}
    n = max(it[1][1] for it in sched.deliveries) + 1
    return simulate_schedule(sched, supplies, periods,
                             combine=SeqConcat.combine,
                             expected=lambda item, seq: SeqConcat.expected(
                                 n, seq),
                             record_trace=False, engine=engine)


def _two_producers():
    """Leaf 0 reaches B from both A and C: B's stream interleaves them."""
    s = _reduce2()
    s.slots.append(Slot(duration=1, transfers=[
        Transfer("C", "B", ("val", (0, 0), 0), 1, 1)]))
    s.period = 2
    return s


def _two_consumers():
    """A ships leaf 0 to B and to C: B sees every other stamp."""
    s = _reduce2()
    s.slots.append(Slot(duration=1, transfers=[
        Transfer("A", "C", ("val", (0, 0), 0), 1, 1)]))
    s.period = 2
    return s


def _non_adjacent():
    """B merges leaves 0 and 2 into [0, 2], skipping leaf 1."""
    s = _reduce2(_merge((0, 0), (2, 2), (0, 2)))
    s.slots[0].transfers.append(Transfer("C", "B", ("val", (2, 2), 0), 1, 1))
    s.deliveries = {("val", (0, 2), 0): "B"}
    return s


class TestMergeCertificate:
    """Negative cases: schedules whose stamps or operand order a count
    cannot see stay on the reference executor."""

    CASES = {
        "swapped": (lambda: _reduce2(_merge((1, 1), (0, 0), (0, 1))),
                    "swaps its operands"),
        "non-adjacent": (_non_adjacent, "does not merge adjacent"),
        "two-producers": (_two_producers, "has two producers"),
        "two-consumers": (_two_consumers, "has two consumers"),
        "non-leaf-supply": (
            lambda: _reduce2(_merge((0, 0), (1, 2), (0, 2))),
            "is not a leaf interval"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_uncertified_stays_on_reference(self, case):
        pytest.importorskip("numpy")
        from repro.sim.compiled import VectorizedExecutor, merge_certificate

        build, reason = self.CASES[case]
        sched = build()
        assert reason in merge_certificate(sched)[0]
        assert resolve_sim_engine("auto", sched,
                                  combine=SeqConcat.combine) == "reference"
        with pytest.raises(ValueError, match=reason):
            resolve_sim_engine("compiled", sched, combine=SeqConcat.combine)
        with pytest.raises(ValueError, match=reason):
            VectorizedExecutor(sched, {})
        assert _replay(sched, "auto").engine == "reference"

    def test_reference_reports_swapped_value(self):
        res = _replay(self.CASES["swapped"][0](), "auto")
        assert res.delivery_times[("val", (0, 1), 0)]
        assert any("wrong value" in e for e in res.errors)

    def test_certified_reduction_matches_reference(self):
        pytest.importorskip("numpy")
        ref, fast = (_replay(_reduce2(), e) for e in ("reference", "auto"))
        assert fast.engine == "compiled" and ref.errors == fast.errors == []
        assert fast.delivery_times == ref.delivery_times
        assert len(fast.delivery_times[("val", (0, 1), 0)]) == 5

    def test_fold_check_reports_a_wrong_leaf_supply(self):
        # the certificate reads only the schedule; the supplies break the
        # leaf convention, and the compiled replay's fold check says so
        pytest.importorskip("numpy")
        bad = {("A", ("val", (0, 0), 0)): _leaf(1),
               ("B", ("val", (1, 1), 0)): _leaf(1)}
        ref, fast = (_replay(_reduce2(), e, supplies=bad)
                     for e in ("reference", "compiled"))
        assert fast.delivery_times == ref.delivery_times
        assert fast.errors == [e for e in ref.errors if " seq 0 " in e
                               or " seq 1 " in e]
        assert len(fast.errors) == 2

    def test_supply_on_a_produced_key_is_refused(self):
        pytest.importorskip("numpy")
        from repro.sim.compiled import VectorizedExecutor

        sched = _reduce2()
        supplies = {("B", ("val", (0, 0), 0)): _leaf(0)}
        with pytest.raises(ValueError, match="sits on a produced key"):
            VectorizedExecutor(sched, supplies)

    def test_faulted_compiled_reduction_is_refused(self):
        pytest.importorskip("numpy")
        from repro.sim.compiled import VectorizedExecutor

        ex = VectorizedExecutor(_reduce2(),
                                {("A", ("val", (0, 0), 0)): _leaf(0)})
        with pytest.raises(ValueError, match="faulted replays"):
            ex.fail_link("A", "B")
        with pytest.raises(ValueError, match="faulted replays"):
            ex.fail_node("A")


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
