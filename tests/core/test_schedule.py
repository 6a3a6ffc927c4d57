"""Unit tests for periodic schedule construction."""

from fractions import Fraction

import pytest

from repro.core import matching
from repro.core.schedule import (
    PeriodicSchedule, Slot, Transfer, build_reduce_schedule, lcm_period,
    schedule_from_rates,
)


class TestLcmPeriod:
    def test_integers_need_period_one(self):
        assert lcm_period([1, 2, 3]) == 1

    def test_fractions(self):
        assert lcm_period([Fraction(1, 4), Fraction(1, 6)]) == 12

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            lcm_period([0.5])


class TestScheduleFromRates:
    def simple_rates(self):
        # one edge, one item, rate 1/2, unit time 1
        return {("a", "b", "m"): (Fraction(1, 2), 1)}

    def test_counts_integral(self):
        sched = schedule_from_rates(self.simple_rates(), Fraction(1, 2),
                                    {"m": "b"})
        assert sched.per_period == {"m": 1}
        assert sched.period == 2

    def test_overload_rejected(self):
        rates = {("a", "b", "m"): (2, 1)}  # rate 2 at unit time 1 -> load 2
        with pytest.raises(ValueError):
            schedule_from_rates(rates, 2, {"m": "b"})

    def test_port_conflict_detected(self):
        # two outgoing edges each loaded 3/4: port load 3/2 > 1
        rates = {("a", "b", "m1"): (Fraction(3, 4), 1),
                 ("a", "c", "m2"): (Fraction(3, 4), 1)}
        with pytest.raises(ValueError):
            schedule_from_rates(rates, Fraction(3, 4),
                                {"m1": "b", "m2": "c"})

    def test_integral_times_auto_caps_period(self):
        # coprime unit times would explode the period; auto falls back
        rates = {("a", "b", "m"): (Fraction(1, 2), Fraction(1, 999983)),
                 ("a", "c", "m2"): (Fraction(1, 3), Fraction(1, 999979))}
        sched = schedule_from_rates(rates, Fraction(1, 3),
                                    {"m": "b", "m2": "c"})
        assert sched.period == 6

    def test_unallocated_time_is_a_runtime_error(self, monkeypatch):
        # a matching core that drops the edge's matching leaves occupation
        # time the per-slot allocation cannot place (idle time may come
        # first, so drop the matching that carries the edge)
        peel = matching._peel
        edge = (("S", "a"), ("R", "b"))
        monkeypatch.setattr(matching, "_peel", lambda *a: [
            m for m in peel(*a) if edge not in m[1]])
        with pytest.raises(RuntimeError,
                           match=r"edge \('a', 'b'\): 1 micro-units of 1/1"):
            schedule_from_rates(self.simple_rates(), Fraction(1, 2),
                                {"m": "b"})

    def test_slot_durations_sum_to_period(self):
        sched = schedule_from_rates(self.simple_rates(), Fraction(1, 2),
                                    {"m": "b"})
        assert sum((s.duration for s in sched.slots), 0) == sched.period

    def test_compute_rates_packed(self):
        rates = {("a", "b", "x"): (1, Fraction(1, 2))}
        compute = {("b", "y"): (1, ("x", "x2"), Fraction(1, 3))}
        sched = schedule_from_rates(rates, 1, {"y": "b"},
                                    compute_rates=compute)
        # rate 1 task/time-unit at 1/3 time each -> busy T/3 per period
        assert sched.compute_time("b") == sched.period * Fraction(1, 3)
        assert sched.validate() == []

    def test_compute_overload_rejected(self):
        rates = {("a", "b", "x"): (1, Fraction(1, 2))}
        compute = {("b", "y"): (3, ("x", "x2"), Fraction(1, 2))}  # load 3/2
        with pytest.raises(ValueError):
            schedule_from_rates(rates, 1, {"y": "b"}, compute_rates=compute)


class TestValidate:
    def test_detects_double_send(self):
        sched = PeriodicSchedule(
            name="bad", period=2, throughput=1,
            slots=[Slot(duration=2, transfers=[
                Transfer("a", "b", "m", 1, 1),
                Transfer("a", "c", "m2", 1, 1),
            ])],
            per_period={"m": 1, "m2": 1}, deliveries={})
        bad = sched.validate()
        assert any("two receivers" in b for b in bad)

    def test_detects_pair_overrun(self):
        sched = PeriodicSchedule(
            name="bad", period=2, throughput=1,
            slots=[Slot(duration=1, transfers=[
                Transfer("a", "b", "m", 2, 2)])],
            per_period={"m": 2}, deliveries={})
        assert any("exceeds slot" in b for b in sched.validate())

    def test_detects_period_overrun(self):
        sched = PeriodicSchedule(
            name="bad", period=1, throughput=1,
            slots=[Slot(duration=2, transfers=[])],
            per_period={}, deliveries={})
        assert any("exceed period" in b for b in sched.validate())


class TestScaled:
    def test_scaled_doubles_everything(self, fig6_solution):
        sched = build_reduce_schedule(fig6_solution)
        double = sched.scaled(2)
        assert double.period == 2 * sched.period
        assert double.ops_per_period() == 2 * sched.ops_per_period()
        assert double.validate() == []

    def test_busy_time_monotone_under_scaling(self, fig6_solution):
        sched = build_reduce_schedule(fig6_solution)
        double = sched.scaled(2)
        for node in (0, 1, 2):
            s1, r1 = sched.busy_time(node)
            s2, r2 = double.busy_time(node)
            assert s2 == 2 * s1 and r2 == 2 * r1


class TestBuildReduceSchedule:
    def test_fig6_schedule_consistent(self, fig6_solution):
        sched = build_reduce_schedule(fig6_solution)
        assert sched.validate() == []
        assert sched.ops_per_period() == sched.throughput * sched.period
        assert sched.throughput == fig6_solution.throughput

    def test_compute_loads_respect_alpha(self, fig6_solution):
        sched = build_reduce_schedule(fig6_solution)
        for node in (0, 1, 2):
            assert sched.compute_time(node) <= sched.period
