"""Unit tests for trace validation."""

from fractions import Fraction

from repro.sim.trace import (
    Trace, TraceEvent, port_utilization, validate_one_port,
)


class TestTraceValidation:
    def test_clean_trace_passes(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 1, peer="b"))
        t.add(TraceEvent("send", "a", 1, 2, peer="c"))  # back-to-back is fine
        assert validate_one_port(t) == []

    def test_overlapping_sends_flagged(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 2, peer="b"))
        t.add(TraceEvent("send", "a", 1, 3, peer="c"))
        bad = validate_one_port(t)
        assert bad and "send@'a'" in bad[0]

    def test_overlapping_receives_flagged(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 2, peer="x"))
        t.add(TraceEvent("send", "b", 1, 3, peer="x"))
        assert any(b.startswith("recv@'x'") for b in validate_one_port(t))

    def test_overlapping_compute_flagged(self):
        t = Trace()
        t.add(TraceEvent("compute", "a", 0, 2))
        t.add(TraceEvent("compute", "a", 1, 3))
        assert any(b.startswith("cpu@'a'") for b in validate_one_port(t))

    def test_send_and_compute_overlap_allowed(self):
        # full-overlap assumption: comm and comp coexist on one node
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 2, peer="b"))
        t.add(TraceEvent("compute", "a", 0, 2))
        assert validate_one_port(t) == []

    def test_send_and_receive_overlap_allowed(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 2, peer="b"))
        t.add(TraceEvent("send", "b", 0, 2, peer="a"))
        assert validate_one_port(t) == []

    def test_zero_duration_events_ignored(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 1, 1, peer="b"))
        t.add(TraceEvent("send", "a", 1, 1, peer="c"))
        assert validate_one_port(t) == []

    def test_fraction_times_supported(self):
        t = Trace()
        t.add(TraceEvent("send", "a", Fraction(1, 3), Fraction(2, 3), peer="b"))
        t.add(TraceEvent("send", "a", Fraction(2, 3), 1, peer="c"))
        assert validate_one_port(t) == []


class TestTraceQueries:
    def test_kind_filters_and_horizon(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 2, peer="b"))
        t.add(TraceEvent("compute", "a", 0, 5))
        t.add(TraceEvent("delivery", "b", 2, 2))
        assert len(t.sends()) == 1
        assert len(t.computes()) == 1
        assert len(t.deliveries()) == 1
        assert t.horizon() == 5

    def test_port_utilization(self):
        t = Trace()
        t.add(TraceEvent("send", "a", 0, 5, peer="b"))
        t.add(TraceEvent("compute", "b", 0, 10))
        u = port_utilization(t, horizon=10)
        assert u[("send", "a")] == 0.5
        assert u[("recv", "b")] == 0.5
        assert u[("cpu", "b")] == 1.0
