"""Unit tests for the platform perturbation API (PR 6).

Events must (a) reshape the platform exactly, (b) report whether they
tighten it, with a stable fingerprint, and (c) be deterministic under
seeding — the degraded conformance axis depends on (a) and (c).
"""

from fractions import Fraction

import pytest

from repro.platform.generators import complete, ring
from repro.platform.perturb import (
    LinkDegradation, LinkFailure, NodeFailure, NodeJoin, PerturbationError,
    failure_trace, parse_event, parse_events, perturb,
)


class TestEvents:
    def test_link_failure_removes_one_direction(self):
        g = ring(4)
        g2, delta = perturb(g, [LinkFailure("p0", "p1")])
        assert not g2.has_edge("p0", "p1")
        assert g2.has_edge("p1", "p0")          # reverse direction survives
        assert g.has_edge("p0", "p1")           # input never mutated
        assert delta.tightened

    def test_link_degradation_scales_cost(self):
        g = ring(4)
        base = g.cost("p0", "p1")
        g2, _ = perturb(g, [LinkDegradation("p0", "p1", factor=3)])
        assert g2.cost("p0", "p1") == base * 3
        assert g.cost("p0", "p1") == base

    def test_fractional_speedup_is_loosening(self):
        g = ring(4)
        g2, delta = perturb(g, [LinkDegradation("p0", "p1",
                                                factor=Fraction(1, 2))])
        assert g2.cost("p0", "p1") == g.cost("p0", "p1") / 2
        assert not delta.tightened

    def test_node_failure_takes_incident_links(self):
        g = complete(4)
        g2, delta = perturb(g, [NodeFailure("p2")])
        assert "p2" not in g2
        assert all("p2" not in (e.src, e.dst) for e in g2.edges())
        assert delta.tightened

    def test_node_join_adds_symmetric_links(self):
        g = ring(3)
        ev = NodeJoin("px", speed=1, links=(("p0", 2),))
        g2, delta = perturb(g, [ev])
        assert g2.has_edge("px", "p0") and g2.has_edge("p0", "px")
        assert g2.cost("px", "p0") == 2
        assert g2.is_compute("px")
        assert not delta.tightened

    def test_events_compose_left_to_right(self):
        g = ring(3)
        g2, _ = perturb(g, [NodeJoin("px", speed=1, links=(("p0", 1),)),
                            LinkFailure("px", "p0")])
        assert not g2.has_edge("px", "p0") and g2.has_edge("p0", "px")

    def test_validation_errors(self):
        g = ring(3)
        with pytest.raises(PerturbationError):
            perturb(g, [LinkFailure("p0", "nope")])     # missing link
        with pytest.raises(PerturbationError):
            perturb(g, [LinkDegradation("p0", "p1", factor=0)])
        with pytest.raises(PerturbationError):
            perturb(g, [NodeFailure("nope")])
        with pytest.raises(PerturbationError):
            perturb(g, [NodeJoin("p0")])                # already exists


class TestDelta:
    def test_tightened_flags_only_shrinking_events(self):
        g = ring(4)
        for ev in (LinkFailure("p0", "p1"), NodeFailure("p1"),
                   LinkDegradation("p0", "p1", factor=5)):
            assert perturb(g, [ev])[1].tightened, ev
        for ev in (LinkDegradation("p0", "p1", factor=Fraction(1, 2)),
                   NodeJoin("px", links=(("p0", 1),))):
            assert not perturb(g, [ev])[1].tightened, ev

    def test_fingerprint_deterministic_and_event_sensitive(self):
        _, d1 = perturb(ring(4), [LinkFailure("p0", "p1")])
        _, d2 = perturb(ring(4), [LinkFailure("p0", "p1")])
        _, d3 = perturb(ring(4), [LinkFailure("p1", "p2")])
        assert d1.fingerprint == d2.fingerprint
        assert d1.fingerprint != d3.fingerprint


class TestFailureTrace:
    def test_deterministic_under_seed(self):
        g = complete(5)
        assert failure_trace(g, 11, n_events=4) == \
            failure_trace(g, 11, n_events=4)
        assert failure_trace(g, 11, n_events=4) != \
            failure_trace(g, 12, n_events=4)

    def test_keeps_platform_strongly_connected(self):
        g = complete(5)
        for seed in range(12):
            g2, _ = perturb(g, failure_trace(g, seed, n_events=3))
            assert g2.is_strongly_connected()

    def test_link_level_only(self):
        g = complete(5)
        for ev in failure_trace(g, 3, n_events=5):
            assert isinstance(ev, (LinkFailure, LinkDegradation))

    def test_failures_disabled_means_degradations_only(self):
        g = ring(4)
        events = failure_trace(g, 0, n_events=6, allow_failures=False)
        assert events and all(isinstance(e, LinkDegradation) for e in events)


class TestParsing:
    def test_grammar(self):
        assert parse_event("fail:p0:p1") == LinkFailure("p0", "p1")
        assert parse_event("slow:0:1:3/2") == \
            LinkDegradation(0, 1, factor=Fraction(3, 2))
        assert parse_event("down:7") == NodeFailure(7)

    def test_list(self):
        evs = parse_events("fail:0:1,slow:1:2:2")
        assert evs == (LinkFailure(0, 1), LinkDegradation(1, 2,
                                                          factor=Fraction(2)))

    def test_bad_specs_rejected(self):
        for bad in ("fail:p0", "slow:0:1", "down", "warp:0:1", ""):
            with pytest.raises(PerturbationError):
                parse_event(bad)
