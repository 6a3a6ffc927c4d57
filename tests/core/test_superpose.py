"""Schedule superposition, concatenation, stage tagging and replicas —
the shared machinery behind composed collectives."""

from fractions import Fraction

import pytest

from repro.collectives import solve_collective
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import (
    ReduceScatterProblem,
    build_reduce_scatter_schedule,
)
from repro.core.schedule import (
    RateBundle,
    concatenate_schedules,
    retag_schedule,
    schedule_from_rates,
    stage_view,
    superpose_schedules,
    tag_item,
    tree_rate_bundle,
    untag_item,
)
from repro.platform.examples import figure6_platform
from repro.sim.executor import simulate_schedule


def _line_bundle(item, rate=Fraction(1, 2)):
    return RateBundle(rates={("a", "b", item): (rate, 1)},
                      deliveries={item: "b"})


class TestTagging:
    def test_tag_untag_roundtrip(self):
        it = ("msg", 3)
        assert untag_item(tag_item(7, it)) == (7, it)
        assert untag_item(("msg", 3)) is None

    def test_retag_then_stage_view_roundtrip(self):
        sched = schedule_from_rates({("a", "b", "m"): (Fraction(1, 2), 1)},
                                    throughput=Fraction(1, 2),
                                    deliveries={"m": "b"})
        tagged = retag_schedule(sched, 0)
        assert list(tagged.deliveries) == [tag_item(0, "m")]
        back = stage_view(tagged, 0)
        assert list(back.deliveries) == ["m"]
        assert [t.item for s in back.slots for t in s.transfers] == ["m"]


class TestSuperpose:
    def test_two_bundles_share_one_period(self):
        sched = superpose_schedules(
            [_line_bundle(("m", 0)), _line_bundle(("m", 1))],
            throughput=Fraction(1, 2), name="two-lines")
        assert sched.validate() == []
        assert sched.per_period[("m", 0)] == sched.per_period[("m", 1)] == 1
        # both streams serialize on the single a->b edge: fully busy
        total = sum(t.time for s in sched.slots for t in s.transfers)
        assert total == sched.period

    def test_item_collisions_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            superpose_schedules([_line_bundle("m"), _line_bundle("m")],
                                throughput=1)

    def test_reduce_scatter_schedule_equals_superposed_block_bundles(self):
        """Satellite check: the hoisted machinery reproduces the schedule
        the private reduce-scatter loop used to build."""
        problem = ReduceScatterProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(problem, backend="exact")
        via_module = build_reduce_scatter_schedule(sol)
        bundles = [tree_rate_bundle(problem, trees,
                                    target=problem.block_target(b),
                                    stream=lambda r, b=b: (b, r))
                   for b, trees in sol.extract().items()]
        via_shared = superpose_schedules(
            bundles, throughput=sol.throughput,
            name=via_module.name)
        assert via_shared == via_module

    def test_tree_rate_bundle_matches_reduce_schedule(self):
        problem = ReduceProblem(figure6_platform(), [0, 1, 2], target=0)
        sol = solve_collective(problem, backend="exact")
        trees = sol.extract()
        bundle = tree_rate_bundle(problem, trees, target=0)
        assert set(bundle.deliveries.values()) == {0}
        total = sum(r for (r, _u) in bundle.rates.values())
        transfers = sum(len(t.transfers) for t in trees)
        assert transfers == 0 or total > 0


class TestConcatenate:
    def test_periods_chain_and_throughput_is_harmonic(self):
        s1 = schedule_from_rates({("a", "b", "x"): (Fraction(1, 2), 1)},
                                 throughput=Fraction(1, 2),
                                 deliveries={"x": "b"}, name="s1")
        s2 = schedule_from_rates({("b", "c", "y"): (Fraction(1, 4), 1)},
                                 throughput=Fraction(1, 4),
                                 deliveries={"y": "c"}, name="s2")
        seq = concatenate_schedules([retag_schedule(s1, 0),
                                     retag_schedule(s2, 1)])
        # stage 1: 1 op / 2 units; stage 2: 1 op / 4 units -> 1 op / 6
        assert seq.throughput == Fraction(1, 6)
        assert seq.period == 6
        assert seq.validate() == []
        assert seq.delivery_mode == "sum"

    def test_ops_per_period_must_be_integral(self):
        s = schedule_from_rates({("a", "b", "x"): (Fraction(1, 2), 1)},
                                throughput=Fraction(1, 2),
                                deliveries={"x": "b"})
        s.throughput = Fraction(1, 3)  # corrupt: 2/3 ops per period
        with pytest.raises(ValueError, match="not a positive"):
            concatenate_schedules([s])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            concatenate_schedules([])


class TestReplicas:
    def test_landing_fans_out_and_delivers(self):
        """One a->b stream; at b each instance replicates into a delivery
        token and a forwarded copy for c."""
        rates = {("a", "b", "x"): (1, 1),
                 ("b", "c", "fwd"): (1, 1)}
        sched = schedule_from_rates(
            rates, throughput=1,
            deliveries={"dlv-b": "b", "fwd": "c"},
            replicas={("b", "x"): ("dlv-b", "fwd")},
            delivery_mode="sum")
        supplies = {("a", "x"): lambda seq: ("payload", seq)}
        res = simulate_schedule(sched, supplies, 10,
                                expected=lambda item, seq: ("payload", seq))
        assert res.correct
        # both streams deliver (modulo one warm-up period for the hop)
        assert len(res.delivery_times["dlv-b"]) == 10
        assert len(res.delivery_times["fwd"]) == 9

    def test_replica_at_other_node_is_left_alone(self):
        """The fan-out rule is node-keyed: an identical item landing at a
        different node must not replicate."""
        rates = {("a", "b", "x"): (1, 1),
                 ("b", "c", "x"): (1, 1)}
        sched = schedule_from_rates(
            rates, throughput=1, deliveries={"dlv": "c"},
            replicas={("c", "x"): ("dlv",)}, delivery_mode="sum")
        supplies = {("a", "x"): lambda seq: seq}
        res = simulate_schedule(sched, supplies, 10)
        assert res.correct
        assert len(res.delivery_times["dlv"]) == 9

    def test_empty_replica_absorbs(self):
        rates = {("a", "b", "x"): (1, Fraction(1, 2))}
        sched = schedule_from_rates(
            rates, throughput=1, deliveries={"never": "z"},
            replicas={("b", "x"): ()}, delivery_mode="sum")
        supplies = {("a", "x"): lambda seq: seq}
        res = simulate_schedule(sched, supplies, 5)
        assert res.one_port_violations == []
        assert res.delivery_times["never"] == []

    def test_scaled_keeps_replicas_and_mode(self):
        rates = {("a", "b", "x"): (Fraction(1, 2), 1)}
        sched = schedule_from_rates(
            rates, throughput=Fraction(1, 2), deliveries={"x": "b"},
            replicas={("b", "q"): ("r",)}, delivery_mode="sum")
        doubled = sched.scaled(2)
        assert doubled.replicas == sched.replicas
        assert doubled.delivery_mode == "sum"
