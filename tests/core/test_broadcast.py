"""Broadcast LP (content-divisible flows) and arborescence packing."""

from fractions import Fraction

import pytest

from repro.collectives import schedule_collective, solve_collective
from repro.core.arborescence import (
    Arborescence,
    ArborescencePackingError,
    max_flow,
    pack_arborescences,
)
from repro.core.broadcast import BroadcastProblem, build_broadcast_lp
from repro.core.scatter import ScatterProblem
from repro.platform.examples import (
    figure2_platform,
    figure2_targets,
    figure6_platform,
)
from repro.platform.generators import complete
from repro.sim.executor import simulate_collective


class TestProblemValidation:
    def test_source_cannot_be_target(self):
        with pytest.raises(ValueError, match="source holds the message"):
            BroadcastProblem(figure6_platform(), 0, [0, 1])

    def test_duplicate_target(self):
        with pytest.raises(ValueError, match="duplicate"):
            BroadcastProblem(figure6_platform(), 0, [1, 1])

    def test_unknown_node(self):
        with pytest.raises(ValueError, match="not in platform"):
            BroadcastProblem(figure6_platform(), 0, [1, 99])


class TestBroadcastLP:
    def test_fig2_optimum_beats_scatter(self):
        """Content sharing strictly beats scatter on the fig2 relay
        platform: 7/12 > 1/2 (hand-derivable from the out[Ps] and
        out[Pb] budgets)."""
        p = BroadcastProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(p, backend="exact")
        assert sol.throughput == Fraction(7, 12)
        scat = solve_collective(
            ScatterProblem(figure2_platform(), "Ps", figure2_targets()),
            backend="exact")
        assert sol.throughput > scat.throughput
        assert sol.verify() == []

    def test_fig6_spanning_broadcast_is_rate_one(self):
        """On the unit triangle a relay chain 0 -> 1 -> 2 streams one
        message per time-unit."""
        p = BroadcastProblem(figure6_platform(), 0, [1, 2])
        sol = solve_collective(p, backend="exact")
        assert sol.throughput == 1
        assert sol.verify() == []

    def test_content_dominates_every_flow(self):
        p = BroadcastProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(p, backend="exact")
        for t, flow in sol.flows.items():
            for e, f in flow.items():
                assert f <= sol.send[e]
            delivered = sum(f for (i, j), f in flow.items() if j == t)
            assert delivered == sol.throughput

    def test_lp_shape(self):
        p = BroadcastProblem(figure6_platform(), 0, [1, 2])
        lp = build_broadcast_lp(p)
        names = {v.name for v in lp.variables}
        assert "content[0->1]" in names
        assert "send[0->1,m1]" in names
        # targets never re-emit their own flow
        assert "send[1->2,m1]" not in names


class TestArborescencePacking:
    def test_weights_sum_to_demand_and_respect_caps(self):
        p = BroadcastProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(p, backend="exact")
        arbs = sol.arborescences()
        assert sum(a.weight for a in arbs) == sol.throughput
        usage = {}
        for a in arbs:
            for e in a.edges:
                usage[e] = usage.get(e, 0) + a.weight
        for e, u in usage.items():
            assert u <= sol.send[e]

    def test_every_arborescence_covers_all_targets(self):
        p = BroadcastProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(p, backend="exact")
        for a in sol.arborescences():
            children = a.children()
            # walk from the source: every target must be reachable
            seen, frontier = {"Ps"}, ["Ps"]
            while frontier:
                for c in children.get(frontier.pop(), ()):
                    seen.add(c)
                    frontier.append(c)
            assert set(figure2_targets()) <= seen
            # tree shape: every non-root node has exactly one parent
            dsts = [j for (_i, j) in a.edges]
            assert len(dsts) == len(set(dsts))

    def test_diamond_needs_two_arborescences(self):
        """cap supports flow 2 to both sinks only by splitting content."""
        cap = {("s", "a"): 1, ("s", "b"): 1,
               ("a", "x"): 1, ("b", "x"): 1,
               ("a", "y"): 1, ("b", "y"): 1}
        arbs = pack_arborescences(cap, "s", ["x", "y"], 2)
        assert sum(a.weight for a in arbs) == 2
        assert len(arbs) >= 2

    def test_insufficient_capacity_raises(self):
        cap = {("s", "a"): Fraction(1, 2), ("a", "t"): Fraction(1, 2)}
        with pytest.raises(ArborescencePackingError, match="carry only"):
            pack_arborescences(cap, "s", ["t"], 1)

    def test_unreachable_target_raises(self):
        with pytest.raises(ArborescencePackingError):
            pack_arborescences({("s", "a"): 1}, "s", ["t"], 1)

    def test_children_map(self):
        a = Arborescence(weight=1, edges=(("s", "a"), ("s", "b"),
                                          ("a", "c")))
        assert a.children() == {"s": ("a", "b"), "a": ("c",)}
        assert a.nodes() == {"s", "a", "b", "c"}


class TestMaxFlow:
    def test_value_and_cut(self):
        cap = {("s", "a"): 3, ("a", "t"): 2, ("s", "t"): 1}
        val, cut = max_flow(cap, "s", "t")
        assert val == 3
        assert "s" in cut and "t" not in cut

    def test_early_exit_with_need(self):
        cap = {("s", "t"): 5}
        val, cut = max_flow(cap, "s", "t", need=2)
        assert val == 2 and cut is None

    def test_infeasible_need_returns_cut(self):
        cap = {("s", "t"): 1}
        val, cut = max_flow(cap, "s", "t", need=2)
        assert val == 1 and cut == {"s"}


class TestBroadcastSchedule:
    def test_fig2_schedule_and_replicated_simulation(self):
        p = BroadcastProblem(figure2_platform(), "Ps", figure2_targets())
        sol = solve_collective(p, backend="exact")
        sched = schedule_collective(sol)
        assert sched.validate() == []
        assert sched.delivery_mode == "sum"
        assert sched.replicas  # fan-out rules present
        res = simulate_collective(sched, p, n_periods=30)
        assert res.correct
        streams = len(p.targets)
        bound = float(sol.throughput) * float(res.horizon) * streams
        assert 0 < res.completed_ops() <= bound + 1e-9

    def test_complete5_spanning_broadcast(self):
        g = complete(5, cost=1)
        nodes = g.nodes()
        p = BroadcastProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(p, backend="exact")
        assert sol.throughput == 1  # relay chain saturates every in-port
        sched = schedule_collective(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, p, n_periods=25)
        assert res.correct and res.completed_ops() > 0
