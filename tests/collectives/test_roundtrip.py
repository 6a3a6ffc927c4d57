"""Full registry round-trip — build -> solve -> clean -> schedule ->
simulate — for every registered collective, exercised through the single
``solve_collective`` orchestrator.
"""

from fractions import Fraction

import pytest

from repro.collectives import (
    CompositeSolution,
    get_collective,
    schedule_collective,
    solve_collective,
)
from repro.core.flowclean import (
    CleanCommodityPass,
    PruneEpsilonRatesPass,
    RemoveCyclesPass,
)
from repro.core.allgather import AllGatherProblem
from repro.core.allreduce import AllReduceProblem
from repro.core.broadcast import BroadcastProblem, BroadcastSolution
from repro.core.gossip import GossipProblem, GossipSolution
from repro.core.prefix import PrefixSolution
from repro.core.reduce_op import ReduceProblem, ReduceSolution
from repro.core.reduce_scatter import (
    ReduceScatterProblem,
    ReduceScatterSolution,
)
from repro.core.scatter import ScatterProblem, ScatterSolution
from repro.platform.examples import (
    figure2_platform,
    figure2_targets,
    figure6_platform,
)
from repro.sim.executor import simulate_collective


def _problems():
    fig2 = figure2_platform()
    tri = figure6_platform()
    return {
        "scatter": ScatterProblem(fig2, "Ps", figure2_targets()),
        "reduce": ReduceProblem(tri, [0, 1, 2], target=0),
        "gossip": GossipProblem(tri, [0, 1, 2], [0, 1, 2]),
        "prefix": ReduceProblem(tri, [0, 1, 2], target=0),
        "reduce-scatter": ReduceScatterProblem(tri, [0, 1, 2]),
        # fig2's relay nodes exercise the Steiner (non-spanning) packing
        "broadcast": BroadcastProblem(fig2, "Ps", figure2_targets()),
        "all-gather": AllGatherProblem(tri, [0, 1, 2]),
        "all-reduce": AllReduceProblem(tri, [0, 1, 2]),
    }


EXPECTED_TP = {
    "scatter": Fraction(1, 2),
    "reduce": 1,
    # content sharing beats fig2's scatter (1/2): both targets reuse the
    # Pb route for part of the message
    "broadcast": Fraction(7, 12),
    # each node must receive two blocks through one in-port of capacity 1
    "all-gather": Fraction(1, 2),
    # harmonic composition of reduce-scatter (1/2) and all-gather (1/2)
    "all-reduce": Fraction(1, 4),
}

SOLUTION_TYPES = {
    "scatter": ScatterSolution,
    "reduce": ReduceSolution,
    "gossip": GossipSolution,
    "prefix": PrefixSolution,
    "reduce-scatter": ReduceScatterSolution,
    "broadcast": BroadcastSolution,
    "all-gather": CompositeSolution,
    "all-reduce": CompositeSolution,
}

STAGES = {
    "all-gather": ["broadcast"] * 3,
    "all-reduce": ["reduce-scatter", "all-gather"],
}

ALL_COLLECTIVES = ["scatter", "reduce", "gossip", "prefix", "reduce-scatter",
                   "broadcast", "all-gather", "all-reduce"]


@pytest.mark.parametrize("name", ALL_COLLECTIVES)
class TestRoundTrip:
    def test_solve_verify(self, name):
        problem = _problems()[name]
        sol = solve_collective(problem, collective=name, backend="exact")
        assert sol.exact
        assert sol.collective == name
        assert sol.throughput > 0
        assert sol.verify() == []
        if name in EXPECTED_TP:
            assert sol.throughput == EXPECTED_TP[name]
        occ = sol.edge_occupation()
        assert all(0 < o <= 1 for o in occ.values())

    def test_resolves_solution_class(self, name):
        """The spec comes from the problem type alone; only prefix, which
        shares ``ReduceProblem`` with reduce, has to be named."""
        problem = _problems()[name]
        kw = {"collective": "prefix"} if name == "prefix" else {}
        sol = solve_collective(problem, backend="exact", **kw)
        assert type(sol) is SOLUTION_TYPES[name]
        assert sol.collective == name
        if name in STAGES:
            assert [s.collective for s in sol.stage_solutions] == STAGES[name]

    def test_schedule_and_simulate(self, name):
        problem = _problems()[name]
        sol = solve_collective(problem, collective=name, backend="exact")
        spec = get_collective(name)
        if not spec.has_schedule:
            with pytest.raises(NotImplementedError):
                schedule_collective(sol)
            return
        sched = schedule_collective(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, problem, n_periods=30,
                                  collective=name)
        assert res.correct
        assert res.completed_ops() > 0
        # steady state can never beat the LP bound; completed_ops sums
        # independent delivery streams for compute/broadcast schedules and
        # each spec declares how many TP-rate stream groups it counts
        streams = spec.ops_bound_factor(problem)
        bound = float(sol.throughput) * float(res.horizon) * streams
        assert res.completed_ops() <= bound + 1e-9


class TestPassOverrides:
    def test_scatter_without_clean_pass_keeps_raw_flow(self):
        p = _problems()["scatter"]
        raw = solve_collective(p, backend="exact",
                               passes=[PruneEpsilonRatesPass()])
        cleaned = solve_collective(p, backend="exact")
        assert raw.throughput == cleaned.throughput
        assert raw.paths is None  # no decomposition pass ran
        assert cleaned.paths is not None

    def test_reduce_with_explicit_pipeline_matches_default(self):
        p = _problems()["reduce"]
        a = solve_collective(p, backend="exact",
                             passes=[PruneEpsilonRatesPass(),
                                     RemoveCyclesPass()])
        b = solve_collective(p, backend="exact")
        assert a.send == b.send

    def test_endpoint_pass_skipped_for_interval_commodities(self):
        # CleanCommodityPass requires endpoints; reduce commodities have
        # none, so the pass must be skipped rather than crash
        p = _problems()["reduce"]
        sol = solve_collective(p, backend="exact",
                               passes=[PruneEpsilonRatesPass(),
                                       CleanCommodityPass(),
                                       RemoveCyclesPass()])
        assert sol.verify() == []


class TestFloatBackendRoundTrip:
    def test_scatter_highs_verifies_with_tolerance(self):
        p = _problems()["scatter"]
        sol = solve_collective(p, backend="highs")
        assert sol.throughput == pytest.approx(0.5)
        assert sol.verify(tol=1e-7) == []
