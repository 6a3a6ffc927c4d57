"""Warm-started incremental re-solve (PR 6).

Two layers are pinned here:

- :func:`repro.lp.resolve.apply_delta` must be *exactly* equivalent to
  rebuilding the LP from the perturbed problem — checked by comparing
  canonical keys, the strongest equality the LP layer offers;
- :func:`repro.lp.resolve.replan` must return a bit-identical rational
  optimum to a cold solve of the perturbed problem, whatever the event
  mix (degradation, failure, node loss with graceful shrinking).

The warm-vs-cold *speed* claim lives in ``tests/perf/test_work_pins.py``
(the ``x20_scatter_slow`` tier, where the basis is large enough for
the crash to win); paper-figure LPs are millisecond-scale and assert
correctness only.
"""

from fractions import Fraction

import pytest

from repro.collectives import solve_collective
from repro.collectives.degrade import DegradationError
from repro.core.scatter import ScatterProblem, build_scatter_lp
from repro.lp.dispatch import canonical_key
from repro.lp.resolve import WARM_BASIS_MIN_LABELS, apply_delta, replan
from repro.platform.examples import (figure9_participants, figure9_platform,
                                     figure9_target)
from repro.platform.generators import (complete, heterogenize,
                                       random_connected, ring)
from repro.platform.perturb import (LinkDegradation, LinkFailure, NodeFailure,
                                    NodeJoin, perturb)


def _fig9_scatter():
    g = figure9_platform()
    src = figure9_target()
    return ScatterProblem(g, src,
                          [p for p in figure9_participants() if p != src])


class TestApplyDelta:
    """Row-editing a solved LP == rebuilding it from the perturbed problem."""

    @pytest.mark.parametrize("events", [
        (LinkDegradation(2, 8, factor=2),),
        (LinkDegradation(0, 1, factor=Fraction(3, 2)),),
        (LinkDegradation(2, 8, factor=2), LinkDegradation(0, 5, factor=3)),
    ], ids=["slow", "slow-frac", "slow-slow"])
    def test_scale_matches_rebuilt_lp_canonically(self, events):
        # degradations keep the variable set: the edited model must hash
        # identically to one rebuilt from scratch on the perturbed platform
        problem = _fig9_scatter()
        lp = build_scatter_lp(problem)
        g2, delta = perturb(problem.platform, events)
        edited = apply_delta(lp, delta)
        assert edited is not None
        rebuilt = build_scatter_lp(
            ScatterProblem(g2, problem.source, problem.targets))
        assert canonical_key(edited) == canonical_key(rebuilt)

    @pytest.mark.parametrize("events", [
        (LinkFailure(2, 8),),
        (LinkFailure(2, 8), LinkDegradation(0, 5, factor=3)),
    ], ids=["fail", "mixed"])
    def test_drop_matches_rebuilt_optimum(self, events):
        # a failure pins the dead link's variables at 0 instead of deleting
        # them (stable indexing for the warm basis), so the models are not
        # canonically identical — but their exact optima must coincide
        from repro.lp import solve as lp_solve

        problem = _fig9_scatter()
        lp = build_scatter_lp(problem)
        g2, delta = perturb(problem.platform, events)
        edited = apply_delta(lp, delta)
        assert edited is not None
        rebuilt = build_scatter_lp(
            ScatterProblem(g2, problem.source, problem.targets))
        a = lp_solve(edited, backend="exact", cache=False)
        b = lp_solve(rebuilt, backend="exact", cache=False)
        assert a.optimal and b.optimal
        assert a.objective == b.objective
        dead = {v.name for v in edited.variables if v.ub == 0}
        assert dead and all(a.by_name(n) == 0 for n in dead)

    def test_input_lp_untouched(self):
        problem = _fig9_scatter()
        lp = build_scatter_lp(problem)
        before = canonical_key(lp)
        _, delta = perturb(problem.platform, [LinkFailure(2, 8)])
        apply_delta(lp, delta)
        assert canonical_key(lp) == before

    def test_node_events_refuse(self):
        problem = _fig9_scatter()
        lp = build_scatter_lp(problem)
        _, d_down = perturb(problem.platform, [NodeFailure(8)])
        assert apply_delta(lp, d_down) is None
        _, d_join = perturb(problem.platform,
                            [NodeJoin("px", links=((0, 1),))])
        assert apply_delta(lp, d_join) is None

    def test_structure_mismatch_refuses(self):
        # a delta for a different platform names rows the LP lacks
        other = ring(4)
        _, delta = perturb(other, [LinkFailure("p0", "p1")])
        lp = build_scatter_lp(_fig9_scatter())
        assert apply_delta(lp, delta) is None


class TestReplan:
    def test_degradation_warm_equals_cold(self):
        sol = solve_collective(_fig9_scatter(), backend="exact", cache=False)
        report = replan(sol, (LinkDegradation(2, 8, factor=2),),
                        compare=True)
        assert report.warm
        assert not report.sacrificed
        assert report.solution.exact
        assert report.throughput == report.cold_solution.throughput
        assert report.solution.verify() == []

    def test_link_failure_warm_equals_cold(self):
        sol = solve_collective(_fig9_scatter(), backend="exact", cache=False)
        report = replan(sol, (LinkFailure(2, 8),), compare=True)
        assert report.throughput == report.cold_solution.throughput
        assert report.base_throughput == sol.throughput
        assert report.solution.verify() == []

    def test_speedup_property(self):
        sol = solve_collective(_fig9_scatter(), backend="exact", cache=False)
        report = replan(sol, (LinkDegradation(2, 8, factor=2),),
                        compare=True)
        assert report.speedup is not None and report.speedup > 0
        assert "warm" in report.describe()

    def test_node_failure_degrades_gracefully(self):
        g = complete(4)
        nodes = g.nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="exact", cache=False)
        report = replan(sol, (NodeFailure(nodes[-1]),), compare=True)
        assert tuple(report.sacrificed) == (nodes[-1],)
        assert report.solution.sacrificed == report.sacrificed
        assert nodes[-1] not in report.problem.targets
        assert report.throughput == report.cold_solution.throughput
        # fewer targets to serve: throughput cannot get worse
        assert report.throughput >= sol.throughput

    def test_node_failure_with_error_policy_raises(self):
        g = complete(4)
        nodes = g.nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="exact", cache=False)
        with pytest.raises(DegradationError):
            replan(sol, (NodeFailure(nodes[-1]),), on_infeasible="error")

    def test_loosening_join_rebuilds_and_matches_cold(self):
        g = ring(4)
        nodes = g.nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="exact", cache=False)
        ev = NodeJoin("px", links=((nodes[0], 1), (nodes[2], 1)))
        report = replan(sol, (ev,), compare=True)
        assert report.throughput == report.cold_solution.throughput
        assert report.throughput >= sol.throughput

    def test_composite_pipelined_replan(self):
        from repro.core.allreduce import AllReduceProblem
        from repro.platform.examples import figure6_platform

        problem = AllReduceProblem(figure6_platform(), [0, 1, 2], task_work=2)
        sol = solve_collective(problem, collective="all-reduce",
                               backend="exact", mode="pipelined", cache=False)
        report = replan(sol, (LinkDegradation(1, 2, factor=2),), compare=True)
        assert report.solution.mode == "pipelined"
        assert report.throughput == report.cold_solution.throughput
        assert report.solution.verify() == []


class TestDualResolve:
    def test_tightening_enters_the_dual_simplex(self):
        # above the crash threshold a tightening delta must re-solve via
        # dual pivots from the old basis (revised engine), not a phase-1
        # repair — and still match the cold optimum bit-exactly
        g = ring(24, cost=1)
        nodes = g.compute_nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="exact", cache=False)
        assert len(sol.lp_solution.basis_labels) >= WARM_BASIS_MIN_LABELS
        report = replan(sol, (LinkDegradation(nodes[1], nodes[2], factor=2),),
                        compare=True)
        assert report.warm
        stats = report.solution.lp_solution.stats
        assert stats is not None and stats["path"] == "warm-dual"
        assert report.throughput == report.cold_solution.throughput
        assert report.solution.verify() == []

    def test_loosening_stays_primal(self):
        # a speed-up keeps the old vertex primal feasible: no dual entry
        g = ring(24, cost=1)
        nodes = g.compute_nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="exact", cache=False)
        report = replan(sol, (LinkDegradation(nodes[1], nodes[2],
                                              factor=Fraction(1, 2)),),
                        compare=True)
        stats = report.solution.lp_solution.stats
        if stats is not None:  # tableau engine reports no stats
            assert not stats["path"].endswith("-dual")
        assert report.throughput == report.cold_solution.throughput


class TestWarmThreshold:
    def test_toy_platforms_sit_below_the_crash_threshold(self):
        # a 4-node scatter basis is a couple dozen labels: the exact-LU
        # crash setup would cost more than the cold tableau solve, so
        # replan takes the incremental-LP path without it
        g = complete(4)
        nodes = g.nodes()
        sol = solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                               backend="exact", cache=False)
        basis = sol.lp_solution.basis_labels
        assert basis is not None
        assert len(basis) < WARM_BASIS_MIN_LABELS

    def test_fig9_sits_above(self):
        # fig9 scatter (~108 labels) clears the re-measured floor: its
        # tightening replans crash the old basis into the dual simplex
        sol = solve_collective(_fig9_scatter(), backend="exact", cache=False)
        assert len(sol.lp_solution.basis_labels) >= WARM_BASIS_MIN_LABELS

    def test_x20_tier_sits_above(self):
        g = heterogenize(random_connected(20, extra_edges=24, seed=5), 9)
        nodes = g.compute_nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="exact", cache=False)
        assert len(sol.lp_solution.basis_labels) >= WARM_BASIS_MIN_LABELS
