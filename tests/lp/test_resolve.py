"""Replanning after a platform perturbation.

:func:`repro.lp.resolve.replan` rebuilds the collective on the perturbed
platform and re-solves it — warm on the revised engine from the old
basis when that basis is large enough, cold otherwise.  Pinned here:

- every replan returns a bit-identical rational optimum to a cold solve
  of the perturbed problem, whatever the event (degradation, failure,
  node loss with graceful shrinking, node join) and collective;
- the revised engine's dual loop terminates on the heavily dual-
  degenerate reduce LPs a warm crash can enter it on.

The warm-vs-cold *speed* claim lives in ``tests/perf/test_work_pins.py``
(the ``x20_scatter_slow`` tier, where the basis is large enough for
the crash to win); paper-figure LPs are millisecond-scale and assert
correctness only.
"""

from fractions import Fraction

import pytest

from repro.collectives import get_collective, solve_collective
from repro.collectives.degrade import DegradationError, degrade_problem
from repro.core.allreduce import AllReduceProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.lp.presolve import presolve
from repro.lp.resolve import WARM_BASIS_MIN_LABELS, replan
from repro.lp.revised_simplex import RevisedSimplexSolver
from repro.lp.solution import SolveStatus
from repro.platform.examples import (figure6_platform, figure9_participants,
                                     figure9_platform, figure9_target)
from repro.platform.generators import (complete, heterogenize,
                                       random_connected, ring)
from repro.platform.graph import PlatformGraph
from repro.platform.perturb import (LinkDegradation, LinkFailure, NodeFailure,
                                    NodeJoin, perturb)


def _fig9_scatter():
    g = figure9_platform()
    src = figure9_target()
    return ScatterProblem(g, src,
                          [p for p in figure9_participants() if p != src])


def _fig9_reduce():
    return ReduceProblem(figure9_platform(), figure9_participants(),
                         figure9_target(), msg_size=10, task_work=10)


def _fig6_allreduce():
    return AllReduceProblem(figure6_platform(), [0, 1, 2], task_work=2)


#: (problem factory, solve_collective kwargs, one event of each kind)
CASES = {
    "scatter": (_fig9_scatter, {}, {
        "slow": LinkDegradation(2, 8, factor=2),
        "fail": LinkFailure(2, 8),
        "down": NodeFailure(13),
        "join": NodeJoin("px", links=((0, 1), (5, 1))),
    }),
    "reduce": (_fig9_reduce, {"collective": "reduce"}, {
        "slow": LinkDegradation(2, 6, factor=2),
        "fail": LinkFailure(2, 6),
        "down": NodeFailure(13),
        "join": NodeJoin("px", speed=1, links=((0, 1), (5, 1))),
    }),
    "allreduce-pipelined": (_fig6_allreduce,
                            {"collective": "all-reduce",
                             "mode": "pipelined"}, {
        "slow": LinkDegradation(1, 2, factor=2),
        "fail": LinkFailure(1, 2),
        "down": NodeFailure(2),
        "join": NodeJoin("px", speed=1, links=((0, 1), (1, 1))),
    }),
}

@pytest.fixture(scope="module", params=list(CASES))
def solved_case(request):
    """``(pristine exact solution, solve kwargs, events)`` per case."""
    make, kw, events = CASES[request.param]
    return (solve_collective(make(), backend="exact", cache=False, **kw),
            kw, events)


class TestReplanEqualsCold:
    @pytest.mark.parametrize("event", ["slow", "fail", "down", "join"])
    def test_replan_tp_equals_cold_solve(self, solved_case, event):
        sol, kw, events = solved_case
        ev = events[event]
        report = replan(sol, (ev,))
        new_platform, _ = perturb(sol.problem.platform, (ev,))
        problem, sacrificed = degrade_problem(sol.problem, new_platform)
        cold = solve_collective(problem, backend="exact", cache=False, **kw)
        assert report.solution.exact
        assert isinstance(report.throughput, (int, Fraction))
        assert report.throughput == cold.throughput
        assert tuple(report.sacrificed) == tuple(sacrificed)
        assert report.solution.verify() == []
        warm = len(sol.lp_solution.basis_labels) >= WARM_BASIS_MIN_LABELS
        assert report.warm == warm
        if warm:
            assert report.solution.lp_solution.stats["route"] == "revised"


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
        # repair — and still match the cold optimum bit-exactly.  The
        # base plan comes from the tableau, whose vertex loads the
        # degraded link (the revised engine's vertex stays primal
        # feasible under this event)
        g = ring(24, cost=1)
        nodes = g.compute_nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        sol = solve_collective(problem, backend="tableau", cache=False)
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
        # replan solves cold
        g = complete(4)
        nodes = g.nodes()
        sol = solve_collective(ScatterProblem(g, nodes[0], nodes[1:]),
                               backend="exact", cache=False)
        basis = sol.lp_solution.basis_labels
        assert basis is not None
        assert len(basis) < WARM_BASIS_MIN_LABELS
        report = replan(sol, (LinkFailure(nodes[0], nodes[1]),))
        assert not report.warm
        assert report.solution.lp_solution.stats["route"] == "tableau"

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


def _seeded_platform(name, speeds, links):
    g = PlatformGraph(name)
    for i, speed in enumerate(speeds):
        g.add_node(f"n{i}", speed)
    for a, b, cost in links:
        g.add_link(a, b, cost)
    # the copy re-inserts edges source by source, which fixes the
    # predecessor order and with it the LP's coefficient order (the
    # tableau's pivot path, and so the basis replan starts from)
    return g.copy()


#: Two seeded 8-node reduce instances whose tightening replans enter the
#: dual simplex on a presolved ~300-var, ~100-row LP.  The objective
#: prices only the throughput column, so nearly every dual pivot is
#: degenerate; choosing the leaving row by "most infeasible" alone
#: cycled there for thousands of pivots.  (target, participants, event)
DUAL_CYCLERS = {
    "rand8s2r6": (
        _seeded_platform("rand8s2r6", [2, 8, 4, 4, 1, 2, 1, 1], [
            ("n7", "n2", 2), ("n0", "n7", 4), ("n4", "n2", 2),
            ("n5", "n7", 2), ("n1", "n4", 1), ("n6", "n1", 3),
            ("n3", "n7", 2), ("n2", "n0", 3), ("n7", "n1", 3),
            ("n6", "n2", 4), ("n5", "n1", 2)]),
        "n0", ["n0", "n5", "n6", "n3"], LinkDegradation("n3", "n7", 3)),
    "rand8s1r21": (
        _seeded_platform("rand8s1r21", [8, 2, 2, 4, 4, 2, 4, 2], [
            ("n0", "n2", 4), ("n6", "n0", 3), ("n3", "n0", 1),
            ("n5", "n0", 2), ("n4", "n6", 3), ("n1", "n0", 4),
            ("n7", "n1", 2), ("n5", "n2", 4), ("n4", "n7", 3),
            ("n6", "n3", 4), ("n7", "n2", 4)]),
        "n7", ["n7", "n5", "n2", "n0"], LinkDegradation("n1", "n7", 3)),
}


class TestDualTerminates:
    def _solved(self, name):
        g, target, participants, event = DUAL_CYCLERS[name]
        sol = solve_collective(ReduceProblem(g, participants, target),
                               collective="reduce", backend="exact",
                               cache=False)
        return sol, event

    def test_warm_dual_reaches_the_cold_optimum(self):
        # the old basis is dual feasible after the slowdown, so the
        # crash enters the dual loop; Bland's rule for the dual must end
        # it well inside the pivot budget, on the cold optimum
        sol, event = self._solved("rand8s2r6")
        g2, _ = perturb(sol.problem.platform, (event,))
        problem = ReduceProblem(g2, sol.problem.participants,
                                sol.problem.target)
        lp = get_collective("reduce").build_lp(problem)
        cold = solve_collective(problem, collective="reduce",
                                backend="exact", cache=False)
        warm = RevisedSimplexSolver(max_iterations=5000).solve(
            presolve(lp).lp, warm_basis=sol.lp_solution.basis_labels)
        assert warm.status == SolveStatus.OPTIMAL, warm.message
        assert warm.stats["path"] == "warm-dual"
        assert warm.objective == cold.throughput

    @pytest.mark.parametrize("name", sorted(DUAL_CYCLERS))
    def test_replan_finishes_on_the_cold_optimum(self, name):
        sol, event = self._solved(name)
        assert len(sol.lp_solution.basis_labels) >= WARM_BASIS_MIN_LABELS
        report = replan(sol, (event,), compare=True)
        assert report.warm
        assert report.throughput == report.cold_solution.throughput
        assert report.solution.verify() == []
