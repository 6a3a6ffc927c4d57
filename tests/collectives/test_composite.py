"""The composition layer: joint LPs, sequential phases, schedule
superposition/concatenation, and chained simulator semantics."""

from fractions import Fraction

import pytest

from repro.collectives import (
    CompositeCollectiveSpec,
    compose_joint_lp,
    get_collective,
    register_collective,
    schedule_collective,
    solve_collective,
    unregister_collective,
)
from repro.core.allgather import AllGatherProblem
from repro.core.allreduce import AllReduceProblem
from repro.core.broadcast import BroadcastProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.core.scatter import ScatterProblem
from repro.lp import solve as lp_solve
from repro.platform.examples import figure2_platform, figure6_platform
from repro.platform.generators import complete
from repro.sim.executor import simulate_collective


class TestComposeJointLP:
    def test_joint_reduces_equal_hand_built_reduce_scatter(self):
        """The generic joint composition of n per-block reduces must reach
        the same optimum as the hand-built SSRS LP of PR 2."""
        tri = figure6_platform()
        parts = [0, 1, 2]
        stage_lps = [
            get_collective("reduce").build_lp(
                ReduceProblem(tri, parts, target=parts[b]))
            for b in range(3)
        ]
        joint = compose_joint_lp("joint-reduces", stage_lps)
        a = lp_solve(joint, backend="exact")
        b = solve_collective(ReduceScatterProblem(tri, parts),
                             backend="exact")
        assert a.optimal
        assert a.by_name("TP") == b.throughput

    def test_capacity_rows_are_shared_not_duplicated(self):
        tri = figure6_platform()
        lps = [get_collective("broadcast").build_lp(
            BroadcastProblem(tri, s, [p for p in (0, 1, 2) if p != s]))
            for s in (0, 1, 2)]
        joint = compose_joint_lp("joint-bcast", lps)
        names = [c.name for c in joint.constraints]
        # one shared out[p] row per node, not one per stage
        assert names.count("out[0]") == 1
        assert names.count("in[0]") == 1
        # per-stage structural rows are prefixed
        assert any(n.startswith("s1:conserve[") for n in names)

    def test_rejects_malformed_capacity_rows(self):
        from repro.lp import LinearProgram

        lp = LinearProgram("bad")
        x = lp.var("x")
        lp.add(x <= 2, name="out[0]")  # constant is -2, not -1
        lp.maximize(lp.var("TP"))
        with pytest.raises(ValueError, match="normalized"):
            compose_joint_lp("joint", [lp])


class TestJointCompositeOfScatters:
    """An ad-hoc joint composite built from already-registered stages:
    the composition layer is not special-cased to the built-ins."""

    def _spec(self):
        class TwinScatter(CompositeCollectiveSpec):
            name = "twin-scatter"
            title = "two scatters sharing the fig2 ports"
            problem_type = ScatterProblem
            mode = "joint"
            resolve_by_type = False

            def stages(self, problem):
                return [("scatter", problem), ("scatter", problem)]

        return TwinScatter()

    def test_two_scatters_share_the_source_port(self):
        spec = self._spec()
        register_collective(spec)
        try:
            p = ScatterProblem(figure2_platform(), "Ps", ["P0", "P1"])
            sol = solve_collective(p, collective="twin-scatter",
                                   backend="exact")
            # one scatter alone reaches 1/2; two concurrent ones halve it
            assert sol.throughput == Fraction(1, 4)
            assert sol.verify() == []
            sched = schedule_collective(sol)
            assert sched.validate() == []
            res = simulate_collective(sched, p, n_periods=25,
                                      collective="twin-scatter")
            assert res.correct
            assert res.completed_ops() > 0
        finally:
            unregister_collective("twin-scatter")


class TestSequentialComposition:
    def test_harmonic_throughput_identity(self):
        tri = figure6_platform()
        p = AllReduceProblem(tri, [0, 1, 2])
        sol = solve_collective(p, backend="exact")
        rs = solve_collective(ReduceScatterProblem(tri, [0, 1, 2]),
                              backend="exact")
        ag = solve_collective(AllGatherProblem(tri, [0, 1, 2]),
                              backend="exact")
        assert sol.throughput == \
            1 / (1 / Fraction(rs.throughput) + 1 / Fraction(ag.throughput))

    def test_phase_scaled_occupation_fits_one_port(self):
        """Sequential composite send rates are long-run averages: the
        union must still respect the one-port budget."""
        p = AllReduceProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(p, backend="exact")
        for o in sol.edge_occupation().values():
            assert 0 < o <= 1

    def test_concatenated_schedule_period_is_sum_of_phases(self):
        p = AllReduceProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(p, backend="exact")
        sched = schedule_collective(sol)
        spec = get_collective("all-reduce")
        stage_periods = []
        n_ops = sched.throughput * sched.period
        for (sspec, _sub), s in zip(spec.stage_specs(p),
                                    sol.stage_solutions):
            ssched = sspec.build_schedule(s)
            ops = ssched.throughput * ssched.period
            stage_periods.append(ssched.period * (n_ops / ops))
        assert sched.period == sum(stage_periods)
        assert sched.throughput == sol.throughput

    def test_simulation_chains_reduced_values_into_all_gather(self):
        """Every all-gather delivery in the composite simulation must carry
        the full non-commutative reduction — proving stage chaining, not
        just per-stage correctness."""
        from repro.sim.operators import SeqConcat

        p = AllReduceProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(p, backend="exact")
        sched = schedule_collective(sol)
        sem = get_collective("all-reduce").simulation(sched, p, op=SeqConcat)
        # stage 1 delivery items are tagged ("stg", 1, <all-gather item>)
        stage1 = [it for it in sched.deliveries if it[1] == 1]
        assert stage1
        for it in stage1:
            assert sem.expected(it, 3) == SeqConcat.expected(3, 3)
        res = simulate_collective(sched, p, n_periods=25)
        assert res.correct and res.completed_ops() > 0

    def test_sequential_composite_has_no_single_lp(self):
        spec = get_collective("all-reduce")
        with pytest.raises(NotImplementedError, match="sequential"):
            spec.build_lp(AllReduceProblem(figure6_platform(), [0, 1, 2]))


class TestCompleteTier:
    """The complete-graph tier: symmetric platforms with known optima."""

    def test_all_gather_complete4(self):
        g = complete(4, cost=1)
        p = AllGatherProblem(g, g.nodes())
        sol = solve_collective(p, backend="exact")
        # every node receives n-1 = 3 blocks through one in-port: TP <= 1/3,
        # and a ring rotation achieves it
        assert sol.throughput == Fraction(1, 3)
        assert sol.verify() == []
        sched = schedule_collective(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, p, n_periods=20)
        assert res.correct

    def test_all_reduce_complete4(self):
        g = complete(4, cost=1)
        p = AllReduceProblem(g, g.nodes())
        sol = solve_collective(p, backend="exact")
        assert sol.exact and sol.throughput > 0
        assert sol.verify() == []
        rs, ag = sol.stage_solutions
        assert sol.throughput == \
            1 / (1 / Fraction(rs.throughput) + 1 / Fraction(ag.throughput))
        res = simulate_collective(schedule_collective(sol), p, n_periods=12)
        assert res.correct and res.completed_ops() > 0


class TestCompositeReporting:
    def test_rates_table_renders_stage_labels(self):
        from repro.viz.tables import rates_table

        p = AllGatherProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(p, backend="exact")
        table = rates_table(sol)
        assert "s0:broadcast" in table and "s2:broadcast" in table

    def test_composition_table_shows_phase_shares(self):
        from repro.viz.tables import composition_table

        p = AllReduceProblem(figure6_platform(), [0, 1, 2])
        sol = solve_collective(p, backend="exact")
        table = composition_table(sol)
        assert "reduce-scatter" in table and "all-gather" in table
        assert "of period" in table  # sequential: phase fractions
        ag = solve_collective(AllGatherProblem(figure6_platform(),
                                               [0, 1, 2]), backend="exact")
        assert "full period" in composition_table(ag)  # joint: concurrent

    def test_ops_bound_factor_sums_stages(self):
        p = AllReduceProblem(figure6_platform(), [0, 1, 2])
        spec = get_collective("all-reduce")
        # reduce-scatter: 3 block streams; all-gather: 3 blocks x 2 targets
        assert spec.ops_bound_factor(p) == 3 + 6
