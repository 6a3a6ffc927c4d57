"""The new reduce-scatter collective: LP structure, per-block trees,
schedule superposition, and a value-checked simulation."""

from fractions import Fraction

import pytest

from repro.collectives import solve_collective
from repro.core.reduce_scatter import (
    ReduceScatterProblem,
    build_reduce_scatter_lp,
    build_reduce_scatter_schedule,
)
from repro.core.trees import trees_weight_sum
from repro.platform.examples import figure6_platform, triangle_platform
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod


@pytest.fixture(scope="module")
def tri_solution():
    problem = ReduceScatterProblem(figure6_platform(), [0, 1, 2])
    return problem, solve_collective(problem, backend="exact")


class TestProblem:
    def test_block_targets(self):
        p = ReduceScatterProblem(figure6_platform(), [2, 0, 1])
        assert p.n_values == 3
        assert [p.block_target(b) for b in p.blocks] == [2, 0, 1]
        assert p.owner(0) == 2

    def test_block_problem_projection(self):
        p = ReduceScatterProblem(figure6_platform(), [0, 1, 2], msg_size=3)
        bp = p.block_problem(1)
        assert bp.target == 1
        assert bp.participants == (0, 1, 2)
        assert bp.size((0, 2)) == 3

    def test_validation_delegates_to_reduce(self):
        with pytest.raises(ValueError):
            ReduceScatterProblem(figure6_platform(), [0])  # < 2 participants
        with pytest.raises(ValueError):
            ReduceScatterProblem(figure6_platform(), [0, 0, 1])  # duplicate


class TestLP:
    def test_block_targets_never_reemit_their_result(self):
        p = ReduceScatterProblem(figure6_platform(), [0, 1, 2])
        lp = build_reduce_scatter_lp(p)
        # block 1's full result leaving node 1 must not exist
        with pytest.raises(KeyError):
            lp.get("send[1->0,b1:v[0,2]]")
        # but block 0's full result may leave node 1
        lp.get("send[1->0,b0:v[0,2]]")

    def test_triangle_throughput_positive_and_bounded(self, tri_solution):
        _, sol = tri_solution
        assert 0 < sol.throughput <= 1
        assert sol.exact


class TestSolutionStructure:
    def test_verify_clean(self, tri_solution):
        _, sol = tri_solution
        assert sol.verify() == []

    def test_per_block_trees_decompose_full_throughput(self, tri_solution):
        _, sol = tri_solution
        trees = sol.extract()
        assert set(trees) == {0, 1, 2}
        for b, block_trees in trees.items():
            assert trees_weight_sum(block_trees) == sol.throughput

    def test_block_projection_is_valid_reduce_solution(self, tri_solution):
        _, sol = tri_solution
        for b in (0, 1, 2):
            block = sol.block_solution(b)
            # conservation/throughput hold per block; only the shared
            # port/alpha capacities may exceed a single block's budget
            bad = block.verify()
            assert [v for v in bad if "conserve" in v or "throughput" in v] == []

    def test_alpha_within_capacity(self, tri_solution):
        p, sol = tri_solution
        for h in p.compute_hosts():
            assert 0 <= sol.alpha(h) <= 1


class TestScheduleAndSimulation:
    def test_schedule_validates(self, tri_solution):
        _, sol = tri_solution
        sched = build_reduce_scatter_schedule(sol)
        assert sched.validate() == []
        assert sched.throughput == sol.throughput
        # one delivery stream per (block, tree)
        trees = sol.extract()
        assert len(sched.deliveries) == sum(len(t) for t in trees.values())

    def test_simulation_is_correct_and_near_bound(self, tri_solution):
        p, sol = tri_solution
        sched = build_reduce_scatter_schedule(sol)
        res = simulate_collective(sched, p, n_periods=40)
        assert res.correct
        # per-block delivered counts: each block must be served ~TP per
        # time-unit after warm-up
        per_block = {}
        for item, times in res.delivery_times.items():
            _tag, _interval, (b, _r) = item
            per_block[b] = per_block.get(b, 0) + len(times)
        assert set(per_block) == set(p.blocks)
        bound = float(sol.throughput) * float(res.horizon)
        for b, count in per_block.items():
            assert count <= bound + 1e-9
            assert count >= bound * 0.7  # warm-up slack

    def test_simulation_with_matrix_operator(self, tri_solution):
        p, sol = tri_solution
        sched = build_reduce_scatter_schedule(sol)
        res = simulate_collective(sched, p, n_periods=20, op=MatMul2x2Mod)
        assert res.correct


class TestHeterogeneousVariant:
    def test_skewed_triangle(self):
        p = ReduceScatterProblem(triangle_platform(speeds=(4, 1, 1),
                                                   cost=Fraction(1, 2)),
                                 [0, 1, 2], msg_size=1, task_work=2)
        sol = solve_collective(p, backend="exact")
        assert sol.verify() == []
        sched = build_reduce_scatter_schedule(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, p, n_periods=25)
        assert res.correct
