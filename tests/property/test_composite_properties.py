"""Property-based tests for broadcast and the composed collectives on
random heterogeneous platforms.

Load-bearing guarantees of the composition layer:

- the broadcast LP dominates scatter (content sharing never hurts) and
  its arborescence packing always reconstructs the full throughput with
  edge usage inside the content rates,
- composite schedules never violate one-port (statically and on the
  simulated trace) and respect the LP bound,
- the sequential all-reduce throughput is exactly the harmonic
  composition of its stage throughputs on every instance.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.collectives import schedule_collective, solve_collective
from repro.core.allreduce import AllReduceProblem
from repro.core.broadcast import BroadcastProblem
from repro.core.scatter import ScatterProblem
from repro.platform.generators import heterogenize, random_connected
from repro.sim.executor import simulate_collective


@st.composite
def broadcast_instances(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    extra = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = random_connected(n, extra_edges=extra, seed=seed)
    if draw(st.booleans()):
        g = heterogenize(g, seed=seed, cost_choices=(1, 2, 3),
                         speed_choices=(1,))
    nodes = g.nodes()
    n_targets = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    return BroadcastProblem(g, nodes[0], nodes[1:1 + n_targets])


@st.composite
def allreduce_instances(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    extra = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = heterogenize(random_connected(n, extra_edges=extra, seed=seed),
                     seed=seed, cost_choices=(1, 2), speed_choices=(1, 2))
    nodes = g.nodes()
    n_parts = draw(st.integers(min_value=2, max_value=min(3, n)))
    return AllReduceProblem(g, nodes[:n_parts])


class TestBroadcastProperties:
    @given(broadcast_instances())
    @settings(max_examples=10, deadline=None)
    def test_content_sharing_dominates_scatter(self, problem):
        bc = solve_collective(problem, backend="exact")
        sc = solve_collective(ScatterProblem(problem.platform, problem.source,
                                             problem.targets), backend="exact")
        assert bc.throughput >= sc.throughput
        assert bc.verify() == []

    @given(broadcast_instances())
    @settings(max_examples=8, deadline=None)
    def test_packing_reconstructs_throughput_within_content(self, problem):
        sol = solve_collective(problem, backend="exact")
        arbs = sol.arborescences()
        assert sum(a.weight for a in arbs) == sol.throughput
        usage = {}
        for a in arbs:
            for e in a.edges:
                usage[e] = usage.get(e, 0) + a.weight
        assert all(u <= sol.send[e] for e, u in usage.items())

    @given(broadcast_instances())
    @settings(max_examples=6, deadline=None)
    def test_schedule_and_replicated_simulation(self, problem):
        sol = solve_collective(problem, backend="exact")
        sched = schedule_collective(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, problem, n_periods=15,
                                  collective="broadcast")
        assert res.errors == []
        assert res.one_port_violations == []
        bound = float(sol.throughput) * float(res.horizon) \
            * len(problem.targets)
        assert res.completed_ops() <= bound + 1e-9


class TestAllReduceProperties:
    @given(allreduce_instances())
    @settings(max_examples=6, deadline=None)
    def test_harmonic_composition_holds_everywhere(self, problem):
        sol = solve_collective(problem, collective="all-reduce",
                               backend="exact")
        rs, ag = sol.stage_solutions
        assert sol.throughput == \
            1 / (1 / Fraction(rs.throughput) + 1 / Fraction(ag.throughput))
        assert sol.verify() == []
        assert all(0 < o <= 1 for o in sol.edge_occupation().values())

    @given(allreduce_instances())
    @settings(max_examples=4, deadline=None)
    def test_composed_schedule_simulates_correctly(self, problem):
        sol = solve_collective(problem, collective="all-reduce",
                               backend="exact")
        sched = schedule_collective(sol)
        assert sched.validate() == []
        res = simulate_collective(sched, problem, n_periods=10)
        assert res.errors == []
        assert res.one_port_violations == []
