"""Unit tests for the Series-of-Gossips pipeline (Section 3.5)."""

from fractions import Fraction

import pytest

from repro.collectives import schedule_collective, solve_collective
from repro.core.gossip import GossipProblem
from repro.platform.generators import complete, ring


class TestProblem:
    def test_pairs_skip_diagonal(self, ring6):
        nodes = ring6.nodes()[:3]
        problem = GossipProblem(ring6, nodes, nodes)
        assert len(problem.pairs()) == 6

    def test_duplicate_source_rejected(self, ring6):
        nodes = ring6.nodes()
        with pytest.raises(ValueError):
            GossipProblem(ring6, [nodes[0], nodes[0]], nodes[:2])

    def test_needs_nontrivial_pair(self, ring6):
        n = ring6.nodes()[0]
        with pytest.raises(ValueError):
            GossipProblem(ring6, [n], [n])

    def test_unknown_node_rejected(self, ring6):
        with pytest.raises(ValueError):
            GossipProblem(ring6, ["nope"], ring6.nodes()[:1])


class TestSolve:
    def test_complete_graph_all_to_all(self):
        g = complete(3, cost=1)
        nodes = g.nodes()
        problem = GossipProblem(g, nodes, nodes)
        sol = solve_collective(problem, backend="exact")
        # each node must send 2 and receive 2 unit messages per op
        assert sol.throughput == Fraction(1, 2)
        assert sol.verify() == []

    def test_ring_gossip(self):
        g = ring(4, cost=1)
        nodes = g.nodes()
        problem = GossipProblem(g, nodes, nodes)
        sol = solve_collective(problem, backend="exact")
        assert sol.throughput > 0
        assert sol.verify() == []

    def test_scatter_as_degenerate_gossip(self, fig2):
        # one source, the scatter targets: gossip == scatter
        problem = GossipProblem(fig2, ["Ps"], ["Ps", "P0", "P1"])
        sol = solve_collective(problem, backend="exact")
        assert sol.throughput == Fraction(1, 2)

    def test_gather_as_reverse_gossip(self):
        # many sources, one target: the symmetric counterpart
        g = complete(3, cost=1)
        nodes = g.nodes()
        problem = GossipProblem(g, nodes, [nodes[0]])
        sol = solve_collective(problem, backend="exact")
        # p0 receives 2 unit messages per op through one port
        assert sol.throughput == Fraction(1, 2)

    def test_paths_cover_demand(self):
        g = complete(3, cost=1)
        nodes = g.nodes()
        sol = solve_collective(GossipProblem(g, nodes, nodes), backend="exact")
        for (k, l), paths in sol.paths.items():
            assert sum(w for _, w in paths) == sol.throughput


class TestSchedule:
    def test_schedule_valid_and_consistent(self):
        g = complete(3, cost=1)
        nodes = g.nodes()
        sol = solve_collective(GossipProblem(g, nodes, nodes), backend="exact")
        sched = schedule_collective(sol)
        assert sched.validate() == []
        assert sched.ops_per_period() == sched.throughput * sched.period

    def test_simulation_delivers_and_validates(self):
        from repro.sim.executor import simulate_collective

        g = complete(3, cost=1)
        nodes = g.nodes()
        problem = GossipProblem(g, nodes, nodes)
        sol = solve_collective(problem, backend="exact")
        sched = schedule_collective(sol)
        res = simulate_collective(sched, problem, n_periods=30)
        assert res.correct
        bound = float(sol.throughput) * float(res.horizon)
        assert res.completed_ops() >= 0.7 * bound
