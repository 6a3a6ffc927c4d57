"""Unit tests for the simulated MPI communicator."""

import pytest

from repro.mpi.comm import SimComm
from repro.platform.examples import figure6_platform
from repro.platform.generators import complete
from repro.sim.operators import SeqConcat, noncommutative_reduce


@pytest.fixture
def comm():
    return SimComm(figure6_platform())


class TestConstruction:
    def test_default_ranks_are_compute_nodes(self, comm):
        assert comm.size() == 3
        assert comm.node_of(0) == 0

    def test_too_few_ranks_rejected(self):
        g = complete(2)
        with pytest.raises(ValueError):
            SimComm(g, ranks=[g.nodes()[0]])

    def test_unknown_rank_node_rejected(self):
        with pytest.raises(ValueError):
            SimComm(figure6_platform(), ranks=[0, "nope"])


class TestSingleShot:
    def test_scatter_values_and_makespan(self, comm):
        values = ["x", "y", "z"]
        out, makespan = comm.scatter(values, root=0)
        assert out == values
        assert makespan == 2  # op 0 of the direct-scatter schedule

    def test_scatter_wrong_arity(self, comm):
        with pytest.raises(ValueError):
            comm.scatter(["a"], root=0)

    def test_reduce_matches_reference(self, comm):
        values = [SeqConcat.leaf(j, 0) for j in range(3)]
        result, makespan = comm.reduce(values, root=0)
        assert result == noncommutative_reduce(values)
        # op 0's last arrival on the flat-tree schedule; merges are priced
        # into the baseline's rate, not replayed
        assert makespan == 2


class TestSeries:
    def test_scatter_series_reaches_lp_rate(self, comm):
        report = comm.scatter_series(root=0, n_periods=50)
        assert report.correct
        assert report.measured_throughput <= float(report.lp_throughput) + 1e-9
        assert report.measured_throughput >= 0.8 * float(report.lp_throughput)

    def test_reduce_series_reaches_lp_rate(self, comm):
        report = comm.reduce_series(root=0, n_periods=50)
        assert report.correct
        assert float(report.lp_throughput) == 1.0  # the Figure 6 optimum
        assert report.measured_throughput >= 0.8

    def test_series_throughput_beats_single_shot_rate(self, comm):
        """The whole point of the paper: pipelining beats repeating the
        makespan-optimal single operation."""
        values = [SeqConcat.leaf(j, 0) for j in range(3)]
        _res, makespan = comm.reduce(values, root=0)
        single_rate = 1.0 / float(makespan)
        report = comm.reduce_series(root=0, n_periods=60)
        assert report.measured_throughput > single_rate
