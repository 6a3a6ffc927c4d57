"""``verify()`` of the flow collectives: an exact optimum passes, and
perturbing a single rate yields exactly the expected violation strings
(capacity messages aside, which depend on link costs)."""

from fractions import Fraction

from repro.collectives import solve_collective
from repro.core.broadcast import BroadcastProblem
from repro.core.gossip import GossipProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.core.scatter import ScatterProblem
from repro.platform.examples import figure2_platform, figure6_platform

PORT_PREFIXES = ("edge[", "out[", "in[")


def _flow_violations(sol):
    return [m for m in sol.verify() if not m.startswith(PORT_PREFIXES)]


def test_scatter_relay_and_delivery_violations():
    sol = solve_collective(ScatterProblem(figure2_platform(), "Ps",
                                          ["P0", "P1"]),
                           backend="exact", cache=False)
    assert sol.throughput == Fraction(1, 2) and sol.verify() == []
    sol.send[("Pa", "P0", "P0")] += Fraction(1, 8)
    assert _flow_violations(sol) == [
        "conserve[Pa,mP0] in 1/2 != out 5/8",
        "throughput[mP0] 5/8 != 1/2",
    ]


def test_reduce_conservation_violations():
    sol = solve_collective(ReduceProblem(figure6_platform(), [0, 1, 2], 0),
                           backend="exact", cache=False)
    assert sol.send[(1, 0, (1, 2))] == 1 and sol.verify() == []
    sol.send[(1, 0, (1, 2))] += Fraction(1, 4)
    # node 1 computes v[1,2] at rate 1 but now sends 5/4; the target
    # receives 5/4 and consumes 1
    assert _flow_violations(sol) == [
        "conserve[0,v(1, 2)] 5/4 != 1",
        "conserve[1,v(1, 2)] 1 != 5/4",
    ]


def test_prefix_conservation_violation():
    sol = solve_collective(ReduceProblem(figure6_platform(), [0, 1, 2], 0),
                           collective="prefix", backend="exact", cache=False)
    assert sol.send[(1, 0, (1, 1))] == 1 and sol.verify() == []
    sol.send[(1, 0, (1, 1))] += Fraction(1, 8)
    # the owner's leaf is exempt at node 1; node 0 consumes it at rate 1
    assert _flow_violations(sol) == ["conserve[0,v(1, 1)] 9/8 != 1"]


def test_gossip_delivery_violation():
    sol = solve_collective(GossipProblem(figure6_platform(), [0, 1], [1, 2]),
                           backend="exact", cache=False)
    assert sol.throughput == Fraction(1, 2) and sol.verify() == []
    sol.send[(0, 2, 0, 2)] += Fraction(1, 4)
    assert _flow_violations(sol) == ["throughput[m(0,2)] 3/4 != 1/2"]


def test_reduce_scatter_block_violations():
    # the tableau's vertex: the messages below name its sends
    sol = solve_collective(ReduceScatterProblem(figure6_platform(),
                                                [0, 1, 2]),
                           backend="tableau", cache=False)
    assert sol.send[(2, 0, 0, (1, 2))] == Fraction(1, 2)
    assert sol.verify() == []
    sol.send[(2, 0, 0, (1, 2))] += Fraction(1, 4)
    assert _flow_violations(sol) == [
        "conserve[0,b0:v(1, 2)] 3/4 != 1/2",
        "conserve[2,b0:v(1, 2)] 1/2 != 3/4",
    ]


def test_broadcast_flow_violations():
    sol = solve_collective(BroadcastProblem(figure2_platform(), "Ps",
                                            ["P0", "P1"]),
                           backend="exact", cache=False)
    assert sol.throughput == Fraction(7, 12) and sol.verify() == []
    sol.flows["P1"][("Pb", "P1")] += Fraction(1, 12)
    assert _flow_violations(sol) == [
        "content[Pb->P1,mP1] flow 2/3 exceeds content 7/12",
        "conserve[Pb,mP1] in 7/12 != out 2/3",
        "throughput[mP1] 2/3 != 7/12",
    ]
