"""Figures 2-4: the toy Series-of-Scatters example.

- Figure 2: ``SSSP(G)`` on the 5-node platform; paper optimum TP = 1/2
  (6 messages per target every 12 time-units).
- Figure 3: decomposition of the communication bipartite graph into
  weighted matchings (the paper exhibits 4 over a period of 12).
- Figure 4: the two schedule variants — messages split across slots
  (paper period 12) and no-split (paper period 48, i.e. 4x).
"""

from fractions import Fraction

from repro.collectives import schedule_collective, solve_collective
from repro.core.matching import decompose_matchings
from repro.core.scatter import ScatterProblem
from repro.platform.examples import figure2_platform, figure2_targets
from repro.sim.executor import simulate_collective


def _problem():
    return ScatterProblem(figure2_platform(), "Ps", figure2_targets())


def test_fig2_lp_throughput(benchmark, report):
    problem = _problem()
    sol = benchmark(lambda: solve_collective(problem, backend="exact"))
    report.row("Fig 2: steady-state scatter throughput TP", "1/2",
               sol.throughput)
    report.row("Fig 2: messages per target per 12 time-units", 6,
               sol.throughput * 12)
    for k in figure2_targets():
        delivered = sum(w for _, w in sol.paths[k])
        report.row(f"Fig 2: delivered rate for m[{k}]", "1/2", delivered)
    assert sol.throughput == Fraction(1, 2)
    assert sol.verify() == []


def test_fig3_matching_decomposition(benchmark, report):
    # the paper's Figure 3 bipartite graph (period-12 occupation times)
    edges = [(("S", "Ps"), ("R", "Pa"), 3), (("S", "Ps"), ("R", "Pb"), 9),
             (("S", "Pa"), ("R", "P0"), 2), (("S", "Pb"), ("R", "P0"), 4),
             (("S", "Pb"), ("R", "P1"), 8)]
    ms = benchmark(lambda: decompose_matchings(list(edges), cap=12))
    real = [m for m in ms if m.pairs]
    report.row("Fig 3: number of matchings", 4, len(real),
               "any count <= |E| is valid; durations must sum to 12")
    report.row("Fig 3: total matching duration", 12,
               sum((m.duration for m in ms), 0))
    assert sum((m.duration for m in ms), 0) == 12
    assert len(real) <= 5


def test_fig4_schedules(benchmark, report):
    problem = _problem()
    # canonical: the asserted periods pin one optimal vertex's schedule
    sol = solve_collective(problem, backend="exact", canonical=True)
    sched = benchmark(lambda: schedule_collective(sol))
    nosplit = sched.without_splits()
    report.row("Fig 4a: period with split messages", 12, sched.period,
               "our LP vertex routes all m0 via Pa, so a smaller period works")
    report.row("Fig 4b: no-split period / split period", "4x",
               f"{nosplit.period // sched.period}x")
    report.row("Fig 4: schedule one-port violations", 0,
               len(sched.validate()) + len(nosplit.validate()))
    assert sched.validate() == [] and nosplit.validate() == []
    # both schedules deliver at the same steady rate
    res = simulate_collective(sched, problem, n_periods=40, record_trace=False)
    res2 = simulate_collective(nosplit, problem, n_periods=40 * int(sched.period)
                               // int(nosplit.period) + 2, record_trace=False)
    assert res.errors == [] and res2.errors == []
    report.row("Fig 4: simulated throughput (split schedule)", "1/2",
               round(float(res.measured_throughput()), 4))
