"""repro — steady-state throughput optimization of scatter and reduce
operations on heterogeneous platforms.

Reproduction of Legrand, Marchal, Robert, *"Optimizing the steady-state
throughput of scatter and reduce operations on heterogeneous platforms"*
(INRIA RR-4872, 2003 / IPPS 2004).

Quickstart::

    from repro.platform import figure2_platform
    from repro.core import ScatterProblem
    from repro.collectives import schedule_collective, solve_collective
    from repro.sim.executor import simulate_collective

    problem = ScatterProblem(figure2_platform(), "Ps", ["P0", "P1"])
    solution = solve_collective(problem)        # TP == 1/2, exact
    schedule = schedule_collective(solution)    # periodic one-port schedule
    result = simulate_collective(schedule, problem, n_periods=50)
    assert result.correct

Every collective runs this one chain — steady-state LP, periodic
one-port schedule, replay — with the spec resolved from the problem type
(:mod:`repro.collectives`).  ``benchmarks/`` holds the paper-vs-measured
record of every figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
