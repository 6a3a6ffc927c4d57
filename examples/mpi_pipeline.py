#!/usr/bin/env python3
"""The mpi4py-flavoured façade: makespan vs steady-state throughput.

An application issuing collectives through an MPI-like library cares about
one number when it calls ``reduce`` once — the makespan — and a different
one when it calls it in a loop: the pipelined throughput.  ``SimComm``
exposes both over the same platform, which makes the paper's motivation
measurable in five lines.

Run:  python examples/mpi_pipeline.py
"""

from repro.mpi.comm import SimComm
from repro.platform.examples import figure6_platform
from repro.sim.operators import SeqConcat


def main() -> None:
    comm = SimComm(figure6_platform())
    print(f"communicator of size {comm.size()} on {comm.platform!r}\n")

    # single-shot semantics (what classical collective algorithms optimize):
    # the first operation of the flat-tree baseline schedule; its merges
    # are priced into the baseline's rate, not into this makespan
    values = [SeqConcat.leaf(j, stamp=0) for j in range(comm.size())]
    result, makespan = comm.reduce(values, root=0)
    print(f"single flat-tree reduce: result={result}, "
          f"makespan (last arrival at the root)={float(makespan):.2f}")
    print(f"  -> naive series rate = 1/makespan = {1 / float(makespan):.3f} "
          f"ops/time-unit")

    # pipelined series semantics (what this paper optimizes)
    report = comm.reduce_series(root=0, n_periods=60)
    print(f"\npipelined series of reduces:")
    print(f"  LP throughput bound  : {float(report.lp_throughput):.3f}")
    print(f"  measured throughput  : {report.measured_throughput:.3f}")
    print(f"  completed operations : {report.completed_ops}")
    print(f"  results correct      : {report.correct}")

    speedup = report.measured_throughput * float(makespan)
    print(f"\npipelining speedup over repeated single reduces: "
          f"{speedup:.2f}x")


if __name__ == "__main__":
    main()
