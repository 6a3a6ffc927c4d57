"""Closed-loop planner benchmark.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 25 --trace 0

Workloads: ``paper_mix``, ``datacenter_scale``, ``baseline_scale`` (see
``workloads.py``).  One client in one process sends the workload's
seeded request stream, each request waiting for its plan: problem ->
exact solution -> ``verify()`` -> ``schedule_collective``, then a bounded
replay (or a replan under a seeded fault, then a faulted replay).  Every
output is checked against an independent reference outside the timed
spans.  LP caches are off, column generation prices with ``jobs=1``, and
native thread pools hold one thread, so the client uses one core; times
are CPU seconds of the client process scaled to a reference core speed
by speed probes around and inside each request (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
request untraced and then through the traced layer decomposition
(checked to give the same plan bit for bit) and prints per-layer totals.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def hold_threads() -> dict:
    """One native thread per pool (at most the CPU count), serial colgen
    pricing, no on-disk LP cache.  Must run before numpy is imported."""
    n = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_LP_CACHE_DIR", None)
    return {"nproc": n, **{v: os.environ[v] for v in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = hold_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import speed
    speed.start()
    t_import = speed.clock()
    try:
        import numpy
        import scipy

        import loop
        import pipeline as pl
        import workloads as wl
    finally:
        factor = speed.stop()
    import_s = (speed.clock() - t_import) * factor

    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick one of {wl.WORKLOADS}")
    setup_s = import_s + statistics.median(
        loop.setup(args.workload, args.seed) for _ in range(loop.SETUP_REPS))

    print(f"# env nproc={env['nproc']} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"threads=OMP:{env['OMP_NUM_THREADS']},OPENBLAS:"
          f"{env['OPENBLAS_NUM_THREADS']},MKL:{env['MKL_NUM_THREADS']} "
          f"colgen_jobs=1 lp_cache=off(cache=False,no REPRO_LP_CACHE_DIR,"
          f"memo cleared per request) replay_target={pl.TARGET} "
          f"replay_budget={pl.BUDGET}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} clients=1 (closed loop) "
          f"digest={wl.instance_digest(args.workload, args.seed)[:16]}")

    run = loop.Run(bool(args.trace))
    run.drive(args.workload, args.seed, args.seconds)

    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    print(f"# requests attempted={run.attempted} failed={len(run.failures)} "
          f"cold_plans={len(run.plan_s)} replans={len(run.replan_s)} "
          f"replays={run.replays} replay_events={run.replay_events}")
    for name, (value, unit) in {**metrics, **run.extra()}.items():
        n = run.samples(name)
        share = ""
        if args.trace and unit == "s" and name in metrics:
            share = f" ({100 * value / run.traced_s:.1f}% of traced request time)"
        print(f"metric {name} = {value:.6g} {unit}"
              + (f" (n={n})" if n else "") + share
              + f" [attempted={run.attempted}]")
    for line in run.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
