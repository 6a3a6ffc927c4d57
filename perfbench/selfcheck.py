"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Seeded generation: one seed gives an identical instance digest on
   every workload, and another seed a different one.
2. Traced-path equivalence: the traced decomposition
   (``spec.build_lp`` -> ``repro.lp.solve(..., pricing=...)`` ->
   ``spec.extract``, with the composite ``mode`` set as
   ``CompositeCollectiveSpec.solve`` sets it) gives the same plan as
   ``solve_collective`` bit for bit -- TP, send rates and schedule -- on
   single-LP, joint, pipelined and sequential specs, a classical
   baseline, and each LP route (tableau, revised, colgen).

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import sys
from itertools import islice

import run


def equivalence_cases(wl):
    cases = [r for r in islice(wl.stream("paper_mix", 1), wl.CYCLE["paper_mix"])
             if r.kind == "plan"]
    ring = wl.ring_platform(64, [1] * 64, "ring64")
    cases.append(wl.plan_request("ring64:scatter", "scatter", ring, ring.nodes()))
    c10 = wl.complete_platform(10, "complete10")
    cases.append(wl.plan_request("complete10:reduce", "reduce", c10,
                                 [c10.nodes()[0]] + c10.nodes(),
                                 collective="reduce"))
    cases += [r for r in islice(wl.stream("baseline_scale", 1),
                                wl.CYCLE["baseline_scale"])
              if r.label.startswith(("cluster8x", "ring32"))]
    return cases


def main() -> int:
    run.hold_threads()
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import pipeline as pl
    import workloads as wl

    failed = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failed
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for w in wl.WORKLOADS:
        a, b = wl.instance_digest(w, 1), wl.instance_digest(w, 1)
        report(a == b, f"{w}: seed 1 digest is reproducible")
        report(a != wl.instance_digest(w, 2), f"{w}: seed 2 digest differs")

    for req in equivalence_cases(wl):
        sol, _bad, sched = pl.plan_untraced(req.build(), req)
        rec = pl.Recorder()
        sol2, _bad2, sched2 = pl.plan_traced(req.build(), req, rec)
        routes = sorted(k for k in rec.seconds if k.startswith(
            ("lp.solve_s.", "collectives.solve_s", "baselines.solve_s")))
        report(pl.solution_digest(sol, sched) == pl.solution_digest(sol2, sched2),
               f"{req.label}: traced plan == solve_collective plan "
               f"(TP {sol.throughput}; {', '.join(routes)})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
