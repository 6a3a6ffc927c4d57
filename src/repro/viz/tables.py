"""Fixed-width result tables for benchmark and CLI output.

Benchmarks print paper-reported values next to measured ones; this keeps
the formatting in one place so every experiment reads the same way.
:func:`rates_table` renders any collective solution's send rates by
dispatching the row formatting through the solution's registered spec.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Monospace table with a header rule; cells stringified as-is."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    out: List[str] = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def rates_table(solution, title: str = "send rates") -> str:
    """Send-rates table of any collective solution (registry-dispatched).

    The solution's spec chooses the headers and the per-commodity labels,
    so every collective — including ones registered by downstream code —
    renders through the same path.
    """
    headers, rows = solution.spec.rate_rows(solution)
    return format_table(headers, rows, title=title)


def degradation_table(report, run=None, title: str = "degradation") -> str:
    """What a platform perturbation cost, in one metric/value table.

    ``report`` is a :class:`repro.lp.resolve.ReplanReport`; pass the
    :class:`repro.sim.faults.FaultedRun` as ``run`` to append the
    simulator-side view (schedule switch time, post-switch measured
    steady throughput).
    """
    rows = [("events", report.delta.describe()),
            ("TP before", report.base_throughput),
            ("TP after", report.throughput),
            ("replan path", "warm (basis crashed)" if report.warm
             else "cold"),
            ("replan latency", f"{report.replan_s * 1e3:.1f} ms")]
    if report.cold_s is not None:
        rows.append(("cold solve", f"{report.cold_s * 1e3:.1f} ms"))
        rows.append(("speedup", f"{report.speedup:.2f}x"))
    rows.append(("sacrificed",
                 ", ".join(str(n) for n in report.sacrificed) or "none"))
    if run is not None:
        from repro.sim.faults import steady_window_throughput

        for sw in run.result.switches:
            rows.append(("schedule switch",
                         f"t={sw['time']} ({sw['mode']})"))
        if run.result.abandoned:
            rows.append(("abandoned", str(len(run.result.abandoned))))
        rows.append(("steady TP (measured)",
                     steady_window_throughput(run)))
    return format_table(["metric", "value"], rows, title=title)


def composition_table(solution, title: str = "composition") -> str:
    """Stage breakdown of a composed collective solution.

    One row per stage: its registered collective, the composition mode
    that produced the solution, its own throughput, and the share of the
    steady state it occupies — the phase fraction ``TP / TP_k`` for
    sequential composites, ``full period`` for joint and pipelined ones
    (all stages run concurrently, chained for pipelined).
    """
    spec = solution.spec
    mode = getattr(solution, "mode", "") or getattr(spec, "mode", "joint")
    sequential = mode == "sequential"
    rows = []
    for k, s in enumerate(solution.stage_solutions or ()):
        share = (f"{solution.throughput / s.throughput} of period"
                 if sequential else "full period")
        rows.append((f"s{k}", s.collective, mode, s.throughput, share))
    return format_table(["stage", "collective", "mode", "TP", "share"], rows,
                        title=title)


def gap_table(rows, title: str = "optimality gaps: steady-state LP vs classical baselines") -> str:
    """Exact-rational optimality-gap table of :func:`repro.tune.tune` rows.

    One row per (instance, baseline): the classical algorithm's analytic
    pipelined rate, the LP optimum, their exact ratio (``>= 1`` — every
    baseline plan is LP-feasible), and whether the simulated replay
    reproduced the analytic rate bit-exactly.
    """
    table = []
    for r in rows:
        gap = f"{r.gap} ({float(r.gap):.2f}x)"
        sim = f"exact ({r.engine})" if r.sim_matches \
            else f"MISMATCH {r.sim_tp} ({r.engine})"
        table.append((r.topology, r.collective, r.baseline, r.n_rounds,
                      r.baseline_tp, r.lp_tp, gap, sim))
    return format_table(
        ["topology", "collective", "baseline", "rounds", "TP(baseline)",
         "TP(LP)", "gap", "sim"],
        table, title=title)
