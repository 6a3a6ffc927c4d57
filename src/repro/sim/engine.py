"""The simulation-engine selector.

:func:`resolve_sim_engine` is the single place that decides which
periodic-replay implementation a simulation request runs on — the
per-instance reference executor (:mod:`repro.sim.executor`) or the
vectorized compiled engine (:mod:`repro.sim.compiled`).  Those two are
the only replay code in the library.  The compiled engine counts
instances instead of carrying payloads, so it takes exactly the replays
whose payloads the schedule fixes: pure communication, and unchained
reductions under a static merge certificate
(:func:`repro.sim.compiled.merge_certificate`).
"""

from __future__ import annotations

from typing import Optional

SIM_ENGINES = ("auto", "compiled", "reference")


def resolve_sim_engine(engine: str, schedule, combine=None,
                       record_trace: bool = False,
                       faulted: bool = False) -> str:
    """Pick the replay implementation for one simulation request.

    The selection rule (documented next to the chaining contract in
    ROADMAP.md): ``auto`` picks the compiled engine exactly when the
    replay is *count-exact* — the schedule's times are exact rationals,
    no per-event trace was requested, numpy is importable, and any
    compute tasks pass the merge certificate (no chain links, one
    producer and one consumer per ``(node, item)`` key, in-order adjacent
    merges, leaf supplies) and the run is not ``faulted`` (a dead
    resource mis-pairs a reduction's stamps, which only per-instance
    replay sees).  ``combine`` needs no check of its own: without compute
    tasks it is never applied.  ``compiled`` insists and raises with the
    disqualifying reason; ``reference`` always wins.
    """
    if engine not in SIM_ENGINES:
        raise ValueError(f"unknown sim engine {engine!r}; "
                         f"pick one of {SIM_ENGINES}")
    if engine == "reference":
        return "reference"
    reason = _compiled_unsupported(schedule, record_trace, faulted)
    if engine == "compiled":
        if reason is not None:
            raise ValueError(f"engine='compiled' cannot replay "
                             f"{schedule.name!r}: {reason}")
        return "compiled"
    return "reference" if reason is not None else "compiled"


def _compiled_unsupported(schedule, record_trace, faulted) -> Optional[str]:
    """Why the compiled engine cannot take this request (None == it can)."""
    if record_trace:
        return "per-event trace recording needs the reference executor"
    if faulted and schedule.compute:
        return "faulted replays of computing schedules need the " \
               "reference executor"
    try:
        from repro.sim.compiled import compile_unsupported
    except ImportError:
        return "numpy is not available"
    return compile_unsupported(schedule)
