"""The simulation-engine selector.

:func:`resolve_sim_engine` is the single place that decides which
periodic-replay implementation a simulation request runs on — the
per-instance reference executor (:mod:`repro.sim.executor`) or the
vectorized compiled engine (:mod:`repro.sim.compiled`).  Those two are
the only replay code in the library.
"""

from __future__ import annotations

from typing import Optional

SIM_ENGINES = ("auto", "compiled", "reference")


def resolve_sim_engine(engine: str, schedule, combine=None,
                       record_trace: bool = False) -> str:
    """Pick the replay implementation for one simulation request.

    The selection rule (documented next to the chaining contract in
    ROADMAP.md): ``auto`` picks the compiled engine exactly when the
    replay is *count-exact* — the schedule is pure communication (no
    compute tasks), the semantics carry no combine operator (value-checked
    reductions must flow real payloads through the reference executor),
    the schedule's times are exact rationals, no per-event trace was
    requested, and numpy is importable.  ``compiled`` insists and raises
    with the disqualifying reason; ``reference`` always wins.
    """
    if engine not in SIM_ENGINES:
        raise ValueError(f"unknown sim engine {engine!r}; "
                         f"pick one of {SIM_ENGINES}")
    if engine == "reference":
        return "reference"
    reason = _compiled_unsupported(schedule, combine, record_trace)
    if engine == "compiled":
        if reason is not None:
            raise ValueError(f"engine='compiled' cannot replay "
                             f"{schedule.name!r}: {reason}")
        return "compiled"
    return "reference" if reason is not None else "compiled"


def _compiled_unsupported(schedule, combine, record_trace) -> Optional[str]:
    """Why the compiled engine cannot take this request (None == it can)."""
    if combine is not None:
        return "value-checked semantics (combine operator) need the " \
               "reference executor"
    if schedule.compute:
        return "compute tasks need the reference executor"
    if record_trace:
        return "per-event trace recording needs the reference executor"
    try:
        from repro.sim.compiled import compile_unsupported
    except ImportError:
        return "numpy is not available"
    return compile_unsupported(schedule)
