"""Replay of periodic schedules under the one-port model.

The paper's claims live in the abstract one-port model of Section 2: at any
instant a processor performs at most one send and one receive, computation
overlaps communication, and a transfer of ``m`` units over edge ``(i, j)``
occupies both ports for ``m * c(i, j)``.  Every schedule the library emits —
LP optima and classical baseline plans alike — is a
:class:`~repro.core.schedule.PeriodicSchedule` refereed by one of two replay
engines that produce bit-identical observables:

- :mod:`repro.sim.executor` — the per-instance reference executor, with
  store-and-forward buffers (the Section 3.4 initialization / steady-state /
  clean-up structure emerges from empty buffers) and value-checked payloads,
- :mod:`repro.sim.compiled` — the vectorized, count-exact engine for pure
  communication and for unchained reductions under a static merge
  certificate,
- :mod:`repro.sim.engine` — the rule that picks between the two,
- :mod:`repro.sim.faults` — link/node failures and schedule switches
  mid-replay,
- :mod:`repro.sim.trace` — event traces and one-port invariant validation,
- :mod:`repro.sim.operators` — genuinely non-commutative reduction operators
  used to validate result correctness.
"""

from repro.sim.executor import SimulationResult, simulate_schedule
from repro.sim.trace import Trace, TraceEvent, validate_one_port
from repro.sim.operators import SeqConcat, noncommutative_reduce

__all__ = [
    "SimulationResult",
    "simulate_schedule",
    "Trace",
    "TraceEvent",
    "validate_one_port",
    "SeqConcat",
    "noncommutative_reduce",
]
