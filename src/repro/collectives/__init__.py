"""Unified collective pipeline: registry, specs, and the orchestrator.

One pipeline serves every steady-state collective::

    problem --spec.build_lp--> LP --lp.solve--> optimum
            --spec.extract + flow passes--> CollectiveSolution
            --spec.build_schedule--> PeriodicSchedule
            --spec.simulation--> simulator semantics

:func:`solve_collective` runs the first half, :func:`schedule_collective`
the schedule step, and :func:`repro.sim.executor.simulate_collective` the
replay.  They are the only entry points: the spec resolves from the
problem type (or from ``collective=`` by name).

The built-in specs (scatter, reduce, gossip, prefix, reduce-scatter,
broadcast, all-gather, all-reduce) self-register on first registry
access — lazily, because the core problem modules import
:mod:`repro.collectives.base` for the shared solution class and an eager
import here would be circular.  A bare ``ReduceProblem`` always resolves
to the plain reduce — prefix shares that problem type but opts out of
type resolution (``resolve_by_type = False``), so request
``collective="prefix"`` explicitly; among type-eligible specs the
``register_collective(priority=...)`` argument settles precedence.

:class:`CompositeCollectiveSpec` is the composition layer: all-gather is
a *joint* composite (one broadcast stage per block over shared
capacities) and all-reduce a *sequential* one (reduce-scatter then
all-gather, harmonic throughput composition) that can also be solved
``mode="pipelined"`` — one joint LP overlapping both phases with
cross-stage chain rows, never below the harmonic bound — see
:mod:`repro.collectives.base`.
"""

from repro.collectives.base import (
    COMPOSITION_MODES,
    ChainRow,
    CollectiveSolution,
    CollectiveSpec,
    CompositeCollectiveSpec,
    CompositeSolution,
    SimSemantics,
    compose_joint_lp,
)
from repro.collectives.registry import (
    available_collectives,
    get_collective,
    register_collective,
    resolve_collective,
    unregister_collective,
)
from repro.collectives.orchestrator import schedule_collective, solve_collective

__all__ = [
    "COMPOSITION_MODES",
    "ChainRow",
    "CollectiveSolution",
    "CollectiveSpec",
    "CompositeCollectiveSpec",
    "CompositeSolution",
    "SimSemantics",
    "compose_joint_lp",
    "available_collectives",
    "get_collective",
    "register_collective",
    "resolve_collective",
    "unregister_collective",
    "schedule_collective",
    "solve_collective",
]
