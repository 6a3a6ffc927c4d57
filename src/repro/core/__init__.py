"""The paper's primary contribution: the steady-state collective models.

One module per collective, each holding its ``*Problem`` /
``*Solution`` pair, its LP builder and (where the schedule is not
generic) its schedule reconstruction:

- **Series of Scatters** (Section 3): :mod:`repro.core.scatter` —
  ``SSSP(G)``; the periodic one-port schedule comes from the bipartite
  matching decomposition of :mod:`repro.core.matching`.
- **Series of Gossips** (Section 3.5): :mod:`repro.core.gossip` — the
  personalized all-to-all generalization ``SSPA2A(G)``.
- **Series of Reduces** (Section 4): :mod:`repro.core.reduce_op` builds
  ``SSR(G)``; :mod:`repro.core.trees` extracts weighted reduction trees
  (Section 4.4); :mod:`repro.core.schedule` assembles the periodic schedule;
  :mod:`repro.core.fixed_period` implements the Section 4.6 approximation.
- **Parallel prefix** (Section 6 outlook): :mod:`repro.core.prefix`.
- **Series of Reduce-scatters**: :mod:`repro.core.reduce_scatter` — every
  participant ends with one reduced block; built as reduce-per-block over
  the shared capacities and scheduled by superposing per-block trees.
- **Series of Broadcasts** (Section 5 outlook): :mod:`repro.core.broadcast`
  — content-divisible flows, scheduled by packing weighted arborescences
  (:mod:`repro.core.arborescence`).
- **Series of All-gathers**: :mod:`repro.core.allgather` — a *joint*
  composite of per-block broadcasts over shared capacities.
- **Series of All-reduces**: :mod:`repro.core.allreduce` — a *sequential*
  composite, reduce-scatter then all-gather, harmonic throughput.

Nothing here is an entry point: every collective is solved, scheduled
and replayed through :func:`repro.collectives.solve_collective`,
:func:`repro.collectives.schedule_collective` and
:func:`repro.sim.executor.simulate_collective`, which resolve the spec
from the problem type (``collective="prefix"`` picks the prefix LP for a
``ReduceProblem``).  Composed collectives share the schedule
superposition/concatenation machinery of :mod:`repro.core.schedule`.
"""

from repro.core.scatter import (
    ScatterProblem,
    ScatterSolution,
    build_scatter_lp,
)
from repro.core.gossip import (
    GossipProblem,
    GossipSolution,
    build_gossip_lp,
)
from repro.core.reduce_op import (
    ReduceProblem,
    ReduceSolution,
    build_reduce_lp,
)
from repro.core.prefix import PrefixSolution, build_prefix_lp
from repro.core.reduce_scatter import (
    ReduceScatterProblem,
    ReduceScatterSolution,
    build_reduce_scatter_lp,
    build_reduce_scatter_schedule,
)
from repro.core.broadcast import (
    BroadcastProblem,
    BroadcastSolution,
    build_broadcast_lp,
)
from repro.core.allgather import AllGatherProblem
from repro.core.allreduce import AllReduceProblem
from repro.core.arborescence import Arborescence, pack_arborescences
from repro.core.trees import ReductionTree, extract_trees
from repro.core.schedule import (
    PeriodicSchedule,
    RateBundle,
    build_reduce_schedule,
    concatenate_schedules,
    superpose_schedules,
)
from repro.core.fixed_period import fixed_period_approximation

__all__ = [
    "ScatterProblem",
    "ScatterSolution",
    "build_scatter_lp",
    "GossipProblem",
    "GossipSolution",
    "build_gossip_lp",
    "ReduceProblem",
    "ReduceSolution",
    "build_reduce_lp",
    "PrefixSolution",
    "build_prefix_lp",
    "ReduceScatterProblem",
    "ReduceScatterSolution",
    "build_reduce_scatter_lp",
    "build_reduce_scatter_schedule",
    "BroadcastProblem",
    "BroadcastSolution",
    "build_broadcast_lp",
    "AllGatherProblem",
    "AllReduceProblem",
    "Arborescence",
    "pack_arborescences",
    "ReductionTree",
    "extract_trees",
    "PeriodicSchedule",
    "RateBundle",
    "build_reduce_schedule",
    "concatenate_schedules",
    "superpose_schedules",
    "fixed_period_approximation",
]
