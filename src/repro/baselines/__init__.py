"""Baseline collective algorithms for comparison.

The paper's thesis is that steady-state LP scheduling beats the classical
makespan-oriented, single-route / single-tree approaches when operations are
pipelined.  Every baseline here is priced and replayed on the same one-port
machinery as the LP solutions — shared ``verify()``, ``schedule_collective``
and the two simulation engines — so each comparison is an exact rational.

Classical algorithm specs (:mod:`repro.baselines.algorithms`)
    The textbook collectives, registered as first-class ``CollectiveSpec``
    plug-ins — reachable by name through ``solve_collective(problem,
    collective=...)``:

    - ``direct-scatter`` — source-routed scatter on shortest paths,
    - ``flat-tree-reduce`` — every owner ships its value to the target,
      which merges alone, left to right,
    - ``binary-tree-reduce`` — an order-preserving balanced binary merge
      tree whose root result is forwarded to the target,
    - ``ring-reduce-scatter`` / ``ring-all-gather`` / ``ring-all-reduce``
      — the bidirectional-chain / ring-walk family,
    - ``halving-reduce-scatter`` / ``doubling-all-gather`` /
      ``rabenseifner-all-reduce`` — the recursive power-of-two family.

    Each spec solves analytically (throughput = 1 / bottleneck load, an
    exact rational), emits a real :class:`PeriodicSchedule`, and is
    order-preserving so non-commutative combine operators stay correct.

Ablations
    - :func:`~repro.baselines.scatter_baselines.spt_scatter_throughput` —
      the LP restricted to a single shortest-path tree (single-route
      ablation),
    - :func:`~repro.baselines.reduce_baselines.best_single_tree_throughput`
      — the best *one* reduction tree extracted from the LP solution,
      pipelined alone (multi-tree ablation); each candidate is priced
      through :func:`~repro.baselines.reduce_baselines.single_tree_solution`
      so its rate is an exact rational and its loads pass shared
      verification.

The optimality-gap auto-tuner (:mod:`repro.tune`, CLI ``repro tune``)
    solves the LP optimum for an instance, replays every applicable
    classical baseline on the simulation engine, and prints an
    exact-rational gap table (``repro.viz.gap_table``):
    ``gap = TP_LP / TP_baseline >= 1``, with each baseline's simulated
    steady-window rate matching its analytic rate bit-exactly.
"""

from repro.baselines.scatter_baselines import spt_scatter_throughput
from repro.baselines.reduce_baselines import (
    best_single_tree_throughput,
    single_tree_resource_load,
    single_tree_solution,
)

__all__ = [
    "spt_scatter_throughput",
    "best_single_tree_throughput",
    "single_tree_resource_load",
    "single_tree_solution",
]
