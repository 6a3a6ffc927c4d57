"""Degraded-platform conformance: seeded failure traces over the registry.

Extends the cross-collective conformance matrix with a *perturbation
axis*: every registered collective, on a fleet of seeded platforms, is
solved again after a deterministic failure trace
(:func:`repro.platform.perturb.failure_trace` — link failures only when
the platform stays strongly connected, link degradations otherwise, so
every ``conformance_problem`` remains solvable).  Checked per case:

- the exact backend still returns a rational optimum on the perturbed
  platform, with ``verify()`` clean and one-port occupations within
  budget;
- HiGHS agrees with the exact optimum on the same perturbed instance;
- :func:`repro.lp.resolve.replan` of the pristine solution reaches the
  same exact optimum (warm from the old basis when it is large enough,
  cold otherwise);
- degradation can only lower throughput (events are tightening), and
  the perturbed solve must not have been served from a cached pristine
  solution (the perturbed LP hashes to its own cache key — a stale hit
  would show up here as a pristine TP on a degraded platform).

Seeded by ``REPRO_CONFORMANCE_SEED`` like the base suite; CI pins it.
"""

import os
import random
import zlib
from fractions import Fraction

import pytest

from repro.collectives import available_collectives, solve_collective
from repro.lp.resolve import replan
from repro.platform import generators as gen
from repro.platform.perturb import failure_trace, perturb

pytest.importorskip("scipy", reason="the HiGHS backend needs scipy")

SEED = int(os.environ.get("REPRO_CONFORMANCE_SEED", "20260728"))


def _platforms():
    """A smaller fleet than the base suite: traces multiply the work."""
    s = SEED
    return [
        gen.ring(4),
        gen.complete(4),
        gen.grid2d(2, 2),
        gen.random_connected(5, extra_edges=3, seed=s + 2),
        gen.heterogenize(gen.ring(4), seed=s + 4),
    ]


CASES = [(plat, spec)
         for plat in _platforms()
         for spec in available_collectives()]


@pytest.mark.parametrize(
    "plat,spec", CASES,
    ids=[f"{p.name}-{s.name}" for p, s in CASES])
def test_degraded_exact_and_highs_agree_and_verify(plat, spec):
    hosts = plat.compute_nodes()
    case_id = zlib.crc32(f"degraded-{plat.name}-{spec.name}".encode())
    rng = random.Random(SEED ^ case_id)
    problem = spec.conformance_problem(plat, hosts, rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")

    events = failure_trace(plat, SEED ^ case_id, n_events=2)
    pristine = solve_collective(problem, collective=spec.name,
                                backend="exact")

    degraded_problem, _ = _reproblem(problem, plat, events)
    exact = solve_collective(degraded_problem, collective=spec.name,
                             backend="exact")
    assert exact.exact
    assert isinstance(exact.throughput, (int, Fraction))
    assert exact.verify() == []
    for occ in exact.edge_occupation().values():
        assert 0 <= occ <= 1
    # failure traces only tighten capacity: for LP specs TP cannot
    # improve — and a cache collision with the pristine platform would
    # violate this whenever the trace actually binds.  Classical
    # baseline specs re-route their fixed plans with Dijkstra on the
    # perturbed costs, so their TP is not monotone under tightening;
    # they get the solvability/verification checks above only.
    from repro.baselines.algorithms import AlgorithmSpec

    if not isinstance(spec, AlgorithmSpec):
        assert exact.throughput <= pristine.throughput

    assert replan(pristine, events).throughput == exact.throughput

    highs = solve_collective(degraded_problem, collective=spec.name,
                             backend="highs")
    assert abs(float(exact.throughput) - float(highs.throughput)) < 1e-7
    tol = 0 if highs.exact else 1e-6
    assert highs.verify(tol=tol) == []
    for occ in highs.edge_occupation().values():
        assert 0 <= occ <= 1 + tol


def _reproblem(problem, plat, events):
    """The same collective instance on the perturbed platform."""
    from dataclasses import replace

    g2, delta = perturb(plat, events)
    return replace(problem, platform=g2), delta


def test_traces_are_deterministic_across_processes():
    """The axis is reproducible: same seed, same events, every time."""
    plat = gen.complete(4)
    a = failure_trace(plat, SEED, n_events=3)
    b = failure_trace(plat, SEED, n_events=3)
    assert a == b and len(a) == 3
