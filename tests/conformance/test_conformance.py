"""Cross-collective conformance: every registered collective, on a fleet
of seeded random platforms, must solve identically on the exact and the
HiGHS backends and satisfy its own invariants.

The suite is *registry driven*: the case matrix is
``generated platforms x available_collectives()``, and each spec
contributes its own representative instance through the
``CollectiveSpec.conformance_problem`` hook — registering a new
collective (and implementing the hook) is enough to be covered here
automatically, no test edits required.

This pits the exact pipeline (presolve + fraction-free simplex)
against an independent implementation, scipy/HiGHS, so a bug must hide
in *both* to survive.  Checked per case:

- the exact backend returns ``exact=True`` rational throughput,
- the HiGHS optimum agrees within tolerance, and bit for bit when its
  rationalization was certified (``exact=True``),
- ``solution.verify()`` is clean on both backends,
- every edge occupation stays within the one-port budget.

The platform fleet is deterministic under ``REPRO_CONFORMANCE_SEED``
(default pinned; CI exports it explicitly so the matrix runs the exact
same instances on every Python version).
"""

import os
import random
import zlib
from fractions import Fraction

import pytest

from repro.collectives import available_collectives, solve_collective
from repro.platform import generators as gen

pytest.importorskip("scipy", reason="the HiGHS backend needs scipy")

SEED = int(os.environ.get("REPRO_CONFORMANCE_SEED", "20260728"))


def _platforms():
    """~13 deterministic random platforms spanning every generator."""
    s = SEED
    plats = [
        gen.ring(3), gen.ring(5),
        gen.complete(3), gen.complete(4),
        gen.star(3),
        gen.chain(4),
        gen.grid2d(2, 2),
        gen.tree(5, seed=s),
        gen.random_connected(4, extra_edges=2, seed=s + 1),
        gen.random_connected(5, extra_edges=3, seed=s + 2),
        gen.clustered(2, 2, seed=s + 3),
        gen.heterogenize(gen.ring(4), seed=s + 4),
        gen.heterogenize(gen.grid2d(2, 3), seed=s + 5),
    ]
    return plats


CASES = [(plat, spec)
         for plat in _platforms()
         for spec in available_collectives()]


@pytest.mark.parametrize(
    "plat,spec", CASES,
    ids=[f"{p.name}-{s.name}" for p, s in CASES])
def test_exact_and_highs_agree_and_verify(plat, spec):
    hosts = plat.compute_nodes()
    # crc32, not hash(): str hashing is salted per process and would make
    # the per-case rng (and thus the solved instance) unreproducible
    case_id = zlib.crc32(f"{plat.name}-{spec.name}".encode())
    rng = random.Random(SEED ^ case_id)
    problem = spec.conformance_problem(plat, hosts, rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")

    exact = solve_collective(problem, collective=spec.name, backend="exact")
    assert exact.exact
    assert isinstance(exact.throughput, (int, Fraction))
    assert exact.verify() == []
    for occ in exact.edge_occupation().values():
        assert 0 <= occ <= 1

    highs = solve_collective(problem, collective=spec.name, backend="highs")
    assert abs(float(exact.throughput) - float(highs.throughput)) < 1e-7
    if highs.exact:
        # a certified HiGHS optimum is the exact optimum, bit for bit
        assert highs.throughput == exact.throughput
    tol = 0 if highs.exact else 1e-6
    assert highs.verify(tol=tol) == []
    for occ in highs.edge_occupation().values():
        assert 0 <= occ <= 1 + tol


@pytest.mark.parametrize(
    "plat,spec", CASES,
    ids=[f"{p.name}-{s.name}" for p, s in CASES])
def test_revised_engine_is_bit_identical(plat, spec):
    """PR 7: the LU-factorized revised simplex must reproduce the tableau
    oracle's rational optimum *bit-exactly* on every shared-size case."""
    hosts = plat.compute_nodes()
    case_id = zlib.crc32(f"{plat.name}-{spec.name}".encode())
    rng = random.Random(SEED ^ case_id)
    problem = spec.conformance_problem(plat, hosts, rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")

    exact = solve_collective(problem, collective=spec.name, backend="exact")
    revised = solve_collective(problem, collective=spec.name,
                               backend="revised", cache=False)
    assert revised.exact
    assert revised.throughput == exact.throughput
    assert revised.verify() == []
    if revised.lp_solution is not None:  # composites carry no single LP
        stats = revised.lp_solution.stats
        assert stats is not None and stats["path"] in (
            "cold", "float-primal", "float-dual", "warm-primal", "warm-dual")


@pytest.mark.parametrize(
    "plat,spec", CASES,
    ids=[f"{p.name}-{s.name}" for p, s in CASES])
def test_colgen_is_bit_identical(plat, spec):
    """PR 8: the Dantzig-Wolfe column-generation loop must reproduce the
    tableau oracle's rational optimum *bit-exactly* on every case — these
    instances sit far below ``COLGEN_VAR_LIMIT``, so ``backend="colgen"``
    forces the route auto-dispatch only takes at scale."""
    hosts = plat.compute_nodes()
    case_id = zlib.crc32(f"{plat.name}-{spec.name}".encode())
    rng = random.Random(SEED ^ case_id)
    problem = spec.conformance_problem(plat, hosts, rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")

    exact = solve_collective(problem, collective=spec.name, backend="exact")
    colgen = solve_collective(problem, collective=spec.name,
                              backend="colgen", cache=False)
    assert colgen.exact
    assert colgen.throughput == exact.throughput
    assert colgen.verify() == []


@pytest.mark.parametrize(
    "plat,spec", CASES,
    ids=[f"{p.name}-{s.name}" for p, s in CASES])
def test_compiled_engine_is_bit_identical(plat, spec):
    """The compiled (vectorized) simulation engine must replay every
    conformance schedule with *bit-identical* observables to the reference
    executor — delivery times, per-item delivery counts, completed ops and
    measured throughput — and the ``auto`` dispatch rule must route a
    schedule to the compiled engine iff it is pure communication or its
    compute tasks pass the merge certificate (only chained compute fails
    it), with the reference executor's value checks clean either way."""
    from repro.collectives import schedule_collective
    from repro.sim.compiled import merge_certificate
    from repro.sim.engine import resolve_sim_engine
    from repro.sim.executor import simulate_collective

    if not spec.has_schedule:
        pytest.skip(f"{spec.name} builds no schedule")
    hosts = plat.compute_nodes()
    case_id = zlib.crc32(f"{plat.name}-{spec.name}".encode())
    rng = random.Random(SEED ^ case_id)
    problem = spec.conformance_problem(plat, hosts, rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")

    sol = solve_collective(problem, collective=spec.name, backend="exact")
    sched = schedule_collective(sol)
    sem = spec.simulation(sched, problem)
    resolved = resolve_sim_engine("auto", sched, combine=sem.combine,
                                  record_trace=False)
    why = merge_certificate(sched)[0] if sched.compute else None
    assert why is None or sched.chain_links, why
    assert resolved == ("compiled" if why is None else "reference")

    ref = simulate_collective(sched, problem, n_periods=6,
                              collective=spec.name, record_trace=False,
                              engine="reference")
    fast = simulate_collective(sched, problem, n_periods=6,
                               collective=spec.name, record_trace=False,
                               engine="auto")
    assert ref.engine == "reference"
    assert fast.engine == resolved
    assert ref.errors == [] and fast.errors == []
    assert fast.delivery_times == ref.delivery_times
    assert {i: len(t) for i, t in fast.delivery_times.items()} \
        == {i: len(t) for i, t in ref.delivery_times.items()}
    assert fast.completed_ops() == ref.completed_ops()
    assert fast.measured_throughput() == ref.measured_throughput()
    assert fast.steady_window_throughput(periods=3) \
        == ref.steady_window_throughput(periods=3)
    assert fast.periods == ref.periods and fast.horizon == ref.horizon


def test_every_registered_collective_participates():
    """The matrix really covers the whole registry (the historical seven
    plus any future registration implementing ``conformance_problem``)."""
    plat = gen.complete(4)
    hosts = plat.compute_nodes()
    rng = random.Random(SEED)
    names = [spec.name for spec in available_collectives()
             if spec.conformance_problem(plat, hosts, rng) is not None]
    assert set(names) >= {"scatter", "reduce", "gossip", "prefix",
                          "reduce-scatter", "broadcast", "all-gather",
                          "all-reduce"}
