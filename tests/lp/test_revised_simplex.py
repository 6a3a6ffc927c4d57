"""Revised simplex (PR 7): differential, warm/dual restarts, LU updates.

Three layers are pinned here:

- **Differential.** The revised simplex must agree with the fraction-free
  tableau (:mod:`repro.lp.exact_simplex`) on *status and exact objective*
  for every shared-size case — randomized LPs spanning degenerate,
  unbounded, infeasible, equality-only and box-bounded shapes, plus the
  chained composite LPs with protected ``chain[..]`` rows.  Where scipy
  is available the float HiGHS optimum must also agree within tolerance.
- **Restart soundness.** Warm starts and dual re-solves from a recorded
  ``basis_labels`` tuple must reproduce the optimum bit-exactly, from
  either engine's basis.
- **LU maintenance.** Forcing tiny ``refactor_interval`` values exercises
  the product-form eta accumulation + refactorization path without
  changing any result; the stats counters must reflect it.
"""

import random
from fractions import Fraction

import pytest

from repro.core.allreduce import AllReduceProblem
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import LinearProgram
from repro.lp.revised_simplex import RevisedSimplexSolver
from repro.lp.solution import SolveStatus
from repro.platform.examples import figure6_platform

SEED = 20260808


def _random_lp(rng, trial, eq_only=False):
    n = rng.randint(2, 8)
    m = rng.randint(1, 8)
    lp = LinearProgram(name=f"rnd{trial}")
    xs = [lp.var(f"x{j}", 0, rng.choice([None, None, rng.randint(1, 6)]))
          for j in range(n)]
    for i in range(m):
        e = sum(rng.randint(-4, 4) * xs[j] for j in range(n))
        s = "==" if eq_only else rng.choice(["<=", ">=", "=="])
        b = rng.randint(-6, 10)
        lp.add(e <= b if s == "<=" else (e >= b if s == ">=" else e == b),
               name=f"c{i}")
    obj = sum(rng.randint(-5, 5) * xs[j] for j in range(n))
    (lp.maximize if rng.random() < 0.5 else lp.minimize)(obj)
    return lp


def _degenerate_lp(rng, trial):
    """Conservation-style rows (b = 0) — the massively degenerate shape
    the collective steady-state LPs take."""
    n = rng.randint(3, 7)
    lp = LinearProgram(name=f"deg{trial}")
    xs = [lp.var(f"x{j}", 0, rng.randint(1, 4)) for j in range(n)]
    for i in range(rng.randint(2, 5)):
        a, b = rng.sample(range(n), 2)
        lp.add(xs[a] - xs[b] == 0, name=f"cons{i}")
    lp.add(sum(xs) <= rng.randint(2, 8), name="cap")
    lp.maximize(sum(rng.randint(0, 3) * xs[j] for j in range(n)))
    return lp


class TestDifferentialRandom:
    def test_revised_matches_tableau_and_restarts(self):
        rng = random.Random(SEED)
        statuses = {s: 0 for s in SolveStatus}
        for trial in range(200):
            lp = _random_lp(rng, trial)
            rev = RevisedSimplexSolver().solve(lp)
            tab = ExactSimplexSolver().solve(lp)
            assert rev.status == tab.status, (trial, rev.status, tab.status)
            statuses[rev.status] += 1
            if not rev.optimal:
                continue
            assert rev.objective == tab.objective, trial
            assert rev.exact and isinstance(rev.objective, (int, Fraction))
            assert lp.check_feasible(rev.values, tol=0) == []
            # a warm restart from the revised basis, and one from the
            # *tableau's* basis, both reproduce the optimum
            for restart in (
                RevisedSimplexSolver().solve(lp, warm_basis=rev.basis_labels),
                RevisedSimplexSolver().solve(lp, warm_basis=tab.basis_labels),
            ):
                assert restart.optimal and restart.objective == rev.objective
        # the mix genuinely exercised every terminal status
        assert statuses[SolveStatus.OPTIMAL] > 20
        assert statuses[SolveStatus.INFEASIBLE] > 20
        assert statuses[SolveStatus.UNBOUNDED] > 5

    def test_cold_crash_axis_matches(self):
        # crash="cold" takes the pure exact path (triangular crash + two
        # phases) — same statuses and objectives, no scipy involved
        rng = random.Random(SEED + 1)
        for trial in range(60):
            lp = _random_lp(rng, trial)
            cold = RevisedSimplexSolver(crash="cold").solve(lp)
            tab = ExactSimplexSolver().solve(lp)
            assert cold.status == tab.status, trial
            if cold.optimal:
                assert cold.objective == tab.objective, trial
                assert lp.check_feasible(cold.values, tol=0) == []

    def test_equality_only_lps(self):
        rng = random.Random(SEED + 2)
        seen_optimal = 0
        for trial in range(150):
            lp = _random_lp(rng, trial, eq_only=True)
            rev = RevisedSimplexSolver().solve(lp)
            tab = ExactSimplexSolver().solve(lp)
            assert rev.status == tab.status, trial
            if rev.optimal:
                seen_optimal += 1
                assert rev.objective == tab.objective, trial
        assert seen_optimal > 5

    def test_degenerate_conservation_lps(self):
        rng = random.Random(SEED + 3)
        for trial in range(40):
            lp = _degenerate_lp(rng, trial)
            rev = RevisedSimplexSolver().solve(lp)
            tab = ExactSimplexSolver().solve(lp)
            assert rev.status == tab.status == SolveStatus.OPTIMAL, trial
            assert rev.objective == tab.objective, trial

    def test_highs_agrees_in_float(self):
        scipy = pytest.importorskip("scipy")  # noqa: F841
        from repro.lp.highs import HighsSolver

        rng = random.Random(SEED + 4)
        compared = 0
        for trial in range(60):
            lp = _random_lp(rng, trial)
            rev = RevisedSimplexSolver().solve(lp)
            hi = HighsSolver().solve(lp)
            if rev.optimal and hi.optimal:
                compared += 1
                assert abs(float(rev.objective) - hi.objective) < 1e-6, trial
        assert compared > 10

    def test_chain_rows_composite(self):
        # the pipelined composite LP: protected chain[..] rows joining
        # per-stage blocks — the structural case commodity-block pricing
        # and presolve interop must not break
        from repro.collectives import get_collective

        problem = AllReduceProblem(figure6_platform(), [0, 1, 2], task_work=2)
        lp = get_collective("all-reduce").build_lp(problem, mode="pipelined")
        assert any((c.name or "").startswith("chain[")
                   for c in lp.constraints)
        rev = RevisedSimplexSolver().solve(lp)
        tab = ExactSimplexSolver().solve(lp)
        assert rev.optimal and tab.optimal
        assert rev.objective == tab.objective == Fraction(1, 4)
        assert lp.check_feasible(rev.values, tol=0) == []
        # a warm restart from the recorded basis stays bit-identical
        w = RevisedSimplexSolver().solve(lp, warm_basis=rev.basis_labels)
        assert w.optimal and w.objective == rev.objective


class TestLUUpdates:
    @pytest.mark.parametrize("interval", [1, 2, 5, 64])
    def test_refactor_interval_is_result_invariant(self, interval):
        # crash="cold" forces real pivot sequences through the eta chain
        rng = random.Random(SEED + 5)
        forced_refactor = False
        for trial in range(25):
            lp = _random_lp(rng, trial)
            sol = RevisedSimplexSolver(crash="cold",
                                       refactor_interval=interval).solve(lp)
            ref = ExactSimplexSolver().solve(lp)
            assert sol.status == ref.status, (interval, trial)
            if sol.optimal:
                assert sol.objective == ref.objective, (interval, trial)
                assert lp.check_feasible(sol.values, tol=0) == []
                if (sol.stats["pivots"] > 1
                        and sol.stats["refactorizations"] > 1):
                    forced_refactor = True
        if interval == 1:
            # every pivot beyond the crash must have refactorized
            assert forced_refactor

    def test_eta_updates_between_refactorizations(self):
        # with a large interval a multi-pivot solve keeps one initial
        # factorization and rides product-form updates
        rng = random.Random(SEED + 6)
        for trial in range(40):
            lp = _random_lp(rng, trial)
            sol = RevisedSimplexSolver(crash="cold",
                                       refactor_interval=10_000).solve(lp)
            if sol.optimal and sol.stats["pivots"] >= 3:
                assert sol.stats["refactorizations"] <= 1 + sol.stats[
                    "pivots"] // 3  # fill-triggered ones stay rare
                return
        pytest.skip("no multi-pivot optimal instance drawn")

    def test_stats_surface(self):
        lp = LinearProgram(name="stats")
        x = lp.var("x", 0, 4)
        y = lp.var("y", 0, None)
        lp.add(x + 2 * y <= 10, name="c0")
        lp.add(3 * x + y <= 9, name="c1")
        lp.maximize(2 * x + 3 * y)
        sol = RevisedSimplexSolver().solve(lp)
        assert sol.optimal and sol.objective == Fraction(79, 5)
        for key in ("pivots", "phase1_pivots", "phase2_pivots",
                    "dual_pivots", "refactorizations", "ftran", "btran",
                    "factor_s", "phase1_s", "phase2_s", "dual_s",
                    "basis_m", "path"):
            assert key in sol.stats, key


class TestValidation:
    def test_rejects_float_lps(self):
        lp = LinearProgram(name="floaty")
        x = lp.var("x", 0, None)
        lp.add(0.5 * x <= 1, name="c")
        lp.maximize(x)
        with pytest.raises(ValueError, match="int/Fraction"):
            RevisedSimplexSolver().solve(lp)

    def test_rejects_bad_options(self):
        with pytest.raises(ValueError):
            RevisedSimplexSolver(pricing="steepest")
        with pytest.raises(ValueError):
            RevisedSimplexSolver(refactor_interval=0)
        with pytest.raises(ValueError):
            RevisedSimplexSolver(crash="warm")


class TestDispatchRouting:
    def test_backend_names(self):
        from repro.lp.dispatch import clear_cache, solve

        lp = LinearProgram(name="route")
        x = lp.var("x", 0, 4)
        lp.add(x <= 3, name="c")
        lp.maximize(x)
        for backend, expect in [("tableau", "exact-simplex"),
                                ("revised", "revised-simplex")]:
            clear_cache()
            sol = solve(lp, backend=backend, cache=False, presolve=False)
            assert sol.optimal and sol.objective == 3
            assert sol.backend == expect

    def test_canonical_and_backend_constraints(self):
        from repro.lp.dispatch import solve

        lp = LinearProgram(name="route2")
        x = lp.var("x", 0, 4)
        lp.add(x <= 3, name="c")
        lp.maximize(x)
        with pytest.raises(ValueError):
            solve(lp, backend="revised", canonical=True)
        with pytest.raises(ValueError):
            solve(lp, backend="simplex")

    def test_size_routing_picks_the_engine(self):
        """``"exact"`` and ``"auto"`` keep LPs at the cut-over on the
        tableau and send one variable more to the revised engine."""
        from repro.lp import dispatch

        limit = dispatch.TABLEAU_VAR_LIMIT
        for backend in ("exact", "auto"):
            for n, route, engine, reason in (
                    (limit, "tableau", "exact-simplex",
                     f"{limit} vars <= TABLEAU_VAR_LIMIT"),
                    (limit + 1, "revised", "revised-simplex",
                     f"{limit + 1} vars > TABLEAU_VAR_LIMIT")):
                sol = dispatch.solve(_box_lp(n), backend=backend,
                                     cache=False, presolve=False)
                assert sol.objective == n // 2, (backend, n)
                assert sol.backend == engine, (backend, n)
                assert sol.stats["route"] == route, (backend, n)
                assert sol.stats["route_reason"] == reason, (backend, n)

    def test_canonical_always_takes_the_tableau(self):
        from repro.lp import dispatch

        n = dispatch.TABLEAU_VAR_LIMIT + 1
        for backend in ("exact", "auto"):
            sol = dispatch.solve(_box_lp(n), backend=backend, cache=False,
                                 canonical=True, presolve=False)
            assert sol.backend == "exact-simplex"
            assert sol.stats["route"] == "tableau"
            assert sol.stats["route_reason"] == "canonical"

    def test_colgen_direct_fallback_follows_the_cut_over(self):
        """A model without blocks falls back to one direct solve, on the
        engine the dispatch cut-over names."""
        from repro.lp import dispatch
        from repro.lp.colgen import solve_colgen

        limit = dispatch.TABLEAU_VAR_LIMIT
        for n, revised in ((limit, False), (limit + 1, True)):
            sol = solve_colgen(_box_lp(n))
            assert sol.stats["fallback"] == "no blocks"
            assert sol.objective == n // 2
            # only the revised engine reports its crash path
            assert ("path" in sol.stats) is revised, n

    def test_every_route_scans_the_model_once(self, monkeypatch):
        """One rationality scan per dispatched solve: the engines and the
        snap certifier are entered past their own checks."""
        from repro.lp import dispatch

        calls = []
        scan = LinearProgram.is_rational
        monkeypatch.setattr(LinearProgram, "is_rational",
                            lambda self: calls.append(1) or scan(self))
        limit = dispatch.TABLEAU_VAR_LIMIT
        for backend, n in (("exact", limit), ("exact", limit + 1),
                           ("auto", limit + 1), ("highs", 4),
                           ("colgen", 4)):
            calls.clear()
            sol = dispatch.solve(_box_lp(n), backend=backend, cache=False)
            assert sol.optimal and sol.exact, backend
            assert len(calls) == 1, (backend, n, len(calls))

    def test_float_data_rejected_before_any_engine(self):
        from repro.lp import dispatch

        lp = LinearProgram(name="floaty")
        x = lp.var("x", 0, None)
        lp.add(0.5 * x <= 1, name="c")
        lp.maximize(x)
        for backend in ("exact", "tableau", "revised", "colgen"):
            with pytest.raises(ValueError, match="int/Fraction"):
                dispatch.solve(lp, backend=backend, cache=False)
        sol = dispatch.solve(lp, backend="auto", cache=False)
        assert sol.stats["route"] == "highs" and not sol.exact
        assert sol.objective == pytest.approx(2.0)


def _box_lp(n):
    """``max sum x`` over ``n`` unit boxes with ``sum x <= n // 2``: no
    presolve rule fires, so the model keeps its ``n`` variables."""
    lp = LinearProgram(name=f"box{n}")
    xs = [lp.var(f"x{j}", 0, 1) for j in range(n)]
    lp.add(sum(xs) <= n // 2, name="c")
    lp.maximize(sum(xs))
    return lp


def _generated_lp(kind, n, seed):
    """A collective LP on a seeded heterogeneous ``n``-node platform."""
    from repro.collectives import get_collective
    from repro.core.broadcast import BroadcastProblem
    from repro.core.reduce_op import ReduceProblem
    from repro.core.scatter import ScatterProblem
    from repro.platform.generators import heterogenize, random_connected

    g = heterogenize(random_connected(n, extra_edges=n // 2, seed=seed), seed)
    nodes = g.compute_nodes()
    if kind == "scatter":
        return get_collective(kind).build_lp(
            ScatterProblem(g, nodes[0], nodes[1:]))
    if kind == "reduce":
        return get_collective(kind).build_lp(
            ReduceProblem(g, nodes[:4], nodes[0]))
    if kind == "broadcast":
        return get_collective(kind).build_lp(
            BroadcastProblem(g, nodes[0], nodes[1:]))
    return get_collective("all-reduce").build_lp(
        AllReduceProblem(g, nodes[:3]), "pipelined")


#: (kind, nodes): presolved sizes between the cut-over and 4x it
GENERATED = [("scatter", 8), ("scatter", 12), ("reduce", 6), ("reduce", 8),
             ("broadcast", 8), ("broadcast", 10), ("all-reduce", 6)]


class TestDifferentialAboveCutOver:
    """Generated collective LPs just above the cut-over, the sizes
    ``"exact"`` now sends to the revised engine: its optimum must carry a
    certificate at ``tol=0`` and match the tableau's objective."""

    @pytest.mark.parametrize("kind,n", GENERATED)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_revised_optimum_is_certified(self, kind, n, seed):
        from repro.lp import dispatch
        from repro.lp.certificate import certify
        from repro.lp.presolve import presolve

        lp = _generated_lp(kind, n, seed)
        model = presolve(lp).lp
        size = model.num_vars()
        limit = dispatch.TABLEAU_VAR_LIMIT
        assert limit < size <= 4 * limit, (kind, n, seed, size)
        rev = RevisedSimplexSolver().solve(model, want_duals=True)
        assert rev.optimal
        assert certify(model, rev.values, rev.duals) == []
        assert ExactSimplexSolver().solve(model).objective == rev.objective
        routed = dispatch.solve(lp, backend="exact", cache=False)
        assert routed.stats["route"] == "revised"
        assert routed.objective == rev.objective
