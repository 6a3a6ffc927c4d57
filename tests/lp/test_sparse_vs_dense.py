"""Correctness of the sparse fraction-free simplex under the new arithmetic.

The sparse solver (`repro.lp.exact_simplex`) replaced the dense Fraction
tableau; the original implementation survives as
:class:`repro.lp.dense_simplex.DenseSimplexSolver` and serves as the oracle
here: same statuses on pathological LPs, bit-identical objectives on
randomized rational LPs.  Also covers the dispatch-layer additions (memo
cache, warm starts, ERROR-with-diagnostics on iteration overrun).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import dispatch
from repro.lp.dense_simplex import DenseSimplexSolver
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import LinearProgram
from repro.lp.solution import SolveStatus


def sparse(lp, **kw):
    return ExactSimplexSolver().solve(lp, **kw)


def dense(lp):
    return DenseSimplexSolver().solve(lp)


class TestPathologies:
    def test_degenerate_vertex_many_tight_rows(self):
        # many constraints meet at the optimum; Dantzig must not cycle
        lp = LinearProgram()
        x, y, z = lp.var("x"), lp.var("y"), lp.var("z")
        lp.add(x + y + z <= 1)
        lp.add(x + y <= 1)
        lp.add(y + z <= 1)
        lp.add(x + z <= 1)
        lp.add(2 * x + 2 * y + 2 * z <= 2)
        lp.maximize(x + y + z)
        s = sparse(lp)
        assert s.status is SolveStatus.OPTIMAL and s.objective == 1
        assert lp.check_feasible(s.values, tol=0) == []

    def test_beale_cycling_instance(self):
        # classical cycling example — degeneracy fallback must terminate
        lp = LinearProgram()
        x1, x2, x3, x4 = (lp.var(f"x{i}") for i in range(1, 5))
        lp.add(Fraction(1, 4) * x1 - 60 * x2 - Fraction(1, 25) * x3 + 9 * x4 <= 0)
        lp.add(Fraction(1, 2) * x1 - 90 * x2 - Fraction(1, 50) * x3 + 3 * x4 <= 0)
        lp.add(x3 <= 1)
        lp.maximize(Fraction(3, 4) * x1 - 150 * x2 + Fraction(1, 50) * x3 - 6 * x4)
        s = sparse(lp)
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == Fraction(1, 20)

    def test_redundant_rows_dropped(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + y == 1)
        lp.add(2 * x + 2 * y == 2)    # redundant multiple
        lp.add(3 * x + 3 * y == 3)    # and another
        lp.maximize(x)
        s = sparse(lp)
        assert s.status is SolveStatus.OPTIMAL and s.objective == 1

    def test_equality_only_system(self):
        # pure equality system: the optimum is the unique solution
        lp = LinearProgram()
        x, y, z = lp.var("x"), lp.var("y"), lp.var("z")
        lp.add(x + y + z == 6)
        lp.add(x - y == 1)
        lp.add(y - z == 1)
        lp.maximize(x)
        s = sparse(lp)
        assert s.status is SolveStatus.OPTIMAL
        assert (s.value(x), s.value(y), s.value(z)) == (3, 2, 1)

    def test_equality_only_infeasible(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + y == 1)
        lp.add(x + y == 2)
        lp.maximize(x)
        assert sparse(lp).status is SolveStatus.INFEASIBLE

    def test_infeasible_bounds(self):
        lp = LinearProgram()
        x = lp.var("x", ub=1)
        lp.add(x >= 2)
        lp.maximize(x)
        assert sparse(lp).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x - y <= 1)
        lp.maximize(x)
        assert sparse(lp).status is SolveStatus.UNBOUNDED

    def test_bounded_direction_in_unbounded_region(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x - y <= 1)
        lp.maximize(x - y)
        assert sparse(lp).objective == 1

    def test_negative_lower_bound_basic_at_zero(self):
        # regression: a *basic* variable whose optimum is 0 must not be
        # overwritten by its nonzero lower bound during extraction
        lp = LinearProgram()
        x = lp.var("x", lb=-1)
        lp.add(x <= 0)
        lp.maximize(x)
        s = sparse(lp)
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == 0 and s.value(x) == 0
        assert dense(lp).objective == 0

    def test_negative_lower_bounds_mixed(self):
        lp = LinearProgram()
        x = lp.var("x", lb=-2, ub=3)
        y = lp.var("y", lb=-1)
        lp.add(x + y <= 1)
        lp.minimize(x + 2 * y)
        s = sparse(lp)
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == dense(lp).objective == -4
        assert s.value(x) == -2 and s.value(y) == -1

    def test_bland_pricing_mode(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + 2 * y <= 4)
        lp.add(3 * x + y <= 6)
        lp.maximize(x + y)
        s = ExactSimplexSolver(pricing="bland").solve(lp)
        assert s.objective == Fraction(14, 5)

    def test_unknown_pricing_rejected(self):
        with pytest.raises(ValueError):
            ExactSimplexSolver(pricing="steepest-edge-typo")


class TestIterationLimit:
    def test_overrun_returns_error_with_diagnostics(self):
        lp = LinearProgram()
        xs = [lp.var(f"x{i}") for i in range(6)]
        for j in range(6):
            lp.add(sum((i + j + 1) * x for i, x in enumerate(xs)) <= 10 + j)
        lp.maximize(sum(xs))
        s = ExactSimplexSolver(max_iterations=1).solve(lp)
        assert s.status is SolveStatus.ERROR
        assert "iterlimit" in s.message
        assert "vars" in s.message  # names the LP shape for debugging
        assert s.iterations >= 1

    def test_dense_reference_also_reports_error(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + y >= 3)
        lp.add(x - y == 1)
        lp.minimize(2 * x + y)
        s = DenseSimplexSolver(max_iterations=1).solve(lp)
        assert s.status is SolveStatus.ERROR
        assert s.message


class TestWarmStart:
    def _family_lp(self, n):
        """Growing LP family with stable variable/constraint names."""
        lp = LinearProgram(f"fam(size-{n})")
        xs = [lp.var(f"x{i}", ub=3) for i in range(n)]
        for i in range(n - 1):
            lp.add(xs[i] + xs[i + 1] <= 4, name=f"pair[{i}]")
        lp.maximize(sum((i % 3 + 1) * x for i, x in enumerate(xs)))
        return lp

    def test_warm_start_same_lp_skips_phase1(self):
        lp = self._family_lp(6)
        cold = sparse(lp)
        assert cold.status is SolveStatus.OPTIMAL
        warm = sparse(self._family_lp(6), warm_basis=cold.basis_labels)
        assert warm.objective == cold.objective
        assert warm.iterations <= cold.iterations

    def test_warm_start_transfers_across_family_sizes(self):
        small = sparse(self._family_lp(5))
        big_cold = sparse(self._family_lp(8))
        big_warm = sparse(self._family_lp(8), warm_basis=small.basis_labels)
        assert big_warm.objective == big_cold.objective

    def test_bogus_warm_basis_is_harmless(self):
        lp = self._family_lp(4)
        s = sparse(lp, warm_basis=(("v", "nope"), ("s", "missing")))
        assert s.objective == sparse(self._family_lp(4)).objective

    def test_warm_start_never_changes_objective_on_equalities(self):
        lp = LinearProgram("eqfam(a)")
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + y == Fraction(1, 2), name="sum")
        lp.add(x - y <= Fraction(1, 6), name="gap")
        lp.maximize(x)
        cold = sparse(lp)
        lp2 = LinearProgram("eqfam(b)")
        x2, y2 = lp2.var("x"), lp2.var("y")
        lp2.add(x2 + y2 == Fraction(1, 2), name="sum")
        lp2.add(x2 - y2 <= Fraction(1, 6), name="gap")
        lp2.maximize(x2)
        warm = sparse(lp2, warm_basis=cold.basis_labels)
        assert warm.objective == cold.objective == Fraction(1, 3)


class TestDispatchCache:
    def setup_method(self):
        dispatch.clear_cache()

    def teardown_method(self):
        dispatch.clear_cache()

    def _lp(self):
        lp = LinearProgram("cached")
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + 2 * y <= 4, name="a")
        lp.add(3 * x + y <= 6, name="b")
        lp.maximize(x + y)
        return lp

    def test_identical_models_hit_the_cache(self):
        s1 = dispatch.solve(self._lp())
        assert dispatch.cache_stats()["memo_entries"] == 1
        s2 = dispatch.solve(self._lp())
        assert s2.objective == s1.objective and s2.values == s1.values
        assert dispatch.cache_stats()["memo_entries"] == 1

    def test_cached_solution_reattaches_to_callers_lp(self):
        dispatch.solve(self._lp())
        lp2 = self._lp()
        s2 = dispatch.solve(lp2)
        assert s2.lp is lp2
        assert s2.by_name("x") == Fraction(8, 5)

    def test_canonical_key_ignores_names_and_coef_order(self):
        lp1 = self._lp()
        lp2 = LinearProgram("other-name")
        x, y = lp2.var("x"), lp2.var("y")
        lp2.add(2 * y + x <= 4, name="renamed")   # same rows, reordered terms
        lp2.add(y + 3 * x <= 6)
        lp2.maximize(y + x)
        assert dispatch.canonical_key(lp1) == dispatch.canonical_key(lp2)

    def test_canonical_key_distinguishes_different_models(self):
        lp2 = self._lp()
        lp2.add(lp2.get("x") <= 1, name="extra")
        assert dispatch.canonical_key(self._lp()) != dispatch.canonical_key(lp2)

    def test_explicit_backend_not_served_from_other_backends_cache(self):
        s_exact = dispatch.solve(self._lp(), backend="exact")
        s_highs = dispatch.solve(self._lp(), backend="highs")
        assert s_exact.backend == "exact-simplex"
        assert s_highs.backend == "highs+rationalized"

    def test_cache_can_be_disabled(self):
        dispatch.solve(self._lp(), cache=False)
        assert dispatch.cache_stats()["memo_entries"] == 0


def _random_rational_lp(rng):
    """Random rational LP: mixed senses, mixed Fraction/int data, some
    rows redundant, possibly infeasible or unbounded."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 7)
    lp = LinearProgram("diff")
    xs = [lp.var(f"x{i}",
                 lb=rng.choice([0, 0, -1, Fraction(-3, 2), 1]),
                 ub=rng.choice([None, 5, Fraction(7, 2)]))
          for i in range(n)]
    for j in range(m):
        expr = 0
        for x in xs:
            c = Fraction(rng.randint(-3, 4), rng.choice([1, 1, 2, 3]))
            expr = expr + c * x
        b = Fraction(rng.randint(-4, 12), rng.choice([1, 2]))
        sense = rng.choice(["<=", "<=", ">=", "=="])
        if sense == "<=":
            lp.add(expr <= b)
        elif sense == ">=":
            lp.add(expr >= b)
        else:
            lp.add(expr == b)
    lp.maximize(sum(rng.randint(-2, 4) * x for x in xs))
    return lp


class TestDifferentialVsDenseOracle:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_same_status_and_objective_as_dense(self, seed):
        lp = _random_rational_lp(random.Random(seed))
        fast = sparse(lp)
        slow = dense(lp)
        assert fast.status is slow.status
        if fast.status is SolveStatus.OPTIMAL:
            assert fast.objective == slow.objective  # bit-exact rationals
            assert lp.check_feasible(fast.values, tol=0) == []

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_warm_started_resolve_matches_dense(self, seed):
        lp = _random_rational_lp(random.Random(seed))
        cold = sparse(lp)
        if cold.status is not SolveStatus.OPTIMAL:
            return
        warm = sparse(_random_rational_lp(random.Random(seed)),
                      warm_basis=cold.basis_labels)
        assert warm.objective == dense(lp).objective
