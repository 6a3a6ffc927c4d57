"""Presolve/postsolve correctness: unit rules, collective round trips,
randomized differential tests against the un-presolved solver and a
certified revised-engine optimum, and the canonical-vertex identity
guarantee."""

import random
from fractions import Fraction

import pytest

from repro.collectives import get_collective
from repro.core.gossip import GossipProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.core.scatter import ScatterProblem
from repro.lp import solve
from repro.lp.certificate import certify
from repro.lp.dispatch import clear_cache
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import LinearProgram
from repro.lp.presolve import presolve
from repro.lp.revised_simplex import RevisedSimplexSolver
from repro.lp.solution import SolveStatus
from repro.platform.examples import (
    figure2_platform,
    figure2_targets,
    figure6_platform,
)


def roundtrip(lp, **presolve_kw):
    """Presolve -> exact solve -> postsolve; returns (values, objective,
    reduction result)."""
    pr = presolve(lp, **presolve_kw)
    assert not pr.infeasible
    sol = ExactSimplexSolver().solve(pr.lp, canonical=presolve_kw.get(
        "for_canonical", False))
    assert sol.optimal
    values = pr.postsolve.values(sol.values)
    return values, lp.objective.evaluate(values), pr


# ----------------------------------------------------------------------
class TestRules:
    def test_fixed_variable_substituted(self):
        lp = LinearProgram()
        x = lp.var("x", lb=2, ub=2)
        y = lp.var("y")
        lp.add(x + y <= 5)
        lp.maximize(y)
        values, obj, pr = roundtrip(lp)
        # x substitutes, leaving y <= 3 (a singleton row), which cascades
        # into a bound and a zero column: the whole LP dissolves
        assert pr.stats["fixed_var"] == 1
        assert pr.lp.num_vars() == 0
        assert values == {x.index: 2, y.index: 3} and obj == 3

    def test_singleton_row_becomes_bound(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(2 * x <= 3)
        lp.add(x + y <= 10)
        lp.maximize(x + y)
        values, obj, pr = roundtrip(lp)
        assert pr.stats["singleton_row"] == 1
        assert obj == 10

    def test_singleton_eq_row_fixes_and_cascades(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(3 * x == 2)
        lp.add(x + y <= 1)
        lp.maximize(y)
        values, obj, pr = roundtrip(lp)
        assert values[x.index] == Fraction(2, 3)
        assert obj == Fraction(1, 3)
        # the whole LP dissolves: x fixed, then y's row is a singleton
        assert pr.lp.num_vars() == 0 and pr.lp.num_constraints() == 0

    def test_zero_column_sits_at_preferred_bound(self):
        lp = LinearProgram()
        x = lp.var("x", ub=4)   # in no constraint; maximize pushes to ub
        z = lp.var("z", lb=1)   # in no constraint; not in objective -> lb
        y = lp.var("y")
        lp.add(y <= 2)
        lp.maximize(x + y)
        values, obj, pr = roundtrip(lp)
        # y <= 2 cascades (singleton row -> bound -> zero column), so all
        # three variables resolve as zero columns
        assert pr.stats["zero_col"] == 3
        assert values[x.index] == 4 and values[z.index] == 1 and obj == 6

    def test_unbounded_zero_column_left_for_the_solver(self):
        lp = LinearProgram()
        x = lp.var("x")  # no ub, positive objective: unbounded direction
        y = lp.var("y")
        lp.add(y <= 1)
        lp.maximize(x)
        pr = presolve(lp)
        sol = ExactSimplexSolver().solve(pr.lp)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_duplicate_rows_keep_tightest(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + y <= 5)
        lp.add(2 * x + 2 * y <= 4)   # same row scaled; tighter (<= 2)
        lp.add(x + y <= 7)
        lp.maximize(x + y)
        values, obj, pr = roundtrip(lp)
        assert pr.stats["duplicate_row"] == 2
        assert obj == 2

    def test_contradictory_duplicate_eq_rows_infeasible(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x + y == 1)
        lp.add(2 * x + 2 * y == 3)
        lp.maximize(x)
        assert presolve(lp).infeasible

    def test_dominated_row_dropped(self):
        lp = LinearProgram()
        x, y, z = lp.var("x"), lp.var("y"), lp.var("z")
        lp.add(x + y <= 1, "edge")           # dominated by the out row
        lp.add(x + y + z <= 1, "out")
        lp.maximize(x + y + z)
        values, obj, pr = roundtrip(lp)
        assert pr.stats["dominated_row"] == 1
        assert [c.name for c in pr.lp.constraints] == ["out"]
        assert obj == 1

    def test_free_singleton_eq_substitution(self):
        # s appears only in the equality, cost 0, no ub: the row relaxes
        # to an inequality and postsolve recomputes s
        lp = LinearProgram()
        x, s = lp.var("x", ub=10), lp.var("s")
        lp.add(x + s == 7)
        lp.maximize(x)
        values, obj, pr = roundtrip(lp)
        assert pr.stats["free_singleton"] >= 1
        assert obj == 7
        assert values.get(x.index, 0) + values.get(s.index, 0) == 7
        assert lp.check_feasible(values) == []

    def test_free_singleton_negative_le_drops_row(self):
        # -s + x <= 0 with s free upward: s absorbs anything, row vanishes,
        # postsolve lifts s to x's value
        lp = LinearProgram()
        x, s = lp.var("x", ub=3), lp.var("s")
        lp.add(x - s <= 0)
        lp.maximize(x)
        values, obj, pr = roundtrip(lp)
        assert obj == 3
        assert values[s.index] >= values[x.index]
        assert lp.check_feasible(values) == []

    def test_singleton_row_conflict_infeasible(self):
        lp = LinearProgram()
        x = lp.var("x", ub=1)
        lp.add(x >= 2)
        lp.maximize(x)
        assert presolve(lp).infeasible

    def test_empty_row_feasibility_checked(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add(x - x <= -1)  # 0 <= -1
        lp.maximize(x)
        assert presolve(lp).infeasible

    def test_fully_dissolved_lp(self):
        lp = LinearProgram()
        x = lp.var("x", lb=3, ub=3)
        lp.maximize(x)
        values, obj, pr = roundtrip(lp)
        assert obj == 3 and pr.lp.num_vars() == 0

    def test_reduced_objective_carries_eliminated_contributions(self):
        # the reduced LP's own optimum must equal the original optimum:
        # eliminated variables with objective coefficients fold their
        # contribution into the reduced objective constant
        lp = LinearProgram()
        x = lp.var("x", lb=3, ub=3)        # fixed, obj coef 2
        y = lp.var("y")                    # singleton row -> zero column
        z = lp.var("z")
        lp.add(y <= 5)
        lp.add(z <= 1)
        lp.maximize(2 * x + y + z)
        pr = presolve(lp)
        reduced = ExactSimplexSolver().solve(pr.lp)
        assert reduced.optimal and reduced.objective == 12
        direct = ExactSimplexSolver().solve(lp)
        assert direct.objective == 12

    def test_infeasible_result_summary_does_not_raise(self):
        lp = LinearProgram()
        x = lp.var("x", lb=5, ub=5)
        lp.add(x <= 1)
        lp.maximize(x)
        pr = presolve(lp)
        assert pr.infeasible
        assert "infeasible" in pr.summary()


# ----------------------------------------------------------------------
def _collective_problems():
    fig2 = figure2_platform()
    tri = figure6_platform()
    return {
        "scatter": ScatterProblem(fig2, "Ps", figure2_targets()),
        "reduce": ReduceProblem(tri, [0, 1, 2], target=0),
        "gossip": GossipProblem(tri, [0, 1, 2], [0, 1, 2]),
        "prefix": ReduceProblem(tri, [0, 1, 2], target=0),
        "reduce-scatter": ReduceScatterProblem(tri, [0, 1, 2]),
    }


@pytest.mark.parametrize("name", ["scatter", "reduce", "gossip", "prefix",
                                  "reduce-scatter"])
class TestCollectiveRoundTrip:
    def test_postsolve_matches_direct_solve(self, name):
        lp = get_collective(name).build_lp(_collective_problems()[name])
        direct = ExactSimplexSolver().solve(lp)
        values, obj, pr = roundtrip(lp)
        assert obj == direct.objective
        assert lp.check_feasible(values, tol=0) == []
        # presolve must actually bite on the collective LPs
        assert pr.lp.num_constraints() < lp.num_constraints()

    def test_canonical_vertex_identical_with_and_without_presolve(self, name):
        lp = get_collective(name).build_lp(_collective_problems()[name])
        plain = ExactSimplexSolver().solve(lp, canonical=True)
        values, obj, pr = roundtrip(lp, for_canonical=True)
        assert obj == plain.objective
        assert values == plain.values

    def test_dispatch_presolve_on_off_same_objective(self, name):
        lp_on = get_collective(name).build_lp(_collective_problems()[name])
        lp_off = get_collective(name).build_lp(_collective_problems()[name])
        clear_cache()
        on = solve(lp_on, backend="exact", presolve=True, cache=False)
        off = solve(lp_off, backend="exact", presolve=False, cache=False)
        assert on.objective == off.objective
        assert lp_on.check_feasible(on.values, tol=0) == []


# ----------------------------------------------------------------------
def _random_lp(rng: random.Random, n_vars: int, n_rows: int,
               force_structure: bool) -> LinearProgram:
    """Sparse random rational LP; with ``force_structure`` it salts in the
    patterns presolve targets (fixed vars, singletons, duplicates)."""
    lp = LinearProgram("rand")
    xs = []
    for j in range(n_vars):
        lb = rng.choice([0, 0, 0, 1])
        if force_structure and rng.random() < 0.15:
            xs.append(lp.var(f"x{j}", lb=2, ub=2))  # fixed
        else:
            ub = rng.choice([None, None, 3, Fraction(5, 2)])
            xs.append(lp.var(f"x{j}", lb=lb, ub=ub))
    rows = []
    for i in range(n_rows):
        support = rng.sample(range(n_vars), k=min(n_vars,
                                                  rng.randint(1, 4)))
        expr = 0
        for j in support:
            expr = expr + rng.choice([1, 2, -1, Fraction(1, 2), 3]) * xs[j]
        sense = rng.choice(["<=", "<=", ">=", "=="])
        rhs = rng.choice([0, 1, 2, Fraction(7, 3), 5])
        if sense == "<=":
            con = expr <= rhs
        elif sense == ">=":
            con = expr >= rhs
        else:
            con = expr == rhs
        lp.add(con)
        rows.append(con)
    if force_structure and rows:
        # duplicate a random row at a positive scale
        src = rng.choice(rows)
        dup = sum((2 * c * lp.variables[j] for j, c in src.expr.coefs.items()),
                  start=0 * xs[0])
        lp.add(dup <= -2 * src.expr.constant if src.sense == "<="
               else dup == -2 * src.expr.constant)
    obj = 0
    for j in rng.sample(range(n_vars), k=max(1, n_vars // 2)):
        obj = obj + rng.choice([1, 2, -1, Fraction(3, 2)]) * xs[j]
    lp.maximize(obj)
    return lp


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_presolved_matches_unpresolved_and_oracle(self, seed):
        rng = random.Random(1000 + seed)
        lp = _random_lp(rng, n_vars=rng.randint(2, 7),
                        n_rows=rng.randint(1, 8),
                        force_structure=seed % 2 == 0)
        direct = ExactSimplexSolver().solve(lp)
        # the oracle: a revised-engine optimum its own duals prove exact
        oracle = RevisedSimplexSolver().solve(lp, want_duals=True)
        assert direct.status is oracle.status
        if oracle.optimal:
            assert certify(lp, oracle.values, oracle.duals) == []
            assert direct.objective == oracle.objective
        pr = presolve(lp)
        if pr.infeasible:
            assert oracle.status is SolveStatus.INFEASIBLE
            return
        reduced = ExactSimplexSolver().solve(pr.lp)
        assert reduced.status is oracle.status
        if reduced.optimal:
            values = pr.postsolve.values(reduced.values)
            assert lp.objective.evaluate(values) == oracle.objective
            assert lp.check_feasible(values, tol=0) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_canonical_identity_randomized(self, seed):
        rng = random.Random(7000 + seed)
        lp = _random_lp(rng, n_vars=rng.randint(2, 6),
                        n_rows=rng.randint(1, 6), force_structure=True)
        plain = ExactSimplexSolver().solve(lp, canonical=True)
        if not plain.optimal:
            return
        pr = presolve(lp, for_canonical=True)
        assert not pr.infeasible
        reduced = ExactSimplexSolver().solve(pr.lp, canonical=True)
        assert reduced.optimal
        assert pr.postsolve.values(reduced.values) == plain.values

    def test_degenerate_lp(self):
        lp = LinearProgram()
        x, y, z = lp.var("x"), lp.var("y"), lp.var("z")
        lp.add(x + y + z <= 1)
        lp.add(x + y <= 1)
        lp.add(2 * x + 2 * y + 2 * z <= 2)
        lp.maximize(x + y + z)
        values, obj, pr = roundtrip(lp)
        assert obj == 1 and lp.check_feasible(values, tol=0) == []

    def test_unbounded_lp_status_preserved(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(x - y <= 1)
        lp.maximize(x)
        pr = presolve(lp)
        assert not pr.infeasible
        assert ExactSimplexSolver().solve(pr.lp).status \
            is SolveStatus.UNBOUNDED

    def test_infeasible_lp_status_preserved(self):
        lp = LinearProgram()
        x, y = lp.var("x", ub=1), lp.var("y", ub=1)
        lp.add(x + y >= 3)
        lp.maximize(x)
        pr = presolve(lp)
        if not pr.infeasible:
            assert ExactSimplexSolver().solve(pr.lp).status \
                is SolveStatus.INFEASIBLE
