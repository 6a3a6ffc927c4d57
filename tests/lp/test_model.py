"""Unit tests for the LP modeling layer."""

from fractions import Fraction

import pytest

from repro.lp.model import EQ, GE, LE, Constraint, LinearProgram, LinExpr, lin_sum


@pytest.fixture
def lp():
    return LinearProgram("t")


class TestVariables:
    def test_var_defaults_nonnegative(self, lp):
        x = lp.var("x")
        assert x.lb == 0 and x.ub is None

    def test_var_bounds(self, lp):
        x = lp.var("x", lb=1, ub=3)
        assert x.lb == 1 and x.ub == 3

    def test_var_same_name_returns_same_object(self, lp):
        assert lp.var("x") is lp.var("x")

    def test_get_unknown_raises(self, lp):
        with pytest.raises(KeyError):
            lp.get("nope")

    def test_indices_sequential(self, lp):
        a, b = lp.var("a"), lp.var("b")
        assert (a.index, b.index) == (0, 1)


class TestExpressions:
    def test_addition_merges_coefficients(self, lp):
        x, y = lp.var("x"), lp.var("y")
        e = x + y + x
        assert e.coefs[x.index] == 2 and e.coefs[y.index] == 1

    def test_scalar_multiplication(self, lp):
        x = lp.var("x")
        e = 3 * x * Fraction(1, 2)
        assert e.coefs[x.index] == Fraction(3, 2)

    def test_subtraction_and_negation(self, lp):
        x, y = lp.var("x"), lp.var("y")
        e = x - 2 * y
        assert e.coefs[y.index] == -2
        n = -e
        assert n.coefs[x.index] == -1

    def test_rsub(self, lp):
        x = lp.var("x")
        e = 5 - x
        assert e.constant == 5 and e.coefs[x.index] == -1

    def test_constants_accumulate(self, lp):
        x = lp.var("x")
        e = (x + 1) + 2
        assert e.constant == 3

    def test_lin_sum_empty_is_zero(self):
        e = lin_sum([])
        assert isinstance(e, LinExpr) and not e.coefs and e.constant == 0

    def test_lin_sum_mixed(self, lp):
        x, y = lp.var("x"), lp.var("y")
        e = lin_sum([x, 2 * y, 3])
        assert e.coefs[y.index] == 2 and e.constant == 3

    def test_evaluate(self, lp):
        x, y = lp.var("x"), lp.var("y")
        e = 2 * x + y + 1
        assert e.evaluate({x.index: 3, y.index: 4}) == 11

    def test_evaluate_missing_defaults_zero(self, lp):
        x = lp.var("x")
        assert (x + 5).evaluate({}) == 5

    def test_product_of_variables_rejected(self, lp):
        x, y = lp.var("x"), lp.var("y")
        with pytest.raises(TypeError):
            _ = (x + 0) * y

    def test_foreign_type_rejected(self, lp):
        x = lp.var("x")
        with pytest.raises(TypeError):
            _ = x + "str"


class TestConstraints:
    def test_le_builds_constraint(self, lp):
        x = lp.var("x")
        c = x <= 3
        assert isinstance(c, Constraint) and c.sense == LE
        assert c.expr.constant == -3

    def test_ge_and_eq(self, lp):
        x = lp.var("x")
        assert (x >= 1).sense == GE
        assert (x == 1).sense == EQ

    def test_add_rejects_non_constraint(self, lp):
        with pytest.raises(TypeError):
            lp.add(lp.var("x"))  # type: ignore[arg-type]

    def test_violation_le(self, lp):
        x = lp.var("x")
        lp.add(x <= 3)
        assert lp.row_violation(0, {x.index: 5}) == 2
        assert lp.row_violation(0, {x.index: 2}) == 0

    def test_violation_eq_symmetric(self, lp):
        x = lp.var("x")
        lp.add(x == 3)
        assert lp.row_violation(0, {x.index: 1}) == 2
        assert lp.row_violation(0, {x.index: 5}) == 2

    def test_named_constraints(self, lp):
        x = lp.var("x")
        c = lp.add(x <= 1, name="cap")
        assert c.name == "cap"


class TestProgram:
    def test_check_feasible_reports_bounds_and_constraints(self, lp):
        x = lp.var("x", ub=2)
        lp.add(x >= 1, name="low")
        assert lp.check_feasible({x.index: 3}) == ["ub:x"]
        assert lp.check_feasible({x.index: 0}) == ["low"]
        assert lp.check_feasible({x.index: 1}) == []

    def test_check_feasible_with_tolerance(self, lp):
        x = lp.var("x")
        lp.add(x <= 1, name="cap")
        assert lp.check_feasible({x.index: 1.0000001}, tol=1e-6) == []

    def test_is_rational_true_for_fractions(self, lp):
        x = lp.var("x")
        lp.add(Fraction(1, 3) * x <= 1)
        lp.maximize(x)
        assert lp.is_rational()

    def test_is_rational_false_for_floats(self, lp):
        x = lp.var("x")
        lp.add(0.5 * x <= 1)
        assert not lp.is_rational()

    def test_maximize_minimize_flags(self, lp):
        x = lp.var("x")
        lp.maximize(x)
        assert lp.sense_max
        lp.minimize(x)
        assert not lp.sense_max

    def test_counts(self, lp):
        lp.var("a")
        lp.var("b")
        lp.add(lp.get("a") <= 1)
        assert lp.num_vars() == 2 and lp.num_constraints() == 1
