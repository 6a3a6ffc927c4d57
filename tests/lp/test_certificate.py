"""The exact optimality certificate: proved optima pass, and every way a
primal/dual pair can fall short of a proof is reported."""

from fractions import Fraction

import pytest

from repro.lp.certificate import certify, dual_bound
from repro.lp.model import LinearProgram


def two_row_lp(sense="max"):
    """``x + 2y <= 4``, ``3x + y <= 6``; optimum of ``x + y`` is 14/5 at
    (8/5, 6/5) with multipliers (2/5, 1/5)."""
    lp = LinearProgram()
    x, y = lp.var("x"), lp.var("y")
    lp.add(x + 2 * y <= 4, "a")
    lp.add(3 * x + y <= 6, "b")
    if sense == "max":
        lp.maximize(x + y)
    else:
        lp.minimize(-x - y)
    return lp


OPT_X = {0: Fraction(8, 5), 1: Fraction(6, 5)}
OPT_Y = {0: Fraction(2, 5), 1: Fraction(1, 5)}


def test_proved_optimum_passes():
    lp = two_row_lp()
    assert certify(lp, OPT_X, OPT_Y) == []
    assert dual_bound(lp, OPT_Y) == (Fraction(14, 5), [])


def test_feasible_suboptimal_point_fails():
    lp = two_row_lp()
    bad = certify(lp, {0: 1, 1: 1}, OPT_Y)
    assert bad == ["gap: dual bound 14/5 != objective 2"]


def test_infeasible_point_fails():
    lp = two_row_lp()
    assert "primal:a" in certify(lp, {0: 4, 1: 4}, OPT_Y)


def test_wrong_sign_le_multiplier_fails():
    lp = two_row_lp()
    y = {0: Fraction(-2, 5), 1: Fraction(1, 5)}
    assert any(r.startswith("dual:sign:a") for r in certify(lp, OPT_X, y))


def test_wrong_sign_ge_multiplier_fails():
    # x >= 1 as a >= row: its multiplier must be <= 0 in a max LP
    lp = LinearProgram()
    x = lp.var("x", ub=3)
    lp.add(x >= 1, "floor")
    lp.maximize(x)
    assert certify(lp, {0: 3}, {}) == []          # the ub proves it
    bad = certify(lp, {0: 3}, {0: 1})
    assert any(r.startswith("dual:sign:floor") for r in bad)


def test_positive_reduced_cost_on_unbounded_variable_fails():
    lp = two_row_lp()
    bound, bad = dual_bound(lp, {})               # y = 0: c_j - 0 > 0
    assert bound is None
    assert any("no upper bound" in r for r in bad)


def test_positive_reduced_cost_priced_by_finite_upper_bound():
    lp = LinearProgram()
    x = lp.var("x", ub=Fraction(7, 2))
    z = lp.var("z", lb=-2)
    lp.add(x + z <= 5, "cap")
    lp.maximize(2 * x + z)
    # y = 1 on cap: d_x = 2 - 1 = 1 > 0 prices ub 7/2, d_z = 0
    assert certify(lp, {0: Fraction(7, 2), 1: Fraction(3, 2)}, {0: 1}) == []
    # y = 3 on cap: d_x = -1 prices lb 0, d_z = -2 prices lb -2 (+4)
    assert dual_bound(lp, {0: 3}) == (15 + 4, [])


def test_min_form_lp_needs_mirrored_signs():
    lp = two_row_lp("min")
    flipped = {i: -v for i, v in OPT_Y.items()}
    assert certify(lp, OPT_X, flipped) == []
    bad = certify(lp, OPT_X, OPT_Y)               # max-form signs
    assert any(r.startswith("dual:sign:") for r in bad)


def test_objective_constant_is_part_of_the_bound():
    lp = LinearProgram()
    x = lp.var("x")
    lp.add(x <= 1, "cap")
    lp.maximize(x + 5)
    assert certify(lp, {0: 1}, {0: 1}) == []
    assert dual_bound(lp, {0: 1}) == (6, [])
    # a multiplier that absorbs the constant into y.b proves nothing
    assert certify(lp, {0: 1}, {0: 6}) != []



@pytest.mark.parametrize("where", ["row", "rhs", "bound", "objective"])
def test_float_data_gives_a_float_bound(where):
    """A float coefficient, right-hand side, bound or cost is no error:
    float rows are summed term by term and give a float bound, and a
    matching primal/dual pair still passes."""
    lp = LinearProgram()
    x = lp.var("x", ub=9.5 if where == "bound" else None)
    a = 0.5 if where == "row" else 1
    b = 4.0 if where == "rhs" else 4
    lp.add(a * x <= b, "a")
    c = 1.5 if where == "objective" else 1
    lp.maximize(c * x)
    assert not lp.is_rational()
    y = Fraction(c) / Fraction(a)
    bound, bad = dual_bound(lp, {0: y})
    assert bad == [] and bound == y * b
    assert isinstance(bound, float) is (where != "bound")
    assert certify(lp, {0: b / a}, {0: y}) == []
