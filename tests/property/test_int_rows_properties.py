"""Property tests for the integer row storage of ``LinearProgram``.

Rows are kept as integer numerators over one denominator per row, and
``check_feasible`` and the optimality certificate work on those
integers.  Here both are compared with a plain Fraction evaluation of
the same random rational data: huge and tiny denominators, negative
coefficients, ``x - x`` cancellation and empty rows included.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.lp.certificate import certify
from repro.lp.model import EQ, GE, LE, LinearProgram, LinExpr

DENS = st.one_of(st.integers(min_value=1, max_value=12),
                 st.sampled_from([10 ** 18 + 9, 2 ** 61 - 1, 3 ** 40]))
rationals = st.builds(Fraction, st.integers(min_value=-10 ** 20,
                                            max_value=10 ** 20), DENS)
small = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                  st.integers(min_value=1, max_value=4))
values = st.one_of(small, rationals)


@st.composite
def rational_lps(draw):
    """A random rational LP plus the data it was built from: per row the
    ``(column, coefficient)`` terms (a cancelled ``x - x`` pair shows up
    as two terms), sense, right-hand side and name."""
    n = draw(st.integers(min_value=1, max_value=5))
    lp = LinearProgram("int-rows")
    bounds = []
    for j in range(n):
        ub = draw(st.none() | small.map(abs))
        bounds.append(ub)
        lp.var(f"x{j}", ub=ub)
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        terms = [(j, draw(values | st.just(Fraction(0)))) for j in cols]
        sense = draw(st.sampled_from([LE, GE, EQ]))
        rhs = draw(values)
        name = f"r{i}" if draw(st.booleans()) else ""
        if draw(st.booleans()):
            lp.add_row([j for j, _ in terms], [c for _, c in terms], sense,
                       rhs, name)
        else:
            xs = lp.variables
            expr = sum((c * xs[j] for j, c in terms), LinExpr())
            if draw(st.booleans()):
                k = draw(st.integers(0, n - 1))
                expr = expr + xs[k] - xs[k]         # cancels to nothing
                terms = terms + [(k, 1), (k, -1)]
            con = {LE: expr <= rhs, GE: expr >= rhs, EQ: expr == rhs}[sense]
            lp.add(con, name)
        rows.append((terms, sense, rhs, name))
    cost = {j: draw(small) for j in range(n) if draw(st.booleans())}
    lp.maximize(sum((c * lp.variables[j] for j, c in cost.items()),
                    LinExpr()))
    return lp, bounds, rows, cost


def _activity(terms, x):
    total = Fraction(0)
    for j, c in terms:
        total += c * x.get(j, 0)
    return total


def _reference_check(bounds, rows, x, tol):
    bad = []
    for j, ub in enumerate(bounds):
        if x.get(j, 0) < -tol:
            bad.append(f"lb:x{j}")
        if ub is not None and x.get(j, 0) > ub + tol:
            bad.append(f"ub:x{j}")
    for i, (terms, sense, rhs, name) in enumerate(rows):
        v = _activity(terms, x) - rhs
        viol = max(v, 0) if sense == LE else max(-v, 0) if sense == GE \
            else abs(v)
        if viol > tol:
            bad.append(name or f"c{i}")
    return bad


def _reference_certify(bounds, rows, cost, x, y):
    """``certify`` written out on Fractions."""
    bad = [f"primal:{r}" for r in _reference_check(bounds, rows, x, 0)]
    bound, ya, dual_bad = Fraction(0), {}, []
    for i, yi in y.items():
        if not yi:
            continue
        terms, sense, rhs, name = rows[i]
        if (sense == LE and yi < 0) or (sense == GE and yi > 0):
            dual_bad.append(f"sign:{name or f'c{i}'}")
        bound += yi * rhs
        for j, a in terms:
            ya[j] = ya.get(j, 0) + yi * a
    for j in set(cost) | set(ya):
        d = cost.get(j, 0) - ya.get(j, 0)
        if d > 0:
            if bounds[j] is None:
                dual_bad.append(f"reduced cost {d} > 0 on x{j} "
                                f"(no upper bound)")
                continue
            bound += d * bounds[j]
    bad += [f"dual:{r}" for r in dual_bad]
    if not dual_bad:
        obj = sum((c * x.get(j, 0) for j, c in cost.items()), Fraction(0))
        if bound != obj:
            bad.append(f"gap: dual bound {bound} != objective {obj}")
    return bad


def _points(draw, n):
    return {j: draw(values) for j in range(n) if draw(st.booleans())}


class TestIntegerRows:
    @given(rational_lps(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_check_feasible_matches_fraction_reference(self, case, data):
        lp, bounds, rows, _ = case
        assert lp.is_rational()
        x = _points(data.draw, lp.num_vars())
        for tol in (0, Fraction(1, 10 ** 6), 1e-9, 1):
            assert lp.check_feasible(x, tol=tol) == \
                _reference_check(bounds, rows, x, tol), tol

    @given(rational_lps(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_certify_matches_fraction_reference(self, case, data):
        lp, bounds, rows, cost = case
        x = _points(data.draw, lp.num_vars())
        y = {i: data.draw(small) for i in range(len(rows))
             if data.draw(st.booleans())}
        assert certify(lp, x, y) == _reference_certify(bounds, rows, cost,
                                                       x, y)

    @given(rational_lps())
    @settings(max_examples=100, deadline=None)
    def test_rows_store_the_built_values_in_order(self, case):
        lp, _, rows, _ = case
        assert lp.num_constraints() == len(rows)
        for i, (terms, sense, rhs, name) in enumerate(rows):
            merged = {}
            for j, c in terms:
                merged[j] = merged.get(j, 0) + c
            assert lp.row_items(i) == [(j, c) for j, c in merged.items() if c]
            assert lp.row_rhs(i) == rhs
            assert (lp.senses[i], lp.names[i]) == (sense, name)
            # one positive least common denominator per row
            assert lp.dens[i] >= 1
            assert all(isinstance(c, int) for c in
                       lp.nums[lp.indptr[i]:lp.indptr[i + 1]])


class TestFloatData:
    def test_float_row_clears_the_rational_flag(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add_row([x.index], [Fraction(1, 3)], LE, 1)
        assert lp.is_rational()
        lp.add_row([x.index], [0.5], LE, 1)
        assert not lp.is_rational()

    def test_float_expression_bound_and_objective_clear_it(self):
        lp = LinearProgram()
        x = lp.var("x")
        lp.add(0.25 * x <= 1)
        assert not lp.is_rational()
        lp = LinearProgram()
        lp.var("x", ub=1.5)
        assert not lp.is_rational()
        lp = LinearProgram()
        lp.maximize(0.5 * lp.var("x"))
        assert not lp.is_rational()

    def test_float_rows_are_checked_as_given(self):
        lp = LinearProgram()
        x, y = lp.var("x"), lp.var("y")
        lp.add(0.1 * x + Fraction(1, 3) * y <= 0.5, "f")
        assert lp.check_feasible({0: 1.0, 1: 1.5}, tol=1e-9) == ["f"]
        assert lp.check_feasible({0: 1.0, 1: 1.2}, tol=1e-9) == []
        assert lp.constraints[0].expr.coefs == {0: 0.1, 1: Fraction(1, 3)}
