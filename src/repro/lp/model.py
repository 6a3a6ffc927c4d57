"""A small linear-programming modeling layer.

Deliberately PuLP-flavoured::

    lp = LinearProgram("sssp")
    tp = lp.var("TP")
    x = lp.var("send_s_a", ub=1)
    lp.add(x + 2 * tp <= 1, "one-port-out")
    lp.maximize(tp)

Coefficients may be ``int``, :class:`fractions.Fraction` or ``float``; the
exact backend requires rationals and will refuse floats (use the HiGHS
backend or convert via :func:`fractions.Fraction`).

``Variable``/``LinExpr`` are only the front end: :meth:`LinearProgram.add`
converts each constraint once into integer CSR rows (integer numerators
over one positive denominator per row), and large builders skip the
expressions with :meth:`LinearProgram.add_row`::

    lp.add_row([x.index, tp.index], [1, 2], "<=", 1, "one-port-out")

Every solve-path reader (presolve, the engines, the certificate, column
generation) works on those rows.

Variables are non-negative by default (every quantity in the paper's LPs is a
fraction of time or a message rate, both >= 0).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.lp.fastfrac import raw_fraction

Number = Union[int, float, Fraction]

LE = "<="
GE = ">="
EQ = "=="

_EXACT = (int, Fraction)
_INT = {int}
_INT_FRACTION = {int, Fraction}
#: integers below this magnitude are exact doubles
_EXACT_INT = 2 ** 53


class Variable:
    """A decision variable with bounds ``lb <= x <= ub``.

    Comparison operators build :class:`Constraint` objects (PuLP style), so
    variables must never be used as dict keys relying on ``==``; internally
    everything is keyed by :attr:`index`.
    """

    __slots__ = ("name", "index", "lb", "ub")

    def __init__(self, name: str, index: int, lb: Number = 0,
                 ub: Optional[Number] = None) -> None:
        self.name = name
        self.index = index
        self.lb = lb
        self.ub = ub

    # arithmetic — promote to LinExpr
    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1}, 0, _vars={self.index: self})

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-self._expr()) + other

    def __mul__(self, k):
        return self._expr() * k

    __rmul__ = __mul__

    def __neg__(self):
        return self._expr() * -1

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self._expr() == other

    def __hash__(self) -> int:  # identity-ish hash despite __eq__ override
        return object.__hash__(self)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """Affine expression ``sum(coef_i * x_i) + constant``."""

    __slots__ = ("coefs", "constant", "_vars")

    def __init__(self, coefs: Optional[Dict[int, Number]] = None,
                 constant: Number = 0,
                 _vars: Optional[Dict[int, Variable]] = None) -> None:
        self.coefs: Dict[int, Number] = dict(coefs or {})
        self.constant = constant
        self._vars: Dict[int, Variable] = dict(_vars or {})

    @staticmethod
    def _coerce(x) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, Variable):
            return x._expr()
        if isinstance(x, (int, float, Fraction)):
            return LinExpr({}, x)
        raise TypeError(f"cannot use {x!r} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(self.coefs, self.constant, _vars=self._vars)

    # -- in-place accumulation (the hot path for LP builders) ----------
    def add_term(self, var: "Variable", coef: Number = 1) -> "LinExpr":
        """Accumulate ``coef * var`` in place and return ``self``.

        This is the linear-time building block: ``lin_sum`` and the LP
        builders in :mod:`repro.core` use it instead of ``+``, which copies
        the whole expression on every application (O(n²) in terms).
        """
        idx = var.index
        c = self.coefs.get(idx, 0) + coef
        if c:
            self.coefs[idx] = c
            self._vars[idx] = var
        else:
            self.coefs.pop(idx, None)
        return self

    def add_expr(self, other) -> "LinExpr":
        """Accumulate a Variable/LinExpr/Number in place; return ``self``."""
        if isinstance(other, Variable):
            return self.add_term(other)
        if isinstance(other, (int, float, Fraction)):
            self.constant = self.constant + other
            return self
        other = self._coerce(other)
        coefs, vars_ = self.coefs, self._vars
        for idx, c in other.coefs.items():
            coefs[idx] = coefs.get(idx, 0) + c
            vars_[idx] = other._vars[idx]
        self.constant = self.constant + other.constant
        return self

    def __add__(self, other):
        return self.copy().add_expr(other)

    __radd__ = __add__

    def __iadd__(self, other):
        # ``e += x`` mutates in place — only use on expressions you own.
        return self.add_expr(other)

    def __sub__(self, other):
        return self + (self._coerce(other) * -1)

    def __rsub__(self, other):
        return (self * -1) + other

    def __mul__(self, k):
        if isinstance(k, (LinExpr, Variable)):
            raise TypeError("products of variables are not linear")
        out = LinExpr({i: c * k for i, c in self.coefs.items()},
                      self.constant * k, _vars=self._vars)
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __le__(self, other):
        return Constraint(self - other, LE)

    def __ge__(self, other):
        return Constraint(self - other, GE)

    def __eq__(self, other):  # type: ignore[override]
        return Constraint(self - other, EQ)

    def __hash__(self):
        return object.__hash__(self)

    def evaluate(self, values: Dict[int, Number]) -> Number:
        """Value of the expression under an assignment ``{var index: value}``."""
        total = self.constant
        for idx, c in self.coefs.items():
            total = total + c * values.get(idx, 0)
        return total

    def variables(self) -> List[Variable]:
        return [self._vars[i] for i in self.coefs]

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{self._vars[i].name}" for i, c in self.coefs.items())
        return f"LinExpr({terms} + {self.constant})"


def lin_sum(items: Iterable) -> LinExpr:
    """Sum of variables/expressions (like ``pulp.lpSum``); empty -> 0.

    Accumulates in place into a fresh expression — linear in the total
    number of terms, unlike a ``+`` fold, which copies every partial sum.
    """
    total = LinExpr({}, 0)
    for it in items:
        total.add_expr(it)
    return total


class Constraint:
    """Normalized constraint ``expr (<=|>=|==) 0``."""

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    def __repr__(self) -> str:
        return f"Constraint({self.name or '?'}: {self.expr!r} {self.sense} 0)"


def int_row(coefs: Sequence[Number], rhs: Number):
    """``(numerators, den, rhs numerator)`` of a rational row over its
    least common denominator, or ``None`` when it carries float data."""
    types = set(map(type, coefs))
    types.add(type(rhs))
    if types == _INT:
        return list(coefs), 1, rhs
    if not types <= _INT_FRACTION and not all(
            isinstance(c, _EXACT) for c in chain(coefs, (rhs,))):
        return None
    den = common_denominator(chain(coefs, (rhs,)))
    return ([c.numerator * (den // c.denominator) for c in coefs], den,
            rhs.numerator * (den // rhs.denominator))


def common_denominator(values: Iterable[Number]) -> int:
    """Least common multiple of the denominators of ints and Fractions:
    the smallest positive factor that makes every one an integer."""
    return lcm(*[x.denominator for x in values])


def exact_value(num: Number, den: int) -> Number:
    """The value ``num / den`` of one stored entry: an ``int`` when it is
    integral, else a normalized :class:`Fraction` (a float row's entries,
    stored with ``den == 1``, come back as given)."""
    if den == 1:
        return num
    g = gcd(num, den)
    if g == den:
        return num // den
    return raw_fraction(num // g, den // g)


class LinearProgram:
    """A linear program: variables, constraints, and a linear objective.

    The objective direction is set by :meth:`maximize` / :meth:`minimize`.

    **Row storage.**  Constraints are stored once, as compressed sparse
    rows: row ``i``'s entries are ``cols[k]``/``nums[k]`` for ``k`` in
    ``range(indptr[i], indptr[i + 1])``, and it reads ``sum(nums[k] *
    x[cols[k]]) (senses[i]) rhs[i]`` over the positive row denominator
    ``dens[i]`` — integer numerators over the least common denominator
    of the row's coefficients and right-hand side.  Entries keep the
    order they were given in; zero coefficients are dropped.  A row
    with float data keeps its values as given (``dens[i] == 1``) and
    makes the model non-rational.  :attr:`constraints` is a read-only
    :class:`Constraint` view of the rows for tests and small callers.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.objective: LinExpr = LinExpr({}, 0)
        self.sense_max: bool = True
        self._names: Dict[str, Variable] = {}
        self.indptr: List[int] = [0]
        self.cols: List[int] = []
        self.nums: List[Number] = []
        self.dens: List[int] = []
        self.rhs: List[Number] = []
        self.senses: List[str] = []
        self.names: List[str] = []
        #: no float bound or row has been added
        self._exact = True
        self._view: Tuple[Constraint, ...] = ()

    def var(self, name: str, lb: Number = 0, ub: Optional[Number] = None) -> Variable:
        """Create (or fetch, if the exact name exists) a variable."""
        if name in self._names:
            return self._names[name]
        v = Variable(name, len(self.variables), lb=lb, ub=ub)
        if (type(lb) is not int or ub is not None) and not (
                isinstance(lb, _EXACT) and (ub is None or isinstance(ub, _EXACT))):
            self._exact = False
        self.variables.append(v)
        self._names[name] = v
        return v

    def get(self, name: str) -> Variable:
        """Fetch an existing variable by name (KeyError if absent)."""
        return self._names[name]

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint (built via ``expr <= rhs`` etc.)."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add() expects a Constraint; build one with <=, >= or == "
                f"(got {constraint!r})")
        if name:
            constraint.name = name
        e = constraint.expr
        self.add_row(list(e.coefs), list(e.coefs.values()), constraint.sense,
                     -e.constant, constraint.name)
        return constraint

    def add_row(self, cols: Sequence[int], coefs: Sequence[Number],
                sense: str, rhs: Number = 0, name: str = "") -> int:
        """Append the row ``sum(coefs[k] * x[cols[k]]) (sense) rhs`` over
        distinct variable indices ``cols``; returns its position."""
        if sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {sense!r}")
        if len(set(cols)) != len(cols):
            raise ValueError(f"row {name!r} repeats a column")
        row = int_row(coefs, rhs)
        if row is None:
            self._exact = False
            nums, den = list(coefs), 1
        else:
            nums, den, rhs = row
        if 0 in nums:
            kept = [(j, c) for j, c in zip(cols, nums) if c]
            cols, nums = [j for j, _ in kept], [c for _, c in kept]
        return self.add_int_row(cols, nums, den, rhs, sense, name)

    def add_int_row(self, cols: Sequence[int], nums: Sequence[int],
                    den: int, rhs: int, sense: str, name: str = "") -> int:
        """Append a row already in stored form, e.g. copied from another
        model's arrays: nonzero integer numerators ``nums`` and ``rhs``
        over ``den``, with no factor common to all of them."""
        self.cols.extend(cols)
        self.nums.extend(nums)
        self.indptr.append(len(self.cols))
        self.dens.append(den)
        self.rhs.append(rhs)
        self.senses.append(sense)
        self.names.append(name)
        return len(self.senses) - 1

    def row_items(self, i: int) -> List[Tuple[int, Number]]:
        """Row ``i``'s ``(column, exact value)`` entries, in order."""
        a, b, den = self.indptr[i], self.indptr[i + 1], self.dens[i]
        if den == 1:
            return list(zip(self.cols[a:b], self.nums[a:b]))
        return [(j, exact_value(c, den))
                for j, c in zip(self.cols[a:b], self.nums[a:b])]

    def row_rhs(self, i: int) -> Number:
        """Row ``i``'s right-hand side as an exact value."""
        return exact_value(self.rhs[i], self.dens[i])

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """Read-only :class:`Constraint` view of the rows, built on first
        access (and again after rows were added)."""
        if len(self._view) != len(self.senses):
            view = []
            for i, sense in enumerate(self.senses):
                items = self.row_items(i)
                expr = LinExpr(dict(items), -self.row_rhs(i),
                               _vars={j: self.variables[j] for j, _ in items})
                view.append(Constraint(expr, sense, self.names[i]))
            self._view = tuple(view)
        return self._view

    def float_rows(self):
        """The rows as float CSR blocks for HiGHS, each entry the correctly
        rounded ``num / den``: ``(a_ub, b_ub, ub_rows, a_eq, b_eq,
        eq_rows)`` with ``>=`` rows negated into the ``<=`` block,
        ``ub_rows``/``eq_rows`` the positions of each block's rows, and a
        block without rows ``None``.  Each row keeps its entry order, so a CSR product sums
        it left to right."""
        from scipy.sparse import csr_array

        n, m = len(self.variables), len(self.senses)
        counts = np.diff(np.asarray(self.indptr, dtype=np.int64))
        data = _ratios(self.nums, np.repeat(np.asarray(self.dens), counts),
                       self._exact)
        senses = np.asarray(self.senses)
        sign = np.where(senses == GE, -1.0, 1.0)
        # -sign * float(-rhs): the float a LinExpr's constant gave
        b = -sign * _ratios([-r for r in self.rhs], np.asarray(self.dens),
                            self._exact)
        a = csr_array((data * np.repeat(sign, counts),
                       np.asarray(self.cols, dtype=np.int64),
                       np.asarray(self.indptr, dtype=np.int64)), shape=(m, n))
        is_eq = senses == EQ
        ub_rows, eq_rows = np.flatnonzero(~is_eq), np.flatnonzero(is_eq)
        a_ub = a[ub_rows] if ub_rows.size else None
        a_eq = a[eq_rows] if eq_rows.size else None
        return (a_ub, b[ub_rows] if ub_rows.size else None, ub_rows,
                a_eq, b[eq_rows] if eq_rows.size else None, eq_rows)

    def maximize(self, expr) -> None:
        self.objective = LinExpr._coerce(expr)
        self.sense_max = True

    def minimize(self, expr) -> None:
        self.objective = LinExpr._coerce(expr)
        self.sense_max = False

    # ------------------------------------------------------------------
    def num_vars(self) -> int:
        return len(self.variables)

    def num_constraints(self) -> int:
        return len(self.senses)

    def check_feasible(self, values: Dict[int, Number], tol: Number = 0) -> List[str]:
        """Names of constraints (and variable bounds) violated beyond ``tol``.

        With Fraction values and ``tol=0`` this is an exact feasibility
        certificate; an empty list means the assignment is feasible.
        Rational data and values are checked on integers: ``x`` over one
        common denominator, one integer dot product per row, and a
        Fraction only for a row found violated under ``tol > 0``.
        """
        bad: List[str] = []
        for v in self.variables:
            x = values.get(v.index, 0)
            if x < v.lb - tol:
                bad.append(f"lb:{v.name}")
            if v.ub is not None and x > v.ub + tol:
                bad.append(f"ub:{v.name}")
        if not (self._exact and tol >= 0
                and all(map(_is_exact, values.values()))):
            return bad + [self.names[i] or f"c{i}"
                          for i in range(len(self.senses))
                          if self.row_violation(i, values) > tol]
        n = len(self.variables)
        big = common_denominator(values.values())
        xs = [0] * n
        for j, x in values.items():
            if 0 <= j < n:
                xs[j] = x.numerator * (big // x.denominator)
        get = xs.__getitem__
        indptr, cols, nums, dens = self.indptr, self.cols, self.nums, self.dens
        for i, (sense, b) in enumerate(zip(self.senses, self.rhs)):
            a, e = indptr[i], indptr[i + 1]
            t = sum(map(mul, nums[a:e], map(get, cols[a:e]))) - b * big
            viol = t if sense == LE else -t if sense == GE else abs(t)
            if viol > 0 and (not tol or Fraction(viol, dens[i] * big) > tol):
                bad.append(self.names[i] or f"c{i}")
        return bad

    def row_violation(self, i: int, values: Dict[int, Number]) -> Number:
        """How much row ``i`` is violated under ``values`` (0 when it
        holds, positive by the amount it is infeasible), evaluated term
        by term in the values' own arithmetic."""
        v = -self.row_rhs(i)
        for j, c in self.row_items(i):
            v = v + c * values.get(j, 0)
        sense = self.senses[i]
        if sense == LE:
            return v if v > 0 else 0
        if sense == GE:
            return -v if v < 0 else 0
        return abs(v)

    def is_rational(self) -> bool:
        """True when every coefficient/bound is int or Fraction (no floats).

        Bounds and rows are checked as they are added; only the
        objective is looked at here."""
        return self._exact and _is_exact(self.objective.constant) \
            and all(map(_is_exact, self.objective.coefs.values()))

    def __repr__(self) -> str:
        return (f"LinearProgram({self.name!r}, vars={self.num_vars()}, "
                f"constraints={self.num_constraints()})")


def _is_exact(x) -> bool:
    return isinstance(x, _EXACT)


def _ratios(nums: Sequence[Number], dens, exact: bool) -> np.ndarray:
    """Floats of ``nums[k] / dens[k]``, each correctly rounded (as
    ``float(Fraction)`` is): in numpy when every operand is an exact
    double, else by Python's int true division."""
    if exact:
        try:
            a = np.asarray(nums, dtype=np.int64)
        except OverflowError:
            a = None
        if a is not None and dens.dtype != object \
                and np.all((a > -_EXACT_INT) & (a < _EXACT_INT)) \
                and np.all(dens < _EXACT_INT):
            return a.astype(float) / dens
    return np.array([c / d if isinstance(c, int) else float(c) / d
                     for c, d in zip(nums, dens.tolist())], dtype=float)
