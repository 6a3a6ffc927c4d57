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

Variables are non-negative by default (every quantity in the paper's LPs is a
fraction of time or a message rate, both >= 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Union

Number = Union[int, float, Fraction]

LE = "<="
GE = ">="
EQ = "=="


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

    def violation(self, values: Dict[int, Number]) -> Number:
        """How much the constraint is violated (0 when satisfied exactly).

        Positive return means infeasible by that amount.
        """
        v = self.expr.evaluate(values)
        if self.sense == LE:
            return v if v > 0 else 0
        if self.sense == GE:
            return -v if v < 0 else 0
        return abs(v)

    def __repr__(self) -> str:
        return f"Constraint({self.name or '?'}: {self.expr!r} {self.sense} 0)"


class LinearProgram:
    """A linear program: variables, constraints, and a linear objective.

    The objective direction is set by :meth:`maximize` / :meth:`minimize`.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr({}, 0)
        self.sense_max: bool = True
        self._names: Dict[str, Variable] = {}

    def var(self, name: str, lb: Number = 0, ub: Optional[Number] = None) -> Variable:
        """Create (or fetch, if the exact name exists) a variable."""
        if name in self._names:
            return self._names[name]
        v = Variable(name, len(self.variables), lb=lb, ub=ub)
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
        self.constraints.append(constraint)
        return constraint

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
        return len(self.constraints)

    def check_feasible(self, values: Dict[int, Number], tol: Number = 0) -> List[str]:
        """Names of constraints (and variable bounds) violated beyond ``tol``.

        With Fraction values and ``tol=0`` this is an exact feasibility
        certificate; an empty list means the assignment is feasible.
        """
        bad: List[str] = []
        for v in self.variables:
            x = values.get(v.index, 0)
            if x < v.lb - tol:
                bad.append(f"lb:{v.name}")
            if v.ub is not None and x > v.ub + tol:
                bad.append(f"ub:{v.name}")
        for i, c in enumerate(self.constraints):
            if c.violation(values) > tol:
                bad.append(c.name or f"c{i}")
        return bad

    def is_rational(self) -> bool:
        """True when every coefficient/bound is int or Fraction (no floats)."""
        exact = (int, Fraction)
        for v in self.variables:
            if not ((v.lb is None or isinstance(v.lb, exact))
                    and (v.ub is None or isinstance(v.ub, exact))):
                return False
        exprs = [self.objective] + [c.expr for c in self.constraints]
        types = {type(e.constant) for e in exprs}
        for e in exprs:           # the types seen, gathered at C speed
            types.update(map(type, e.coefs.values()))
        return all(issubclass(t, exact) for t in types)

    def __repr__(self) -> str:
        return (f"LinearProgram({self.name!r}, vars={self.num_vars()}, "
                f"constraints={self.num_constraints()})")
