"""Fraction-preserving LP presolve / postsolve (run before any backend).

The collective LPs carry a lot of structural slack: every ``edge[i->j]``
one-port row is componentwise dominated by its ``out[i]`` row, chains and
rings make ``out``/``in`` rows literal duplicates of edge rows, and test
or generator LPs are full of fixed variables and singleton rows.  This
module shrinks the model *exactly* — all arithmetic stays in
``int``/``Fraction`` (floats pass through untouched), so the reduced LP
has the same optimal objective and its solution maps back to a feasible,
optimal solution of the original.

Reductions (applied to a fixpoint, each with its postsolve inverse):

``empty_row``
    A constraint with no variables.  Feasibility of ``0 (sense) b`` is
    checked exactly; feasible rows vanish.  *Inverse:* nothing.
``singleton_row``
    ``a*x <= b`` (or ``>=``/``==``) with a single variable turns into a
    bound: inequalities tighten ``lb``/``ub``, equalities fix ``x = b/a``.
    The feasible region is unchanged.  *Inverse:* nothing (the variable
    keeps its value; a bound is not a removed quantity).
``fixed_var``
    ``lb == ub`` substitutes the forced value into every row and the
    objective.  *Inverse:* report the forced value.
``zero_col``
    A variable in no constraint sits at whichever bound the objective
    prefers (at ``lb`` when the objective is indifferent — the lex-least
    choice, so canonical solves are unaffected).  Columns whose improving
    direction is unbounded are *kept* so the simplex can certify
    unboundedness itself.  *Inverse:* report the chosen bound.
``duplicate_row``
    Rows equal up to a nonzero scale (same integer row divided by its
    gcd, sign fixed by the first column) collapse to the tightest of the
    group; equalities swallow consistent inequalities, and contradictory
    pairs prove infeasibility.  *Inverse:* nothing.
``dominated_row``
    ``r: a.x <= b`` is dropped when another row ``r': a'.x <= b'`` with
    ``a' >= a >= 0`` componentwise, ``b' <= b``, and all involved
    variables nonnegative implies it (``a.x <= a'.x <= b' <= b``).  This
    is what removes every ``edge`` row under its ``out`` row.
    *Inverse:* nothing.
``free_singleton``
    A zero-cost variable appearing in exactly one row is eliminated:

    - in an equality ``a*x + rest == b`` with ``ub = None``, the row
      relaxes to ``rest <= b - a*lb`` for ``a > 0`` (``>=`` for
      ``a < 0``) — one artificial fewer for phase 1 — and *inverse*
      recomputes ``x = (b - rest)/a``;
    - in a ``<=`` row with ``a > 0``, ``x`` sits at ``lb`` and the row
      tightens to ``rest <= b - a*lb``; *inverse* reports ``lb``;
    - in a ``<=`` row with ``a < 0``, ``ub = None``, the variable can
      absorb any violation, so the *row* is dropped and *inverse* sets
      ``x = max(lb, (rest - b)/(-a))``.

    Skipped under ``for_canonical=True``: eliminating a variable changes
    the lexicographic minimization order, and the canonical-vertex
    guarantee (`solve(lp, canonical=True)`) promises the lex-smallest
    optimal vertex of the *original* variable sequence.  Every other
    reduction either leaves the feasible region intact or removes
    variables whose value is identical in all feasible/optimal points,
    so canonical solves of the reduced model postsolve to exactly the
    canonical vertex of the original.

**Protected rows.**  Rows whose name starts with a prefix in
:data:`PROTECTED_ROW_PREFIXES` (the ``chain[..]`` cross-stage coupling
rows of pipelined composite LPs, see
:data:`repro.collectives.base.CHAIN_PREFIX`) are never converted to
bounds, collapsed into duplicates, dropped as dominated, or relaxed by a
free-singleton elimination — they survive into the reduced model as
explicit rows.  This extends the canonical-safe idea: the reductions
above are individually exact, but coupling rows carry mixed-sign
coefficients across stages and downstream consumers (composite
``verify``, the conformance fuzz suite) re-check the postsolved solution
against them *as rows*, so they must still exist after presolve.  Fixed
variables are still substituted into protected rows (value-exact), and a
protected row whose variables have all been fixed is checked for
feasibility and then removed like any other empty row — an empty row is
nothing but a feasibility fact.

The workspace reads the model's integer rows (each entry's exact value,
``num / den``) and writes the reduced model through
:meth:`~repro.lp.model.LinearProgram.add_row`, keeping row order and
the order of entries within each row.
:func:`presolve` returns a :class:`PresolveResult` whose ``lp`` is a
fresh, compact :class:`~repro.lp.model.LinearProgram` (original variable
names and constraint names are preserved) and whose ``postsolve`` maps a
reduced solution's values back to original-variable values by unwinding
the elimination stack in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.lp.model import (EQ, GE, LE, LinearProgram, LinExpr,
                            common_denominator)
from repro.lp.solution import SolveStatus

Number = object  # int | Fraction (floats are never produced by presolve)

#: Constraint-name prefixes presolve must keep as explicit rows (see the
#: module docstring).  ``chain[`` is the cross-stage coupling contract of
#: :func:`repro.collectives.base.compose_joint_lp` — kept as a literal
#: here so the LP layer stays import-free of the collectives layer.
PROTECTED_ROW_PREFIXES = ("chain[",)


@dataclass
class _Record:
    """One postsolve step (unwound in reverse elimination order).

    ``kind`` is ``"value"`` (variable ``var`` takes ``value``),
    ``"eq_sub"`` (``var = (rhs - sum coefs.x)/a``) or ``"ge_clip"``
    (``var = max(value, (sum coefs.x - rhs)/(-a))``).  ``coefs`` is in
    *original* variable indices, captured at elimination time, so every
    referenced variable is resolved by the time the record unwinds.
    """

    kind: str
    var: int
    value: Number = 0
    a: Number = 1
    rhs: Number = 0
    coefs: Dict[int, Number] = field(default_factory=dict)


class Postsolve:
    """Maps a reduced-model solution back onto the original variables."""

    def __init__(self, n_orig: int, kept: List[int],
                 records: List[_Record], lbs: List[Number]) -> None:
        self.n_orig = n_orig
        #: reduced index -> original index
        self.kept = kept
        self.records = records
        self._lbs = lbs

    def values(self, reduced_values: Dict[int, Number]) -> Dict[int, Number]:
        """Original-variable values from reduced-model ``values``.

        Follows the solver convention: variables absent from ``values``
        are 0, and zeros are omitted from the returned dict.
        """
        full: Dict[int, Number] = {}
        for r_idx, o_idx in enumerate(self.kept):
            full[o_idx] = reduced_values.get(r_idx, 0)
        for rec in reversed(self.records):
            if rec.kind == "value":
                full[rec.var] = rec.value
            else:
                rest = rec.rhs
                for j, c in rec.coefs.items():
                    rest -= c * full.get(j, 0)
                if rec.kind == "eq_sub":
                    full[rec.var] = rest / rec.a
                else:  # ge_clip: a < 0, x >= (rest' - b)/(-a) with rest' = b - rest
                    need = rest / rec.a  # == (sum coefs.x - rhs)/(-a)
                    full[rec.var] = need if need > rec.value else rec.value
        return {j: v for j, v in full.items() if v != 0}


@dataclass
class PresolveResult:
    lp: LinearProgram
    postsolve: Postsolve
    #: rule name -> number of times it fired
    stats: Dict[str, int]
    #: INFEASIBLE when presolve proved it; None otherwise
    status: Optional[SolveStatus] = None

    @property
    def infeasible(self) -> bool:
        return self.status is SolveStatus.INFEASIBLE

    def summary(self) -> str:
        if self.infeasible:
            return "infeasible (proved during presolve)"
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items())
                          if v and not k.endswith(("_before", "_after")))
        return (f"{self.stats['vars_before']}->{self.stats['vars_after']} vars, "
                f"{self.stats['rows_before']}->{self.stats['rows_after']} rows"
                + (f" ({inner})" if inner else ""))


def _frac(x) -> Number:
    return x if isinstance(x, int) else Fraction(x)


def _div(b, a) -> Number:
    """Exact rational division (never a float for int/Fraction inputs)."""
    if isinstance(b, int) and isinstance(a, int):
        return b // a if b % a == 0 else Fraction(b, a)
    return b / a


class _Work:
    """Mutable row/column workspace the reductions operate on."""

    def __init__(self, lp: LinearProgram) -> None:
        n = lp.num_vars()
        self.lp = lp
        self.lb: List[Number] = [_frac(v.lb) for v in lp.variables]
        self.ub: List[Optional[Number]] = [
            None if v.ub is None else _frac(v.ub) for v in lp.variables]
        self.obj: Dict[int, Number] = {
            j: _frac(c) for j, c in lp.objective.coefs.items() if c}
        self.rows: List[Optional[Dict[int, Number]]] = []
        self.sense: List[str] = []
        self.rhs: List[Number] = []
        self.rname: List[str] = []
        self.var_alive = [True] * n
        #: var -> set of alive row ids that reference it (kept exact)
        self.cols: List[set] = [set() for _ in range(n)]
        #: rows that must survive as rows (cross-stage coupling contract)
        self.protected: List[bool] = []
        exact = lp._exact           # no float row or bound
        for i, sense in enumerate(lp.senses):
            coefs = dict(lp.row_items(i))
            b = lp.row_rhs(i)
            if not exact:
                coefs = {j: _frac(c) for j, c in coefs.items()}
                b = _frac(b)
            self.rows.append(coefs)
            self.sense.append(sense)
            self.rhs.append(b)
            name = lp.names[i] or f"#c{i}"
            self.rname.append(name)
            self.protected.append(name.startswith(PROTECTED_ROW_PREFIXES))
            for j in coefs:
                self.cols[j].add(i)
        self.records: List[_Record] = []
        self.stats: Dict[str, int] = {}
        self.infeasible = False
        #: objective contribution of eliminated variables, folded into the
        #: reduced objective's constant so the reduced optimum equals the
        #: original optimum (not just maps back to it)
        self.obj_offset: Number = 0

    # -- primitives ----------------------------------------------------
    def hit(self, rule: str) -> None:
        self.stats[rule] = self.stats.get(rule, 0) + 1

    def drop_row(self, i: int) -> None:
        for j in self.rows[i]:
            self.cols[j].discard(i)
        self.rows[i] = None

    def drop_var(self, j: int, record: _Record) -> None:
        self.var_alive[j] = False
        self.obj.pop(j, None)
        self.records.append(record)

    def substitute_value(self, j: int, val: Number) -> None:
        """Replace ``x_j`` by the constant ``val`` in every row."""
        for i in list(self.cols[j]):
            row = self.rows[i]
            self.rhs[i] -= row.pop(j) * val
        self.cols[j].clear()


def _tighten(w: _Work, j: int, lb: Optional[Number],
             ub: Optional[Number]) -> None:
    if lb is not None and lb > w.lb[j]:
        w.lb[j] = lb
    if ub is not None and (w.ub[j] is None or ub < w.ub[j]):
        w.ub[j] = ub
    if w.ub[j] is not None and w.lb[j] > w.ub[j]:
        w.infeasible = True


def _pass_rows(w: _Work) -> bool:
    """Empty rows + singleton rows.  Returns True when anything fired."""
    changed = False
    for i, row in enumerate(w.rows):
        if row is None or w.infeasible:
            continue
        if not row:
            b, s = w.rhs[i], w.sense[i]
            if (s == LE and b < 0) or (s == GE and b > 0) or (s == EQ and b):
                w.infeasible = True
                return True
            w.drop_row(i)
            w.hit("empty_row")
            changed = True
            continue
        if len(row) == 1:
            if w.protected[i]:
                continue  # coupling rows stay rows, never become bounds
            (j, a), = row.items()
            b, s = w.rhs[i], w.sense[i]
            if s == EQ:
                val = _div(b, a)
                if val < w.lb[j] or (w.ub[j] is not None and val > w.ub[j]):
                    w.infeasible = True
                    return True
                _tighten(w, j, val, val)
            elif (s == LE) == (a > 0):  # a*x <= b, a>0  or  a*x >= b, a<0
                _tighten(w, j, None, _div(b, a))
            else:
                _tighten(w, j, _div(b, a), None)
            w.drop_row(i)
            w.hit("singleton_row")
            changed = True
    return changed


def _pass_cols(w: _Work, sense_max: bool, for_canonical: bool) -> bool:
    changed = False
    for j in range(len(w.var_alive)):
        if not w.var_alive[j] or w.infeasible:
            continue
        lb, ub = w.lb[j], w.ub[j]
        if ub is not None and lb == ub:
            w.substitute_value(j, lb)
            w.obj_offset += w.obj.get(j, 0) * lb
            w.drop_var(j, _Record("value", j, value=lb))
            w.hit("fixed_var")
            changed = True
            continue
        live = w.cols[j]
        if not live:
            c = w.obj.get(j, 0)
            up = (c > 0) == sense_max and c != 0
            if c == 0 or not up:
                w.obj_offset += c * lb
                w.drop_var(j, _Record("value", j, value=lb))
            elif ub is not None:
                w.obj_offset += c * ub
                w.drop_var(j, _Record("value", j, value=ub))
            else:
                continue  # unbounded improving direction: leave for simplex
            w.hit("zero_col")
            changed = True
            continue
        if len(live) == 1 and not for_canonical and w.obj.get(j, 0) == 0:
            i = next(iter(live))
            if w.protected[i]:
                continue  # never relax/drop a coupling row
            row, a, b, s = w.rows[i], w.rows[i][j], w.rhs[i], w.sense[i]
            if s == EQ and ub is None:
                del row[j]
                live.clear()
                w.sense[i] = LE if a > 0 else GE
                w.rhs[i] = b - a * lb
                w.drop_var(j, _Record("eq_sub", j, a=a, rhs=b,
                                      coefs=dict(row)))
                w.hit("free_singleton")
                changed = True
            elif s == LE and a > 0:
                del row[j]
                live.clear()
                w.rhs[i] = b - a * lb
                w.drop_var(j, _Record("value", j, value=lb))
                w.hit("free_singleton")
                changed = True
            elif s == LE and a < 0 and ub is None:
                del row[j]
                live.clear()
                w.drop_var(j, _Record("ge_clip", j, value=lb, a=a, rhs=b,
                                      coefs=dict(row)))
                w.drop_row(i)
                w.hit("free_singleton")
                changed = True
    return changed


def _pass_duplicates(w: _Work) -> bool:
    """Collapse rows that are equal up to a nonzero scale.

    A row's signature is its integer form divided by the gcd of its
    numerators, signed so its first column's entry is positive: rows
    share a signature exactly when they are proportional.  Dividing a
    row by the same factor turns its right-hand side into one all rows
    of the group compare on (a sense flips with a negative factor)."""
    changed = False
    groups: Dict[Tuple, List[int]] = {}
    norm: Dict[int, Tuple[str, Number]] = {}
    for i, row in enumerate(w.rows):
        if row is None or not row or w.protected[i]:
            continue
        den = common_denominator(row.values())
        nums = [c.numerator * (den // c.denominator) for c in row.values()]
        g = gcd(*nums)
        if row[min(row)] < 0:
            g = -g
        sig = tuple(sorted(zip(row, [c // g for c in nums])))
        groups.setdefault(sig, []).append(i)
        s = w.sense[i]
        if g < 0:
            s = {LE: GE, GE: LE, EQ: EQ}[s]
        norm[i] = (s, w.rhs[i] * Fraction(den, g))
    for sig, idxs in groups.items():
        if len(idxs) < 2:
            continue
        lo: Optional[Number] = None   # strongest >= bound
        hi: Optional[Number] = None   # strongest <= bound
        eq: Optional[Number] = None
        for i in idxs:
            s, b = norm[i]
            if s == EQ:
                if eq is not None and eq != b:
                    w.infeasible = True
                    return True
                eq = b
            elif s == LE:
                hi = b if hi is None or b < hi else hi
            else:
                lo = b if lo is None or b > lo else lo
        if eq is not None:
            if (hi is not None and eq > hi) or (lo is not None and eq < lo):
                w.infeasible = True
                return True
        elif lo is not None and hi is not None and lo > hi:
            w.infeasible = True
            return True
        # keep at most one row per surviving sense
        keep_eq = keep_le = keep_ge = None
        for i in idxs:
            s, b = norm[i]
            if eq is not None:
                if s == EQ and keep_eq is None:
                    keep_eq = i
                else:
                    w.drop_row(i)
                    w.hit("duplicate_row")
                    changed = True
            elif s == LE:
                if b == hi and keep_le is None:
                    keep_le = i
                else:
                    w.drop_row(i)
                    w.hit("duplicate_row")
                    changed = True
            else:
                if b == lo and keep_ge is None:
                    keep_ge = i
                else:
                    w.drop_row(i)
                    w.hit("duplicate_row")
                    changed = True
    return changed


def _pass_dominated(w: _Work) -> bool:
    """Drop ``<=`` rows implied by a componentwise-larger ``<=`` row.

    Sound only over nonnegative variables:  ``a' >= a >= 0`` and
    ``b' <= b`` give ``a.x <= a'.x <= b' <= b`` for every ``x >= 0``.
    """
    changed = False
    for i, row in enumerate(w.rows):
        if row is None or not row or w.sense[i] != LE or w.protected[i]:
            continue
        if any(c < 0 for c in row.values()) or any(w.lb[j] < 0 for j in row):
            continue
        # probe via the sparsest column of the row
        j0 = min(row, key=lambda j: len(w.cols[j]))
        for k in w.cols[j0]:
            if k == i or w.rows[k] is None or w.sense[k] != LE:
                continue
            big = w.rows[k]
            if len(big) < len(row) or w.rhs[k] > w.rhs[i]:
                continue
            if any(w.lb[j] < 0 or big[j] < 0
                   for j in big if j not in row):
                continue
            if all(big.get(j, 0) >= c for j, c in row.items()):
                w.drop_row(i)
                w.hit("dominated_row")
                changed = True
                break
    return changed


def presolve(lp: LinearProgram, for_canonical: bool = False,
             max_rounds: int = 20) -> PresolveResult:
    """Reduce ``lp`` exactly; see the module docstring for the rule set.

    ``for_canonical=True`` restricts the rule set to reductions that
    provably preserve the lex-smallest optimal vertex, so
    ``solve(reduced, canonical=True)`` postsolves to the same vertex as
    ``solve(lp, canonical=True)``.
    """
    w = _Work(lp)
    w.stats["vars_before"] = lp.num_vars()
    w.stats["rows_before"] = lp.num_constraints()
    for round_no in range(max_rounds):
        changed = _pass_rows(w)
        if not w.infeasible:
            changed |= _pass_cols(w, lp.sense_max, for_canonical)
        # the duplicate/dominated scans are the expensive passes; they
        # only see new opportunities when the cheap passes changed a row,
        # so after the first round they run only on actual change
        if not w.infeasible and (changed or round_no == 0):
            changed |= _pass_duplicates(w)
            if not w.infeasible:
                changed |= _pass_dominated(w)
        if w.infeasible or not changed:
            break

    if w.infeasible:
        return PresolveResult(lp, Postsolve(lp.num_vars(), [], [], w.lb),
                              dict(w.stats), status=SolveStatus.INFEASIBLE)

    reduced = LinearProgram(lp.name)
    kept: List[int] = []
    new_index: Dict[int, int] = {}
    for j, v in enumerate(lp.variables):
        if w.var_alive[j]:
            kept.append(j)
            new_index[j] = reduced.var(v.name, lb=w.lb[j], ub=w.ub[j]).index
    oexpr = LinExpr({}, _frac(lp.objective.constant) + w.obj_offset)
    for j in kept:
        c = w.obj.get(j, 0)
        if c:
            oexpr.add_term(reduced.variables[new_index[j]], c)
    if lp.sense_max:
        reduced.maximize(oexpr)
    else:
        reduced.minimize(oexpr)
    for i, row in enumerate(w.rows):
        if row is not None:
            reduced.add_row([new_index[j] for j in row], list(row.values()),
                            w.sense[i], w.rhs[i], w.rname[i])
    w.stats["vars_after"] = reduced.num_vars()
    w.stats["rows_after"] = reduced.num_constraints()
    return PresolveResult(
        reduced, Postsolve(lp.num_vars(), kept, w.records, w.lb),
        dict(w.stats))
