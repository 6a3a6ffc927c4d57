"""Sparse fraction-free two-phase primal simplex over exact rationals.

This is the stand-in for the paper's use of ``lpsolve``/Maple: it returns
the *exact rational* optimum of the steady-state LPs, so that the period
``T`` (lcm of the denominators of all variables, Section 3.1) and the
integer per-period message counts are well defined.

The differential tests hold it to the revised engine's optima, which
their duals certify (:mod:`repro.lp.certificate`).  Design choices, in
order of measured impact:

- **Sparse rows with an exact column index.**  Each tableau row is a dict
  ``{column: int numerator}``, and a :class:`_Tableau` maintains the exact
  inverse map ``column -> {rows with a nonzero}`` through every update
  (fill-in adds, cancellation removes).  A pivot therefore touches *only*
  the rows with a nonzero in the entering column — never scans the row
  list — and the ratio test walks the same set.  The steady-state LPs are
  very sparse (a ``send`` variable appears in ~5 constraints), so this
  removes most of the per-pivot work.
- **Fraction-free integer arithmetic.**  A row stores integer numerators
  over one positive common denominator, so a pivot update is pure integer
  multiply/subtract:

      row' = (row * p_den - a * pivot_row) / (den * p_den)

  followed by a *single* gcd pass per row (``math.gcd`` is C-level and
  variadic).  :class:`fractions.Fraction` pays ~3 gcds per arithmetic op;
  here the per-op cost is an integer multiply.  Normalizing the pivot row
  costs nothing: dividing ``row_i`` by its pivot entry ``p`` is just
  re-labelling the denominator to ``p``.
- **Phase 1 is skipped when the crash basis is already feasible.**  The
  collective LPs' conservation rows are equalities with rhs 0, so the
  all-slack/artificial start already has phase-1 objective 0; driving it
  "optimal" used to cost hundreds of degenerate pivots with full
  reduced-cost maintenance.  Now, when the initial artificial sum is 0,
  the solver goes straight to the basis-repair step: each leftover
  artificial row (rhs 0, so any pivot preserves feasibility) is pivoted
  onto the structural column with the fewest tableau nonzeros
  (Markowitz-style fill control), processing sparse rows first.
- **Pricing.**  Both improving rules use a *partial-pricing candidate
  list*: a full scan of the reduced-cost row happens only when the
  current shortlist is exhausted, and optimality is only ever declared
  on a full scan.  ``"devex"`` (default) — Devex reference weights
  (Forrest & Goldfarb); dramatically fewer pivots on degenerate faces
  (the ``complete7`` tier thrashes for thousands of pivots under
  Dantzig), at a small per-pivot bookkeeping cost.  Weight arithmetic is
  float-approximate, which is safe: pricing only picks the pivot *path*,
  never the arithmetic.  ``"dantzig"`` — most negative reduced cost.
  Both fall back to Bland's anti-cycling rule after
  :data:`DEGENERACY_LIMIT` consecutive degenerate pivots, until the next
  nondegenerate pivot, so termination is still guaranteed.  ``"bland"``
  — pure Bland (slow, debugging only).
- **Artificials are physically dropped** after Phase 1 (dict keys deleted
  and the column index rebuilt), instead of zeroed columns that every
  later pivot would still scan.
- **Warm starts.**  ``solve(lp, warm_basis=labels)`` crash-pivots a
  previously optimal basis (identified by stable variable/constraint-name
  labels, so it transfers across growing LP families) into the tableau; if
  the resulting basis is primal feasible Phase 1 is skipped entirely and
  Phase 2 usually needs a handful of pivots (colgen's block pricers
  re-solve one subproblem under new objective weights this way).  An
  infeasible crash falls back to a cold start — either way a warm start
  can never change the optimum, only the route to it.
- **Canonical vertex (opt-in).**  ``solve(lp, canonical=True)`` runs a
  lexicographic phase 3 after optimality: over the optimal face it
  minimizes ``x_0``, then ``x_1`` with ``x_0`` held at its minimum, and
  so on.  The returned vertex is the lex-smallest optimal solution — a
  function of the LP alone, independent of pricing rule, warm start, or
  pivot history.  Tests that pin schedule/tree artifacts use this instead
  of depending on a pricing rule's tie-breaking.

Bounds handling is the textbook one: lower bounds are
shifted out (``y = x - lb``), upper bounds become rows, Phase 1 minimizes
the sum of artificial variables, and redundant rows are dropped.  Run
:func:`repro.lp.presolve.presolve` first (the dispatch layer does) to
shrink the model before any of this starts.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lp.model import EQ, GE, LE, LinearProgram, common_denominator, int_row
from repro.lp.solution import LPSolution, SolveStatus

#: Sentinel column index holding the right-hand side of each sparse row.
RHS = -1

#: Consecutive degenerate pivots tolerated under Dantzig/Devex pricing
#: before switching to Bland's rule (reset on the next nondegenerate pivot).
DEGENERACY_LIMIT = 40

#: Partial-pricing shortlist size: a full reduced-cost scan refreshes up
#: to this many candidate columns, and pivots re-score only the shortlist.
#: Swept over the benchmark tiers: 8 beats 16/32/64 on fig9 and ring48
#: and stays near-best on complete7.
CANDIDATE_LIST_SIZE = 8

#: Devex weights above this trigger a reference-framework reset.
DEVEX_RESET = 1e10

Row = Dict[int, int]
Label = Tuple[str, object]


def _reduce_row(d: Row, den: int) -> Tuple[Row, int]:
    """Divide ``d``/``den`` by their collective gcd (``den`` stays > 0)."""
    if den == 1 or not d:
        return d, (den if d else 1)
    g = gcd(den, *d.values())
    if g > 1:
        den //= g
        for c in d:
            d[c] //= g
    return d, den


def _row_sub(d: Row, den: int, a: int, pd: Row, pden: int) -> Tuple[Row, int]:
    """Update ``d`` in place to ``(d/den) - (a/den) * (pd/pden)``, normalized.

    This is the fraction-free pivot update for *untracked* rows (the
    caller-owned reduced-cost rows); tableau rows go through
    :meth:`_Tableau.sub_into`, which also keeps the column index.
    """
    if pden != 1:
        for c in d:
            d[c] *= pden
    for c, pv in pd.items():
        nv = d.get(c, 0) - a * pv
        if nv:
            d[c] = nv
        else:
            d.pop(c, None)
    return _reduce_row(d, den * pden)


def _fdiv(a: int, b: int) -> float:
    """``a / b`` as a float; a result beyond float range collapses to
    signed infinity (callers only use this for pricing scores, where an
    infinite Devex weight simply forces a reference-framework reset)."""
    try:
        return a / b
    except OverflowError:
        return float("inf") if (a < 0) == (b < 0) else float("-inf")


class _Tableau:
    """Tableau rows plus the exact column -> row-set inverse index.

    ``D[i]`` is a sparse integer row over common denominator ``W[i] > 0``;
    ``basis[i]`` is its basic column.  ``colrows[c]`` is the *exact* set
    of row indices with a nonzero in column ``c`` (RHS excluded),
    maintained through fill-in and cancellation by :meth:`sub_into`.
    """

    __slots__ = ("D", "W", "basis", "colrows")

    def __init__(self, D: List[Row], W: List[int], basis: List[int]) -> None:
        self.D = D
        self.W = W
        self.basis = basis
        self.colrows: Dict[int, Set[int]] = {}
        self.reindex()

    def reindex(self) -> None:
        self.colrows.clear()
        for r, d in enumerate(self.D):
            for c in d:
                if c != RHS:
                    self.colrows.setdefault(c, set()).add(r)

    def rows_with(self, c: int):
        """Exact set of rows with a nonzero in column ``c``."""
        return self.colrows.get(c, ())

    def col_count(self, c: int) -> int:
        s = self.colrows.get(c)
        return len(s) if s else 0

    def sub_into(self, r: int, a: int, pd: Row, pden: int) -> None:
        """``row_r -= (a/W_r) * (pd/pden)`` in place, index-maintained."""
        d = self.D[r]
        if pden != 1:
            for c in d:
                d[c] *= pden
        colrows = self.colrows
        get = d.get
        for c, pv in pd.items():
            before = get(c)
            if before is None:  # zeros are never stored: None == absent
                d[c] = -a * pv  # a, pv nonzero, so this is fill-in
                if c != RHS:
                    s = colrows.get(c)
                    if s is None:
                        colrows[c] = {r}
                    else:
                        s.add(r)
            else:
                nv = before - a * pv
                if nv:
                    d[c] = nv
                else:
                    del d[c]
                    if c != RHS:
                        colrows[c].discard(r)
        _, self.W[r] = _reduce_row(d, self.W[r] * pden)

    def pivot(self, i: int, j: int) -> None:
        """Pivot on entry (i, j): row i gets coefficient 1 at column j."""
        D, W = self.D, self.W
        d = D[i]
        p = d[j]
        if p == 0:
            raise ZeroDivisionError("pivot on zero entry")
        if p < 0:
            for c in d:
                d[c] = -d[c]
            p = -p
        d, p = _reduce_row(d, p)  # re-labelled denominator: row_i / pivot
        D[i], W[i] = d, p
        for r in list(self.colrows.get(j, ())):
            if r != i:
                a = D[r].get(j)
                if a:
                    self.sub_into(r, a, d, p)
        self.basis[i] = j

    def drop_rows(self, idxs: List[int]) -> None:
        """Delete rows (ascending ``idxs``) and rebuild the index."""
        for i in reversed(idxs):
            del self.D[i], self.W[i], self.basis[i]
        self.reindex()

    def drop_cols_from(self, first: int) -> None:
        """Physically delete every column ``>= first`` (the artificials)."""
        for c in [c for c in self.colrows if c >= first]:
            for r in self.colrows[c]:
                del self.D[r][c]
            del self.colrows[c]


class ExactSimplexSolver:
    """Exact rational simplex solver for :class:`LinearProgram` instances.

    Parameters
    ----------
    max_iterations:
        Hard pivot budget over both phases; overruns return a
        :class:`LPSolution` with ``status == SolveStatus.ERROR`` and a
        diagnostic ``message`` (they do not raise).
    pricing:
        ``"devex"`` (default) — Devex reference weights over a
        partial-pricing candidate list (fewest pivots on the highly
        degenerate collective LPs); ``"dantzig"`` — most negative
        reduced cost; both fall back to Bland's anti-cycling rule on
        degeneracy streaks.  ``"bland"`` — pure Bland's rule (slow,
        only useful for debugging).
    """

    def __init__(self, max_iterations: int = 200_000,
                 pricing: str = "devex") -> None:
        if pricing not in ("devex", "dantzig", "bland"):
            raise ValueError(f"unknown pricing rule {pricing!r}")
        self.max_iterations = max_iterations
        self.pricing = pricing

    # ------------------------------------------------------------------
    def solve(self, lp: LinearProgram,
              warm_basis: Optional[Sequence[Label]] = None,
              canonical: bool = False) -> LPSolution:
        if not lp.is_rational():
            raise ValueError(
                "exact simplex requires int/Fraction data; convert the LP or "
                "use the HiGHS backend")
        return self._solve_rational(lp, warm_basis, canonical)

    def _solve_rational(self, lp: LinearProgram,
                        warm_basis: Optional[Sequence[Label]] = None,
                        canonical: bool = False) -> LPSolution:
        """:meth:`solve` on a model the caller has already found rational
        (:func:`repro.lp.dispatch.solve` scans each model once)."""
        n = lp.num_vars()
        lbs = [Fraction(v.lb) for v in lp.variables]

        # Rows:  sum_j a_ij * y_j  (sense)  b_i   with y = x - lb >= 0, as
        # integers over the row's least common denominator (the model's
        # own rows when no lower bound shifts them), normalized to b >= 0.
        int_rows: List[Row] = []
        dens: List[int] = []
        senses: List[str] = []
        tags: List[Label] = []

        def push(d: Row, den: int, bi: int, sense: str, tag: Label) -> None:
            if bi < 0:
                d = {j: -v for j, v in d.items()}
                bi = -bi
                sense = {LE: GE, GE: LE, EQ: EQ}[sense]
            if bi:
                d[RHS] = bi
            int_rows.append(d)
            dens.append(den)
            senses.append(sense)
            tags.append(tag)

        indptr, cols, nums = lp.indptr, lp.cols, lp.nums
        for ci, sense in enumerate(lp.senses):
            lo, hi = indptr[ci], indptr[ci + 1]
            d: Row = dict(zip(cols[lo:hi], nums[lo:hi]))
            den, bi = lp.dens[ci], lp.rhs[ci]
            if any(lbs[j] for j in d):
                coefs = {j: Fraction(c, den) for j, c in d.items()}
                b = Fraction(lp.row_rhs(ci)) - sum(
                    c * lbs[j] for j, c in coefs.items() if lbs[j])
                shifted, den, bi = int_row(list(coefs.values()), b)
                d = dict(zip(coefs, shifted))
            push(d, den, bi, sense, ("s", lp.names[ci] or f"#c{ci}"))
        for v in lp.variables:
            if v.ub is not None:
                b = Fraction(v.ub) - lbs[v.index]
                push({v.index: b.denominator}, b.denominator, b.numerator,
                     LE, ("s", f"#ub:{v.name}"))
        m = len(int_rows)

        # Column layout: [structural 0..n) | slacks/surplus | artificials].
        slack_col: Dict[int, int] = {}
        art_col: Dict[int, int] = {}
        col = n
        for i, s in enumerate(senses):
            if s in (LE, GE):
                slack_col[i] = col
                col += 1
        n_struct_slack = col
        for i, s in enumerate(senses):
            if s in (GE, EQ):
                art_col[i] = col
                col += 1
        art_set = set(art_col.values())

        # Stable labels for warm starts: structural cols by variable name,
        # slack cols by constraint name.  Artificials never end up in an
        # optimal basis, so they need no label.
        labels: Dict[int, Label] = {v.index: ("v", v.name)
                                    for v in lp.variables}
        for i, c in slack_col.items():
            labels[c] = tags[i]

        def build() -> _Tableau:
            D: List[Row] = []
            W: List[int] = []
            basis: List[int] = []
            for i in range(m):
                d = dict(int_rows[i])
                den = dens[i]
                if senses[i] == LE:
                    d[slack_col[i]] = den
                    basis.append(slack_col[i])
                elif senses[i] == GE:
                    d[slack_col[i]] = -den
                    d[art_col[i]] = den
                    basis.append(art_col[i])
                else:
                    d[art_col[i]] = den
                    basis.append(art_col[i])
                D.append(d)
                W.append(den)
            return _Tableau(D, W, basis)

        T = build()
        iterations = 0
        warm_ok = False

        # ---------------- Warm start (crash basis) ----------------
        if warm_basis:
            col_of = {lab: c for c, lab in labels.items()}
            want = [col_of[lab] for lab in warm_basis if lab in col_of]
            want_set = set(want)
            basic = set(T.basis)
            for j in want:
                if j in basic:
                    continue
                pick = -1
                for i in T.rows_with(j):
                    if T.basis[i] in want_set:
                        continue
                    pick = i
                    if T.basis[i] in art_set:
                        break  # kicking an artificial out is ideal
                if pick >= 0:
                    basic.discard(T.basis[pick])
                    T.pivot(pick, j)
                    basic.add(j)
                    iterations += 1
            warm_ok = not any(d.get(RHS, 0) < 0
                              or (T.basis[i] in art_set and d.get(RHS, 0))
                              for i, d in enumerate(T.D))
            if not warm_ok:
                T = build()  # infeasible crash: cold start

        # ---------------- Phase 1 ----------------
        if art_col and not warm_ok:
            od: Row = {c: 1 for c in art_set}
            oden = 1
            for i, bvar in enumerate(T.basis):
                if bvar in art_set:
                    od, oden = _row_sub(od, oden, od.get(bvar, 0),
                                        T.D[i], T.W[i])
            if od.get(RHS, 0) == 0:
                # Sum of artificials already 0 at the crash basis (every
                # artificial row has rhs 0) — the basis-repair step below
                # replaces them without any priced phase-1 pivots.
                status = "optimal"
            else:
                status, it, od, oden = self._iterate(
                    T, od, oden, limit=n_struct_slack + len(art_col))
                iterations += it
            if status != "optimal":  # unbounded impossible; iterlimit real
                return LPSolution(
                    SolveStatus.ERROR, backend="exact-simplex", lp=lp,
                    iterations=iterations,
                    message=f"phase 1 stopped with {status!r} after "
                            f"{iterations} pivots on {lp.name!r} "
                            f"({n} vars, {m} rows)")
            if od.get(RHS, 0) < 0:  # min sum of artificials > 0
                return LPSolution(SolveStatus.INFEASIBLE,
                                  backend="exact-simplex", lp=lp,
                                  iterations=iterations)

        # Pivot leftover artificials out of the basis.  Their rows sit at
        # rhs 0, so *any* nonzero entry preserves feasibility — pick the
        # structural/slack column with the fewest tableau nonzeros
        # (Markowitz fill control), repairing sparse rows first; rows with
        # no structural entry are redundant and dropped.  Artificial
        # columns are then physically deleted.
        if art_col:
            iterations += self._repair_artificials(T, art_set, n_struct_slack)

        # ---------------- Phase 2 ----------------
        # Minimize sign * objective over y; the objective constant and the
        # lb shift are re-applied at extraction time.
        sign = -1 if lp.sense_max else 1
        ocoefs: Dict[int, Fraction] = {}
        for j, c in lp.objective.coefs.items():
            c = sign * Fraction(c)
            if c:
                ocoefs[j] = c
        oden = common_denominator(ocoefs.values())
        od = {j: int(c * oden) for j, c in ocoefs.items()}
        for i, bvar in enumerate(T.basis):
            a = od.get(bvar)
            if a:
                od, oden = _row_sub(od, oden, a, T.D[i], T.W[i])
        status, it, od, oden = self._iterate(T, od, oden,
                                             limit=n_struct_slack)
        iterations += it
        if status == "unbounded":
            return LPSolution(SolveStatus.UNBOUNDED, backend="exact-simplex",
                              lp=lp, iterations=iterations)
        if status != "optimal":
            return LPSolution(
                SolveStatus.ERROR, backend="exact-simplex", lp=lp,
                iterations=iterations,
                message=f"phase 2 stopped with {status!r} after "
                        f"{iterations} pivots on {lp.name!r} "
                        f"({n} vars, {len(T.D)} rows)")

        # ---------------- Phase 3 (opt-in): lexicographic tie-breaking --
        if canonical:
            cpivots, cdone = self._canonicalize(
                T, od, oden, limit=n_struct_slack, n=n,
                budget=self.max_iterations - iterations)
            iterations += cpivots
            if not cdone:
                # returning a half-canonicalized vertex as if it were
                # canonical would get cached (memory and disk) under the
                # canonical key and silently break the stability guarantee
                return LPSolution(
                    SolveStatus.ERROR, backend="exact-simplex", lp=lp,
                    iterations=iterations,
                    message=f"canonicalization hit the pivot budget after "
                            f"{iterations} pivots on {lp.name!r}; raise "
                            f"max_iterations or drop canonical=True")

        values: Dict[int, Fraction] = {}
        basic_structural = set()
        for i, bvar in enumerate(T.basis):
            if bvar < n:
                basic_structural.add(bvar)
                x = Fraction(T.D[i].get(RHS, 0), T.W[i]) + lbs[bvar]
                if x:
                    values[bvar] = x
        for j in range(n):
            # nonbasic structural variables sit at their lower bound (y = 0)
            if j not in basic_structural and lbs[j]:
                values[j] = lbs[j]
        objective = lp.objective.evaluate(values)
        return LPSolution(SolveStatus.OPTIMAL, objective=objective,
                          values=values, backend="exact-simplex", exact=True,
                          lp=lp, iterations=iterations,
                          basis_labels=tuple(labels[b] for b in T.basis))

    # ------------------------------------------------------------------
    @staticmethod
    def _repair_artificials(T: _Tableau, art_set: Set[int],
                            n_struct_slack: int) -> int:
        """Pivot leftover zero-valued artificials out of the basis.

        Every remaining artificial row sits at rhs 0, so *any* nonzero
        entry preserves primal feasibility; pick the structural/slack
        column with the fewest tableau nonzeros (Markowitz fill control),
        always repairing the *currently* sparsest row first — a lazy heap
        re-keys rows as pivots fill them in, which keeps the repaired
        tableau far sparser than any static order (measured ~2.7x on the
        fig9 tier).  Rows with no structural entry are redundant and
        dropped, then the artificial columns are physically deleted.
        Returns the number of pivots performed.
        """
        pivots = 0
        drop: List[int] = []
        heap = [(len(T.D[i]), i)
                for i in range(len(T.D)) if T.basis[i] in art_set]
        heapq.heapify(heap)
        while heap:
            size, i = heapq.heappop(heap)
            if T.basis[i] not in art_set:
                continue
            if len(T.D[i]) != size:  # stale key: re-queue at current size
                heapq.heappush(heap, (len(T.D[i]), i))
                continue
            best = -1
            best_count = 0
            for c in T.D[i]:
                if 0 <= c < n_struct_slack:
                    cnt = T.col_count(c)
                    if best < 0 or cnt < best_count:
                        best, best_count = c, cnt
            if best < 0:
                drop.append(i)  # redundant row
            else:
                T.pivot(i, best)
                pivots += 1
        drop.sort()
        T.drop_rows(drop)
        T.drop_cols_from(n_struct_slack)
        return pivots

    # ------------------------------------------------------------------
    def _canonicalize(self, T: _Tableau, od: Row, oden: int, limit: int,
                      n: int, budget: int) -> Tuple[int, bool]:
        """Lexicographic phase 3: walk to the lex-smallest optimal vertex.

        For ``j = 0 .. n-1``, minimize ``x_j`` over the current face,
        then freeze it.  An entering column is eligible only when its
        reduced cost is zero in the phase-2 objective row *and* every
        frozen ``x_i`` row — such pivots change neither the optimum nor
        any earlier minimum (their reduced-cost rows are literally
        invariant: the entering column's coefficient in them is zero).
        Bland's entering rule plus the smallest-basis-index ratio
        tie-break guarantees termination on the (typically degenerate)
        optimal face.  ``budget`` is the pivot allowance left from the
        solver-wide ``max_iterations`` after phases 1-2.  Returns
        ``(pivots performed, completed)``.
        """
        D, W, basis = T.D, T.W, T.basis
        frozen: List[Row] = [od]
        pivots = 0
        for j in range(n):
            # reduced-cost row of "minimize x_j" w.r.t. the current basis
            rj: Row = {j: 1}
            rden = 1
            for i, bvar in enumerate(basis):
                a = rj.get(bvar)
                if a:
                    rj, rden = _row_sub(rj, rden, a, D[i], W[i])
            while True:
                enter = -1
                for c, v in rj.items():
                    if (v < 0 and 0 <= c < limit
                            and (enter < 0 or c < enter)
                            and all(f.get(c, 0) == 0 for f in frozen)):
                        enter = c
                if enter < 0:
                    break  # x_j at its lex minimum
                if pivots >= budget:
                    return pivots, False  # more work needed, none allowed
                leave = -1
                ln = ld = 1
                for i in T.rows_with(enter):
                    a = D[i].get(enter, 0)
                    if a > 0:
                        r = D[i].get(RHS, 0)
                        if leave < 0:
                            leave, ln, ld = i, r, a
                        else:
                            diff = r * ld - ln * a
                            if diff < 0 or (diff == 0
                                            and basis[i] < basis[leave]):
                                leave, ln, ld = i, r, a
                if leave < 0:
                    break  # cannot happen (y_j >= 0 bounds the descent)
                T.pivot(leave, enter)
                a = rj.get(enter)
                if a:
                    rj, rden = _row_sub(rj, rden, a, D[leave], W[leave])
                pivots += 1
            frozen.append(rj)
        return pivots, True

    # ------------------------------------------------------------------
    def _refresh_candidates(self, od: Row, oden: int, limit: int,
                            weights: Optional[Dict[int, float]]) -> List[int]:
        """Full pricing scan -> shortlist of the best improving columns."""
        if weights is None:
            neg = [(v, c) for c, v in od.items() if v < 0 and 0 <= c < limit]
            return [c for _v, c in heapq.nsmallest(CANDIDATE_LIST_SIZE, neg)]
        # r * r (not r ** 2): multiplying huge finite floats yields inf,
        # while float.__pow__ raises OverflowError
        neg2 = []
        for c, v in od.items():
            if v < 0 and 0 <= c < limit:
                r = _fdiv(v, oden)
                neg2.append((-(r * r) / weights.get(c, 1.0), c))
        return [c for _s, c in heapq.nsmallest(CANDIDATE_LIST_SIZE, neg2)]

    def _iterate(self, T: _Tableau, od: Row, oden: int,
                 limit: int) -> Tuple[str, int, Row, int]:
        """Run simplex pivots (min form) until optimal/unbounded/iterlimit.

        ``od``/``oden`` is the reduced-cost row; columns ``0 <= c < limit``
        are eligible to enter.  Returns ``(status, pivots, od, oden)``.
        """
        D, W, basis = T.D, T.W, T.basis
        it = 0
        bland = self.pricing == "bland"
        devex = self.pricing == "devex"
        weights: Optional[Dict[int, float]] = {} if devex else None
        degen_streak = 0
        cands: List[int] = []
        while True:
            if it >= self.max_iterations:
                return "iterlimit", it, od, oden
            enter = -1
            if bland:
                for c, v in od.items():
                    if v < 0 and 0 <= c < limit and (enter < 0 or c < enter):
                        enter = c
            else:
                # partial pricing: re-score the shortlist; full rescan
                # only when it is exhausted (and optimality is only ever
                # declared by a full rescan coming up empty)
                for attempt in (0, 1):
                    best_v = 0
                    best_s = 0.0
                    live: List[int] = []
                    for c in cands:
                        v = od.get(c, 0)
                        if v >= 0:
                            continue
                        live.append(c)
                        if devex:
                            r = _fdiv(v, oden)
                            s = (r * r) / weights.get(c, 1.0)
                            if s > best_s or (s == best_s and
                                              (enter < 0 or c < enter)):
                                best_s = s
                                enter = c
                        elif v < best_v or (v == best_v and v < 0 and
                                            (enter < 0 or c < enter)):
                            best_v = v
                            enter = c
                    cands = live
                    if enter >= 0 or attempt == 1:
                        break
                    cands = self._refresh_candidates(od, oden, limit, weights)
            if enter < 0:
                return "optimal", it, od, oden
            # Ratio test: min rhs_i / a_i over rows with a_i > 0 in the
            # entering column (walked via the exact column index).  Within
            # a row both carry the same denominator, so the ratio is the
            # pure integer quotient d[RHS]/d[enter]; ties break on the
            # smallest basis index under Bland (required for termination)
            # and on the sparsest row otherwise (less fill-in).
            leave = -1
            ln = ld = 1
            leave_sz = 0
            for i in T.rows_with(enter):
                a = D[i].get(enter, 0)
                if a > 0:
                    r = D[i].get(RHS, 0)
                    if leave < 0:
                        take = True
                    else:
                        diff = r * ld - ln * a
                        if diff < 0:
                            take = True
                        elif diff:
                            take = False
                        elif bland:
                            take = basis[i] < basis[leave]
                        else:
                            sz = len(D[i])
                            take = sz < leave_sz or (sz == leave_sz
                                                     and basis[i] < basis[leave])
                    if take:
                        leave, ln, ld, leave_sz = i, r, a, len(D[i])
            if leave < 0:
                return "unbounded", it, od, oden
            degenerate = ln == 0
            if devex:
                wq = weights.get(enter, 1.0)
                alpha = _fdiv(ld, W[leave])
                leaving = basis[leave]
            T.pivot(leave, enter)
            a = od.get(enter)
            if a:
                od, oden = _row_sub(od, oden, a, D[leave], W[leave])
            if devex:
                # Forrest-Goldfarb Devex update from the (normalized)
                # pivot row; approximate floats are fine — weights only
                # steer the pivot path, never the arithmetic.
                w_leave = wq / (alpha * alpha) if alpha else 1.0
                if not w_leave <= DEVEX_RESET:  # catches inf and NaN too
                    weights.clear()  # new reference framework
                    w_leave = 1.0
                weights[leaving] = w_leave if w_leave > 1.0 else 1.0
                d = D[leave]
                wden = W[leave]
                big = False
                for c, v in d.items():
                    if c != enter and c != RHS and 0 <= c < limit:
                        r = _fdiv(v, wden)
                        nw = r * r * wq
                        if nw > weights.get(c, 1.0):
                            weights[c] = nw
                            big = big or nw > DEVEX_RESET
                if big:
                    weights.clear()  # new reference framework
            it += 1
            if self.pricing != "bland":
                if degenerate:
                    degen_streak += 1
                    if degen_streak >= DEGENERACY_LIMIT:
                        bland = True  # anti-cycling fallback
                else:
                    degen_streak = 0
                    bland = False
        # not reached
