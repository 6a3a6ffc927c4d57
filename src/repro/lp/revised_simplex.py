"""Rational revised simplex: LU-factorized basis, never a full tableau.

The tableau solver (:mod:`repro.lp.exact_simplex`) carries the *entire*
``B^{-1}N`` image through every pivot — fill-in grows with the iteration
count, which is what caps it at ~5k variables.  This module keeps only

- a sparse **LU factorization of the basis** over exact
  :class:`~fractions.Fraction`, built with Markowitz-style pivot
  selection (min active-column count, min row count tie-break) so the
  near-triangular crash bases of the collective LPs factor with almost
  no fill;
- **product-form eta updates** between refactorizations (refactor on an
  update-count or fill threshold), so a pivot costs one FTRAN + one
  BTRAN instead of a tableau sweep;
- heap-driven **sparse triangular solves** (FTRAN ``Bx = a``, BTRAN
  ``yB = c``) that touch only the reachable nonzeros, not all ``m``
  rows;
- a maintained exact **reduced-cost vector** plus float Devex reference
  weights, priced block-by-block: collective LPs decompose into
  per-commodity blocks joined only by the shared capacity rows, so
  partial pricing sweeps one commodity block at a time
  (**commodity-block pricing**) and a column-singleton triangular crash
  covers the conservation rows per block before any simplex pivot.

A **dual simplex** entry point re-solves from a recorded basis after a
capacity-tightening perturbation: the old vertex often stays *dual*
feasible (reduced costs unchanged sign) while a handful of ``x_B``
entries go negative, the usual shape of a :func:`repro.lp.resolve.replan`
crash.  The crash ladder in :meth:`RevisedSimplexSolver.solve` enters it
whenever a crash is dual feasible but not primal feasible.

The returned optimum is bit-identical to the tableau solver's (both are
exact); only the vertex reached and the pivot path may differ.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.lp.exact_simplex import _fdiv, _row_sub
from repro.lp.fastfrac import frac_div, sub_mul
from repro.lp.model import (EQ, GE, LE, LinearProgram, common_denominator,
                            exact_value)
from repro.lp.solution import LPSolution, SolveStatus

Label = Tuple[str, object]
SpVec = Dict[int, Fraction]

#: Consecutive degenerate pivots tolerated before Bland's rule kicks in
#: (reset on the next nondegenerate pivot) — same policy as the tableau.
DEGENERACY_LIMIT = 40

#: Partial-pricing shortlist size per refresh (see exact_simplex).
CANDIDATE_LIST_SIZE = 8

#: Devex weights above this trigger a reference-framework reset.
DEVEX_RESET = 1e10

#: Slack/surplus columns have no commodity; they are priced in pseudo
#: blocks of this many columns, in row order.
SLACK_BLOCK = 512

#: A candidate refresh sweeps commodity blocks until it has seen this
#: many improving columns (or a full cycle).  Swept on the complete8
#: reduce tier: 8 (one block) triples the pivot count versus a full
#: Devex scan, 128 is within ~7% of it while still touching only a few
#: blocks per refresh early in the solve.
PRICE_SWEEP_MIN = 128

ZERO = Fraction(0)
ONE = Fraction(1)


def _f(x: Fraction) -> float:
    """``float(x)`` collapsing overflow to signed infinity (pricing only)."""
    try:
        return x.numerator / x.denominator
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")


def _to_int_vec(fracs: Dict[int, Fraction]) -> Tuple[Dict[int, int], int]:
    """``{k: Fraction}`` as integer numerators over one lcm denominator."""
    den = common_denominator(fracs.values())
    return {k: v.numerator * (den // v.denominator) for k, v in fracs.items()}, den


#: Relative scale of the anti-degeneracy perturbation in the float
#: crash.  Small enough that the perturbed optimal basis is (almost
#: always) an optimal basis of the unperturbed LP, large enough that
#: basic/nonbasic classification of the float vertex is unambiguous.
FLOAT_CRASH_EPS = 1e-6


def _crash_eps(i):
    """Deterministic pseudo-random perturbation in ``[0.5, 1.5) * EPS``
    (elementwise over an integer array)."""
    return FLOAT_CRASH_EPS * (0.5 + ((i * 2654435761) & 0xFFFF) / 65536.0)


def _float_crash_labels(
        lp: LinearProgram,
) -> Optional[Tuple[Tuple[Label, ...], Tuple[Label, ...]]]:
    """Guess an optimal basis from a *perturbed* floating-point solve.

    The collective LPs are massively primal-degenerate (the steady-state
    conservation rows all have ``b = 0``), so a cold exact simplex
    wanders the optimal vertex for thousands of zero-step pivots.  The
    textbook cure, done on the float side where it costs nothing:
    shift every variable lower bound down and every inequality out by a
    distinct tiny epsilon.  The perturbed LP has the same reduced costs
    (they never depend on ``b`` or bounds), its feasible region contains
    the original's, and its optimal vertex is generically
    *nondegenerate* — every basic variable sits strictly off its bound,
    so the basis can be read straight off the solution support.  For
    small enough epsilon that basis is an optimal basis of the original
    LP; the exact layer verifies and, when the guess is off, finishes
    with ordinary (dual or primal) pivots.

    Returns ``(primary, full)`` label tuples for
    :meth:`_Core.crash_from_labels` — ``primary`` holds the columns
    that are unambiguously basic (strictly off their bounds), ``full``
    additionally appends every *zero-marginal at-bound* column, the
    candidates for degenerate basic slots that stay invisible in ``x``
    when the perturbed vertex is still degenerate (rank-deficient row
    systems: ring topologies).  The caller crashes ``primary`` first
    and escalates to ``full`` only when that basis is not already
    optimal.  Returns ``None`` when the float solve fails — the caller
    falls back to a cold exact solve.
    """
    n = lp.num_vars()
    m = lp.num_constraints()
    if n == 0 or m == 0:
        return None
    c = np.zeros(n)
    for j, coef in lp.objective.coefs.items():
        c[j] = float(coef)
    if lp.sense_max:
        c = -c

    # the model's rows as float CSR blocks (ring128-scale rows would not
    # fit densely): the <= block (>= rows negated) and the == block,
    # each row's entries in the order they were added
    a_ub, b_ub, ub_rows, a_eq, b_eq, _ = lp.float_rows()
    if a_ub is not None:
        b_ub = b_ub + _crash_eps(ub_rows.astype(np.int64))
    lbs = np.array([float(v.lb) for v in lp.variables])
    lo = lbs - _crash_eps(np.arange(m, m + n, dtype=np.int64))
    hi = np.array([np.inf if v.ub is None else float(v.ub)
                   for v in lp.variables])
    hi = hi + _crash_eps(np.arange(2 * m + n, 2 * m + 2 * n, dtype=np.int64))
    try:
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=np.column_stack((lo, hi)), method="highs-ds")
    except (ValueError, TypeError):                    # pragma: no cover
        return None
    if not res.success or res.x is None:
        return None
    x = res.x
    tol = FLOAT_CRASH_EPS * 1e-3
    dtol = 1e-9
    # reduced costs / row duals, when the method reports them
    try:
        low_marg = res.lower.marginals
        up_marg = res.upper.marginals
        row_marg = res.ineqlin.marginals
    except AttributeError:                             # pragma: no cover
        low_marg = up_marg = row_marg = None

    # Primary labels: columns strictly off their (shifted) bounds and
    # slacks of strictly loose rows — unambiguously basic at the vertex.
    # The CSR product sums each row left to right, like a Python loop.
    names = [v.name for v in lp.variables]
    row_names = [lp.names[ci] or f"#c{ci}" for ci in ub_rows.tolist()]
    off_lb = x - lo > tol
    slack = b_ub - a_ub @ x if a_ub is not None else np.zeros(0)
    loose = slack > tol
    off_ub = hi - x > tol          # +inf for a variable without an ub
    labels: List[Label] = [("v", names[j]) for j in np.flatnonzero(off_lb)]
    labels += [("s", row_names[k]) for k in np.flatnonzero(loose)]
    labels += [("s", f"#ub:{names[j]}")
               for j in np.flatnonzero(off_ub & np.isfinite(hi))]
    primary = tuple(labels)
    # Secondary candidates: even the perturbed vertex keeps *basic at
    # bound* columns when the row system is rank-deficient (ring
    # topologies), and those are invisible in ``x`` alone.  They do show
    # up in the duals: a degenerate basic column has reduced cost
    # exactly 0, a degenerate basic slack a zero row dual.  Appending
    # every zero-marginal at-bound column lets the crash's LU probe
    # pick a consistent completion instead of falling back to
    # artificials (which distort the duals and strand the exact cleanup
    # on a degenerate vertex).
    if low_marg is not None:
        at_lb = ~off_lb & (np.abs(low_marg) < dtol)
        at_ub = np.isfinite(hi) & ~off_ub & (np.abs(up_marg) < dtol)
        for j in np.flatnonzero(at_lb | at_ub):
            if at_lb[j]:
                labels.append(("v", names[j]))
            if at_ub[j]:
                labels.append(("s", f"#ub:{names[j]}"))
        labels += [("s", row_names[k]) for k in
                   np.flatnonzero(~loose & (np.abs(row_marg) < dtol))]
    return primary, tuple(labels)


class _LU:
    """Sparse LU of a basis matrix over ``Fraction``.

    Built by right-looking elimination with Markowitz-style pivot
    selection: always eliminate on a minimum-active-count column,
    breaking ties toward the sparsest row — column singletons (the
    common case for crash bases: slacks, artificials and the triangular
    commodity blocks) pivot with literally zero fill.

    The factorization is stored in *pivot order* ``t = 0..m-1``:

    - ``row_of[t]`` / ``pos_of[t]``: original row index and basis
      position of pivot ``t``; ``piv[t]`` its pivot value.
    - ``lrows[t]``: multipliers eliminated *by* pivot ``t`` as
      ``(t2, f)`` with ``t2 > t`` — row ``row_of[t2]`` had
      ``f * pivot_row`` subtracted.  ``ltrans`` is the transpose
      (entries *in* row ``t`` against earlier pivots).
    - ``urow[t]``: remaining entries of pivot row ``t`` as ``(t2, u)``
      with ``t2 > t`` (columns that pivot later); ``ucol`` is the
      transpose, used by the FTRAN back-substitution scatter.

    All four solve passes walk a heap of dirty positions, so a sparse
    right-hand side touches only the reachable part of the factors.
    A probe (``allow_deficient=True``) stops after the elimination; it
    reports the rows it left uncovered and the columns it could not pivot,
    and :meth:`finish` builds its solve tables only when it is complete.
    """

    __slots__ = ("m", "row_of", "pos_of", "piv", "t_of_row", "t_of_pos",
                 "lrows", "ltrans", "urow", "ucol", "uncovered_rows",
                 "unused_pos", "nnz", "raw")

    def __init__(self, cols: List[SpVec], m: int,
                 allow_deficient: bool = False) -> None:
        self.m = m
        # active submatrix, row-wise; colrows = exact column support
        rows: Dict[int, Dict[int, Fraction]] = {}
        colrows: Dict[int, Set[int]] = {}
        for pos, col in enumerate(cols):
            s = set()
            for r, v in col.items():
                if v:
                    rows.setdefault(r, {})[pos] = v
                    s.add(r)
            colrows[pos] = s
        self.row_of: List[int] = []
        self.pos_of: List[int] = []
        self.piv: List[Fraction] = []
        row_of, pos_of, piv = self.row_of, self.pos_of, self.piv
        raw_l: List[Sequence[Tuple[int, Fraction]]] = []   # (orig row, f)
        raw_u: List[Dict[int, Fraction]] = []              # basis pos -> u
        # lazy min-count heap over active columns
        heap = [(len(s), pos) for pos, s in colrows.items()]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            cnt, pc = heappop(heap)
            s = colrows.get(pc)
            if s is None:
                continue
            if len(s) != cnt:          # stale key: re-queue at current size
                if s:
                    heappush(heap, (len(s), pc))
                elif not allow_deficient:
                    raise ValueError("singular basis: empty active column")
                continue
            if not s:
                if allow_deficient:
                    continue
                raise ValueError("singular basis: empty active column")
            # Markowitz tie-break: sparsest active row within the column
            if cnt == 1:
                (pr,) = s
            else:
                pr = min(s, key=lambda r: len(rows[r]))
            prow = rows.pop(pr)
            pv = prow.pop(pc)
            row_of.append(pr)
            pos_of.append(pc)
            piv.append(pv)
            # retire the pivot row from every column's support
            for c2 in prow:
                colrows[c2].discard(pr)
            raw_u.append(prow)
            del colrows[pc]
            if cnt == 1:               # a column singleton: nothing below
                raw_l.append(())
                continue
            s.discard(pr)
            # eliminate the pivot column from the remaining active rows
            lent: List[Tuple[int, Fraction]] = []
            for r in s:
                row = rows[r]
                f = row.pop(pc)
                if pv != 1:
                    f = frac_div(f, pv)
                lent.append((r, f))
                f_int = type(f) is int
                for c2, u in prow.items():
                    a = row.get(c2, 0)
                    if f_int and type(u) is int and type(a) is int:
                        nv = a - f * u      # integer entries stay ints
                    else:
                        nv = sub_mul(a, f, u)
                    if nv:
                        if c2 not in row:
                            colrows[c2].add(r)
                        row[c2] = nv
                    elif c2 in row:
                        del row[c2]
                        colrows[c2].discard(r)
            raw_l.append(lent)
        self.uncovered_rows = sorted(rows)
        self.unused_pos = sorted(colrows)
        self.raw = (raw_l, raw_u)
        if allow_deficient:
            return              # a probe: finish() only if it is complete
        if self.uncovered_rows or self.unused_pos:
            raise ValueError("singular basis: deficient factorization")
        self.finish()

    def finish(self) -> None:
        """Index a complete elimination into the solve tables: pivot-order
        indices plus transposes, U pre-scaled by the target pivot."""
        raw_l, raw_u = self.raw
        self.raw = None
        self.t_of_row = {r: t for t, r in enumerate(self.row_of)}
        t_of_pos = self.t_of_pos = {p: t for t, p in enumerate(self.pos_of)}
        n_t = len(self.piv)
        self.lrows = [[] for _ in range(n_t)]
        self.ltrans = [[] for _ in range(n_t)]
        self.urow = [[] for _ in range(n_t)]
        self.ucol = [[] for _ in range(n_t)]
        nnz = n_t
        for t, lent in enumerate(raw_l):
            for r, f in lent:
                t2 = self.t_of_row[r]
                self.lrows[t].append((t2, f))
                self.ltrans[t2].append((t, f))
                nnz += 1
        piv = self.piv
        unit = [p == 1 for p in piv]
        for t, uent in enumerate(raw_u):
            for p, u in uent.items():
                t2 = t_of_pos[p]
                # scale by the *target* pivot once, so the solve sweeps
                # are pure multiply-subtract (see ftran/btran)
                self.urow[t].append(
                    (t2, u if unit[t2] else frac_div(u, piv[t2])))
                self.ucol[t2].append(
                    (t, u if unit[t] else frac_div(u, piv[t])))
                nnz += 1
        self.nnz = nnz

    # -- sparse scatter passes ----------------------------------------
    @staticmethod
    def _sweep(work: SpVec, table, descending: bool):
        """Drain ``work`` in pivot order, scattering through ``table``.

        ``table[t]`` lists ``(t2, coef)`` with ``t2`` strictly beyond
        ``t`` in the sweep direction; each processed position subtracts
        ``coef * value`` into ``t2``.  Returns the processed values.
        """
        sgn = -1 if descending else 1
        heap = [sgn * t for t, v in work.items() if v]
        heapq.heapify(heap)
        queued = set(heap)
        out: SpVec = {}
        while heap:
            ht = heapq.heappop(heap)
            t = sgn * ht
            v = work.get(t, ZERO)
            if not v:
                continue
            out[t] = v
            for t2, coef in table[t]:
                work[t2] = sub_mul(work.get(t2, ZERO), coef, v)
                h2 = sgn * t2
                if h2 not in queued:
                    queued.add(h2)
                    heapq.heappush(heap, h2)
        return out

    def ftran(self, b: SpVec) -> SpVec:
        """Solve ``B x = b`` (``b`` keyed by row, ``x`` by basis pos)."""
        work = {}
        for r, v in b.items():
            if v:
                work[self.t_of_row[r]] = v
        y = self._sweep(work, self.lrows, descending=False)   # L y = b
        # U x = y: pre-divide by each diagonal, then the ucol entries
        # (already scaled by their target pivot) scatter into earlier t
        work = {t: frac_div(v, self.piv[t]) for t, v in y.items()}
        x = self._sweep(work, self.ucol, descending=True)
        return {self.pos_of[t]: v for t, v in x.items() if v}

    def btran(self, c: SpVec) -> SpVec:
        """Solve ``y B = c`` (``c`` keyed by basis pos, ``y`` by row)."""
        work = {}
        for p, v in c.items():
            if v:
                work[self.t_of_pos[p]] = v
        # U^T w = c: forward; urow entries are pre-scaled by the target
        # pivot, the initial values divide by their own diagonal
        pre = {t: frac_div(v, self.piv[t]) for t, v in work.items()}
        w = self._sweep(pre, self.urow, descending=False)
        # L^T y = w: backward through the multiplier transpose
        y = self._sweep(dict(w), self.ltrans, descending=True)
        return {self.row_of[t]: v for t, v in y.items() if v}


def _blocks_of(lp: LinearProgram, n_slack: int, slack_cols: List[int]):
    """Commodity-block partition of the priceable columns.

    Collective LP variables follow the ``prefix[src->dst,commodity]``
    codec (stage prefixes like ``s0:`` included in the head), so the
    text after the *first* comma inside the brackets names the
    commodity — ``send[p0->p1,mp1]``, ``s1:send[0->1,b0:v[0,0]]``.
    Columns sharing ``(head, commodity)`` form one pricing block; names
    outside the codec share a catch-all block, and slack columns are
    chunked :data:`SLACK_BLOCK` at a time in row order.
    """
    groups: Dict[Tuple[str, str], List[int]] = {}
    order: List[Tuple[str, str]] = []
    for v in lp.variables:
        name = v.name
        i = name.find("[")
        k = name.find(",", i + 1) if i >= 0 else -1
        key = (name[:i], name[k + 1:-1]) if 0 <= i < k else ("", "")
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(v.index)
    blocks = [groups[k] for k in order]
    for i in range(0, len(slack_cols), SLACK_BLOCK):
        blocks.append(slack_cols[i:i + SLACK_BLOCK])
    return blocks


class _Core:
    """One solve's working state: rows, columns, basis, factors, stats."""

    def __init__(self, lp: LinearProgram, refactor_interval: int) -> None:
        self.lp = lp
        self.refactor_interval = refactor_interval
        n = self.n = lp.num_vars()
        lbs = self.lbs = [Fraction(v.lb) if v.lb else ZERO
                          for v in lp.variables]
        #: nonzero lower bounds by column, ascending
        shift = self.lb_shift = {j: lb for j, lb in enumerate(lbs) if lb}

        # rows in ``sum a_ij y_j (sense) b_i`` form, y = x - lb >= 0,
        # normalized to b >= 0 (negate + flip sense), same as the tableau.
        # Each row is kept twice: exact columns (``acols``, the FTRAN and
        # factorization input, int or Fraction values) and the model's
        # integer rows over their coefficients' own denominator
        # (``arows``/``row_den``), so the pivot-row and reduced-cost
        # arithmetic is fraction-free.
        senses: List[str] = []
        bs: List[Fraction] = []        # int or Fraction, like acols
        tags: List[Label] = []
        acols: Dict[int, SpVec] = {j: {} for j in range(n)}
        arows: List[List[Tuple[int, int]]] = []
        row_den: List[int] = []
        self.row_flip: List[int] = []   # -1 when the row was negated below
        indptr, cols, nums = lp.indptr, lp.cols, lp.nums
        for ci, (sense, rnum, den) in enumerate(zip(lp.senses, lp.rhs,
                                                    lp.dens)):
            lo, hi = indptr[ci], indptr[ci + 1]
            rcols, rnums = cols[lo:hi], nums[lo:hi]
            b = exact_value(rnum, den)
            if shift:
                for j, c in zip(rcols, rnums):
                    if j in shift:
                        b -= exact_value(c, den) * shift[j]
            flip = 1
            if b < 0:
                b = -b
                sense = {LE: GE, GE: LE, EQ: EQ}[sense]
                flip = -1
                rnums = [-c for c in rnums]
            i = len(senses)
            for j, c in zip(rcols, rnums):
                acols[j][i] = exact_value(c, den)
            # the coefficients' own least common denominator
            g = gcd(den, *rnums)
            arows.append([(j, c // g) for j, c in zip(rcols, rnums)])
            row_den.append(den // g)
            senses.append(sense)
            bs.append(b)
            tags.append(("s", lp.names[ci] or f"#c{ci}"))
            self.row_flip.append(flip)
        for v in lp.variables:
            if v.ub is not None:
                b = v.ub - shift.get(v.index, 0)
                a, sense = 1, LE
                if b < 0:          # infeasible box, keep it honest
                    a, b, sense = -1, -b, GE
                acols[v.index][len(senses)] = a
                arows.append([(v.index, a)])
                row_den.append(1)
                senses.append(sense)
                bs.append(b)
                tags.append(("s", f"#ub:{v.name}"))
        m = self.m = len(senses)
        self.senses = senses
        self.bs = bs
        self.b_vec: SpVec = {i: b for i, b in enumerate(bs) if b}

        # column layout: [structural 0..n) | slacks | artificials...]
        self.acols = acols
        self.arows = arows
        self.row_den = row_den
        self.slack_of: Dict[int, int] = {}
        self.labels: Dict[int, Label] = {v.index: ("v", v.name)
                                         for v in lp.variables}
        col = n
        slack_cols: List[int] = []
        for i, s in enumerate(senses):
            if s in (LE, GE):
                self.slack_of[i] = col
                sv = 1 if s == LE else -1
                acols[col] = {i: sv}
                arows[i].append((col, sv * row_den[i]))
                self.labels[col] = tags[i]
                slack_cols.append(col)
                col += 1
        self.n_priceable = col
        self.art_cols: Set[int] = set()
        self.blocks = _blocks_of(lp, col - n, slack_cols)
        self.reset()

    def reset(self) -> None:
        """Back to the state :meth:`__init__` leaves: no artificial
        columns, no basis, fresh stats — a failed crash's leftovers
        gone without rebuilding the rows."""
        for c in self.art_cols:
            self.acols.pop(c, None)    # expelled ones are already gone
        self.art_cols = set()
        self.next_col = self.n_priceable
        self.block_ptr = 0
        # basis state (filled by a crash)
        self.basis: List[int] = []
        self.basic: Set[int] = set()
        self.x_b: List[Fraction] = []
        self.lu: Optional[_LU] = None
        self.etas: List[Tuple[int, SpVec]] = []
        self.eta_nnz = 0
        self.dnum: Dict[int, int] = {}
        self.dden = 1
        self.weights: Dict[int, float] = {}
        self.cands: List[int] = []
        self.iterations = 0
        self.stats: Dict[str, object] = {
            "pivots": 0, "phase1_pivots": 0, "phase2_pivots": 0,
            "dual_pivots": 0, "refactorizations": 0, "ftran": 0,
            "btran": 0, "factor_s": 0.0, "phase1_s": 0.0,
            "phase2_s": 0.0, "dual_s": 0.0, "basis_m": self.m,
        }

    # -- columns -------------------------------------------------------
    def new_artificial(self, row: int) -> int:
        c = self.next_col
        self.next_col += 1
        self.art_cols.add(c)
        self.acols[c] = {row: ONE}
        return c

    def column(self, col: int) -> SpVec:
        return self.acols[col]

    # -- factorization + solves ---------------------------------------
    def factorize(self, probe: Optional[_LU] = None) -> None:
        """Strict LU of the basis; a complete ``probe`` of the same
        columns in the same order already is its elimination."""
        t0 = perf_counter()
        if probe is None:
            self.lu = _LU([self.column(c) for c in self.basis], self.m)
        else:
            probe.finish()
            self.lu = probe
        self.etas = []
        self.eta_nnz = 0
        self.stats["refactorizations"] += 1
        self.stats["factor_s"] += perf_counter() - t0

    def maybe_refactorize(self) -> None:
        if (len(self.etas) >= self.refactor_interval
                or self.eta_nnz > max(1000, 2 * self.lu.nnz)):
            self.factorize()

    def ftran(self, col_vec: SpVec) -> SpVec:
        """``B^{-1} a``: LU solve, then the eta file in append order."""
        self.stats["ftran"] += 1
        x = self.lu.ftran(col_vec)
        for r, w in self.etas:
            xr = x.get(r)
            if not xr:
                continue
            xr2 = frac_div(xr, w[r])
            for i, wv in w.items():
                if i == r:
                    continue
                nv = sub_mul(x.get(i, ZERO), wv, xr2)
                if nv:
                    x[i] = nv
                elif i in x:
                    del x[i]
            x[r] = xr2
        return x

    def btran(self, cvec: SpVec) -> SpVec:
        """``c B^{-1}``: eta file transposed in reverse, then LU solve."""
        self.stats["btran"] += 1
        c = dict(cvec)
        for r, w in reversed(self.etas):
            s = c.get(r, ZERO)        # c_r - sum_i w_i c_i, then / w_r
            for i, wv in w.items():
                if i != r:
                    ci = c.get(i)
                    if ci:
                        s = sub_mul(s, wv, ci)
            cr = frac_div(s, w[r])
            if cr:
                c[r] = cr
            elif r in c:
                del c[r]
        return self.lu.btran(c)

    def set_x_from_b(self) -> None:
        x = self.ftran(self.b_vec)
        self.x_b = [x.get(pos, ZERO) for pos in range(self.m)]

    # -- crash bases ---------------------------------------------------
    def crash_cold(self) -> None:
        """All-slack start plus a column-singleton triangular crash.

        LE rows take their slack; GE/EQ rows with ``b = 0`` take the
        surplus slack / a structural column; only rows with ``b > 0``
        and no usable slack get an artificial (those drive phase 1).
        The structural cover peels column singletons over the uncovered
        ``b = 0`` equality rows — the conservation rows decompose per
        commodity, so this is the per-block basis crash: each block's
        triangular tail enters the basis before any simplex pivot.
        """
        m = self.m
        basis: List[Optional[int]] = [None] * m
        crash_rows: List[int] = []
        for i, s in enumerate(self.senses):
            if s == LE:
                basis[i] = self.slack_of[i]
            elif s == GE and self.bs[i] == 0:
                basis[i] = self.slack_of[i]
            elif self.bs[i] == 0:
                crash_rows.append(i)
            else:
                basis[i] = self.new_artificial(i)
        if crash_rows:
            uncovered = set(crash_rows)
            used: Set[int] = set()
            supp: Dict[int, Set[int]] = {}
            for i in crash_rows:
                for j, _c in self.arows[i]:
                    if j < self.n:
                        supp.setdefault(j, set()).add(i)
            heap = [(len(s), j) for j, s in supp.items()]
            heapq.heapify(heap)
            while heap:
                cnt, j = heapq.heappop(heap)
                s = supp.get(j)
                if not s or j in used:
                    continue
                if len(s) != cnt:       # stale: re-queue at current size
                    heapq.heappush(heap, (len(s), j))
                    continue
                if cnt != 1:
                    continue   # re-armed below if it drops to a singleton
                (i,) = s
                basis[i] = j
                used.add(j)
                uncovered.discard(i)
                # covering row i shrinks every other column's support;
                # columns reaching one active row become peelable again
                for j2, _c in self.arows[i]:
                    if j2 < self.n and j2 != j:
                        s2 = supp.get(j2)
                        if s2 and i in s2:
                            s2.discard(i)
                            if len(s2) == 1 and j2 not in used:
                                heapq.heappush(heap, (1, j2))
            for i in sorted(uncovered):
                basis[i] = self.new_artificial(i)
        self.basis = basis
        self.basic = set(basis)
        self.factorize()
        self.set_x_from_b()

    def crash_from_labels(self, warm_basis: Sequence[Label]) -> None:
        """Crash a recorded basis (stable name labels) back in.

        Labels missing from this LP are dropped; a deficient
        factorization reveals the uncovered rows, which are completed
        with their slack (if free) or a fresh artificial — then the
        completed basis is factorized strictly.
        """
        col_of = {lab: c for c, lab in self.labels.items()}
        want: List[int] = []
        seen: Set[int] = set()
        for lab in warm_basis:
            c = col_of.get(lab)
            if c is not None and c not in seen:
                seen.add(c)
                want.append(c)
        probe = _LU([self.column(c) for c in want], self.m,
                    allow_deficient=True)
        drop = set(probe.unused_pos)
        kept = [c for p, c in enumerate(want) if p not in drop]
        covered = set(probe.row_of)
        basis = list(kept)
        for i in range(self.m):
            if i in covered:
                continue
            sc = self.slack_of.get(i)
            if sc is not None and sc not in seen:
                basis.append(sc)
                seen.add(sc)
            else:
                basis.append(self.new_artificial(i))
        self.basis = basis
        self.basic = set(basis)
        # nothing dropped or completed: reuse the probe
        self.factorize(probe if len(probe.piv) == len(want) == self.m
                       else None)
        self.set_x_from_b()

    def primal_feasible(self) -> bool:
        return all(v >= 0 for v in self.x_b) and all(
            self.x_b[p] == 0 for p, c in enumerate(self.basis)
            if c in self.art_cols)

    # -- reduced costs ---------------------------------------------------
    def cost_vec(self, phase: int) -> Dict[int, Fraction]:
        """Min-form objective: phase 1 = sum of artificials, phase 2 =
        ``sign * c`` over the structural columns."""
        if phase == 1:
            return {c: ONE for c in self.art_cols}
        sign = -1 if self.lp.sense_max else 1
        out = {}
        for j, c in self.lp.objective.coefs.items():
            c = sign * Fraction(c)
            if c:
                out[j] = c
        return out

    def compute_d(self, phase: int) -> None:
        """Recompute the reduced costs from scratch (phase entry).

        ``d`` is kept fraction-free: integer numerators ``dnum`` over
        one positive common denominator ``dden`` (the tableau's trick),
        so the per-pivot update is pure integer multiply/subtract with
        a single gcd pass.
        """
        cost = self.cost_vec(phase)
        cb = {}
        for pos, c in enumerate(self.basis):
            v = cost.get(c)
            if v:
                cb[pos] = v
        y = self.btran(cb) if cb else {}
        # fold each row's integerization denominator into y once
        w = {r: frac_div(yv, self.row_den[r]) for r, yv in y.items()}
        for j, cv in cost.items():
            if j not in self.basic and j not in self.art_cols:
                w[-1 - j] = cv       # stash c_j under an impossible row key
        wi, den = _to_int_vec(w)
        acc: Dict[int, int] = {}
        for k, cn in wi.items():
            if k < 0:
                j = -1 - k
                if cn:
                    acc[j] = acc.get(j, 0) + cn
        self._add_rows(acc, wi, -1)
        g = gcd(den, *acc.values()) if acc else 1
        if g > 1:
            den //= g
            acc = {j: v // g for j, v in acc.items()}
        self.dnum = acc
        self.dden = den
        self.weights = {}
        self.cands = []

    def extract_duals(self) -> Dict[int, Fraction]:
        """Constraint-row multipliers ``y`` of the current optimal basis.

        One BTRAN of the phase-2 basic costs, mapped back through the
        row normalization (the ``b < 0`` sign flips of ``__init__``) and
        the internal min-form sign, so the returned convention is the
        one documented on :attr:`repro.lp.solution.LPSolution.duals`:
        for a maximization LP, ``sum_i y_i a_ij - c_j >= 0`` for every
        column.  Multipliers of the synthetic upper-bound rows are
        dropped (they price variable bounds, not constraints).
        """
        cost = self.cost_vec(2)
        cb: SpVec = {}
        for pos, c in enumerate(self.basis):
            v = cost.get(c)
            if v:
                cb[pos] = v
        y = self.btran(cb) if cb else {}
        sgn = -1 if self.lp.sense_max else 1
        out: Dict[int, Fraction] = {}
        for ci, flip in enumerate(self.row_flip):
            v = y.get(ci)
            if v:
                out[ci] = sgn * flip * v
        return out

    def pivot_row_alpha(self, r: int) -> Tuple[Dict[int, int], int]:
        """Row ``r`` of ``B^{-1}N`` over the priceable nonbasic columns,
        as integer numerators over one common denominator."""
        z = self.btran({r: ONE})
        w = {row: frac_div(zv, self.row_den[row]) for row, zv in z.items()}
        wi, den = _to_int_vec(w)
        alpha: Dict[int, int] = {}
        self._add_rows(alpha, wi, 1)
        return alpha, den

    def _add_rows(self, acc: Dict[int, int], wi: Dict[int, int],
                  sign: int) -> None:
        """``acc += sign * sum_r wi[r] * arows[r]`` on the nonbasic
        columns, over the rows (keys ``>= 0``) of ``wi``."""
        basic = self.basic
        for r, yn in wi.items():
            if r < 0 or not yn:
                continue
            for j, a in self.arows[r]:
                if j in basic:
                    continue
                nv = acc.get(j, 0) + sign * yn * a
                if nv:
                    acc[j] = nv
                elif j in acc:
                    del acc[j]

    # -- pricing ---------------------------------------------------------
    def _score(self, j: int) -> float:
        r = _fdiv(self.dnum[j], self.dden)
        return (r * r) / self.weights.get(j, 1.0)

    def _refresh_candidates(self) -> None:
        """Sweep commodity blocks round-robin for improving columns.

        Each refresh scans whole blocks starting after the last
        productive one and keeps sweeping until it has seen
        :data:`PRICE_SWEEP_MIN` improving columns (or a full cycle
        completes): a single commodity rarely holds the globally
        attractive pivots on a degenerate face, so the shortlist always
        mixes several blocks — that keeps the pivot count close to full
        Devex pricing while still scanning only a sliver of the
        nonbasic set per refresh early in the solve.
        """
        d = self.dnum
        nb = len(self.blocks)
        found: List[Tuple[float, int]] = []
        for step in range(nb):
            bi = (self.block_ptr + step) % nb
            hit = False
            for j in self.blocks[bi]:
                v = d.get(j)
                if v is not None and v < 0 and j not in self.basic:
                    found.append((-self._score(j), j))
                    hit = True
            if hit and len(found) >= PRICE_SWEEP_MIN:
                self.block_ptr = (bi + 1) % nb
                break
        self.cands = [j for _s, j in
                      heapq.nsmallest(CANDIDATE_LIST_SIZE, found)]

    def price(self, bland: bool) -> Optional[int]:
        """Entering column, or None when ``d >= 0`` (full-scan proven)."""
        d = self.dnum
        if bland:
            enter = -1
            for j, v in d.items():
                if v < 0 and (enter < 0 or j < enter):
                    enter = j
            return enter if enter >= 0 else None
        for attempt in (0, 1):
            best = None
            best_s = 0.0
            live = []
            for j in self.cands:
                v = d.get(j)
                if v is None or v >= 0 or j in self.basic:
                    continue
                live.append(j)
                s = self._score(j)
                if s > best_s or (s == best_s and
                                  (best is None or j < best)):
                    best_s = s
                    best = j
            self.cands = live
            if best is not None:
                return best
            if attempt == 0:
                self._refresh_candidates()
        # optimality backstop: full scan of the maintained nonzeros
        enter = None
        best_s = 0.0
        for j, v in d.items():
            if v < 0:
                s = self._score(j)
                if s > best_s or (s == best_s and
                                  (enter is None or j < enter)):
                    best_s = s
                    enter = j
        return enter

    # -- pivot bookkeeping -------------------------------------------
    def apply_pivot(self, r: int, q: int, w: SpVec, theta: Fraction,
                    alpha: Dict[int, int], aden: int) -> None:
        """Update ``x_B``, ``d``, Devex weights, basis and the eta file.

        ``d' = d - (d_q / alpha_q) * alpha_row``, done fraction-free via
        :func:`~repro.lp.exact_simplex._row_sub`: the ``aden`` scaling
        cancels, the entering column's entry cancels to exactly 0, and
        appending the leaving column's (unit) alpha entry makes its new
        reduced cost ``-d_q/alpha_q`` fall out of the same update.
        """
        wr = w[r]
        dq = self.dnum.get(q, 0)
        leaving = self.basis[r]
        aq = alpha[q]
        if dq:
            pd = dict(alpha)
            if leaving not in self.art_cols:
                pd[leaving] = aden      # alpha of the leaving basic col is 1
            pden = aq
            if pden < 0:
                pd = {j: -v for j, v in pd.items()}
                pden = -pden
            self.dnum, self.dden = _row_sub(self.dnum, self.dden, dq,
                                            pd, pden)
        # Devex reference weights (Forrest-Goldfarb), float-approximate:
        # they only steer the pivot path, never the arithmetic
        weights = self.weights
        wq = weights.pop(q, 1.0)
        af = _f(wr)
        w_leave = wq / (af * af) if af else 1.0
        if not w_leave <= DEVEX_RESET:       # catches inf and NaN too
            weights.clear()
            w_leave = 1.0
        if leaving not in self.art_cols:
            weights[leaving] = w_leave if w_leave > 1.0 else 1.0
        big = False
        for j, av in alpha.items():
            if j == q:
                continue
            rf = _fdiv(av, aq)
            nw = rf * rf * wq
            if nw > weights.get(j, 1.0):
                weights[j] = nw
                big = big or nw > DEVEX_RESET
        if big:
            weights.clear()
        # primal values and basis swap
        x_b = self.x_b
        if theta:
            for pos, wv in w.items():
                x_b[pos] = sub_mul(x_b[pos], theta, wv)
        x_b[r] = theta
        self.basic.discard(leaving)
        self.basic.add(q)
        self.basis[r] = q
        if leaving in self.art_cols:
            # an expelled artificial never re-enters: drop its column
            del self.acols[leaving]
        self.etas.append((r, w))
        self.eta_nnz += len(w)
        self.iterations += 1
        self.stats["pivots"] += 1
        self.maybe_refactorize()

    # -- primal loop ---------------------------------------------------
    def primal(self, phase: int, max_iterations: int,
               force_bland: bool = False) -> str:
        """Phase 1/2 primal iterations on the current basis; the
        reduced-cost dict must already match ``phase``."""
        t0 = perf_counter()
        bland = force_bland
        degen_streak = 0
        status = "optimal"
        while True:
            if self.iterations >= max_iterations:
                status = "iterlimit"
                break
            q = self.price(bland)
            if q is None:
                break
            w = self.ftran(self.column(q))
            r = self.ratio_test(w, bland)
            if r < 0:
                status = "unbounded"
                break
            alpha, aden = self.pivot_row_alpha(r)
            assert Fraction(alpha[q], aden) == w[r], \
                "pivot row/column disagree"
            theta = self.x_b[r] / w[r]
            self.apply_pivot(r, q, w, theta, alpha, aden)
            self.stats["phase%d_pivots" % phase] += 1
            if theta == 0:
                degen_streak += 1
                if degen_streak >= DEGENERACY_LIMIT:
                    bland = True       # anti-cycling fallback
            else:
                degen_streak = 0
                bland = force_bland
        self.stats["phase%d_s" % phase] += perf_counter() - t0
        return status

    def ratio_test(self, w: SpVec, bland: bool) -> int:
        """Leaving position: min ``x_i / w_i`` over ``w_i > 0`` rows.

        Rows whose basic variable is an artificial sitting at 0 block
        the step at ratio 0 whenever ``w_i != 0`` — artificials are
        pinned at zero (they may never grow back), and the resulting
        degenerate pivot expels one from the basis.  Ties break toward
        expelling artificials, then the smallest basis column index.
        """
        basis, x_b = self.basis, self.x_b
        art = self.art_cols
        leave = -1
        ln = ld = ONE
        for pos, wv in w.items():
            bcol = basis[pos]
            pinned = bcol in art and x_b[pos] == 0
            if not pinned and wv <= 0:
                continue
            if pinned:
                r, a = ZERO, ONE      # ratio 0: forces theta = 0
            else:
                r, a = x_b[pos], wv
            if leave < 0:
                take = True
            else:
                diff = r * ld - ln * a
                if diff < 0:
                    take = True
                elif diff > 0:
                    take = False
                else:
                    lart = basis[leave] in art
                    if pinned != lart:
                        take = pinned          # prefer expelling artificials
                    else:
                        take = bcol < basis[leave]
            if take:
                leave, ln, ld = pos, r, a
        # a pinned artificial may leave on a negative pivot element too:
        # theta = 0, the pivot just flips signs
        return leave

    # -- dual loop -------------------------------------------------------
    def dual(self, max_iterations: int) -> str:
        """Dual simplex from a dual-feasible basis (``d >= 0``).

        Leaving row: the most primal-infeasible basic variable — an
        ``x_i < 0``, or an artificial parked *above* 0 by a warm crash.
        The dual ratio test scans the pivot row for the sign-eligible
        column minimizing ``d_j / |alpha_rj|``; no eligible column
        means the dual is unbounded, i.e. the LP is INFEASIBLE.

        After :data:`DEGENERACY_LIMIT` consecutive dual-degenerate pivots
        (``d_q = 0``) both choices switch to Bland's rule for the dual —
        the infeasible row with the smallest basic column index, then the
        smallest column index among ratio ties — until the next
        nondegenerate pivot, so the loop cannot cycle.  The collective
        LPs price only the throughput column, so nearly every reduced
        cost is 0 and the most-infeasible rule alone can cycle forever
        (a seeded 8-node reduce did, for over 8000 pivots).
        """
        t0 = perf_counter()
        basis, x_b, art = self.basis, self.x_b, self.art_cols
        status = "optimal"
        degen_streak = 0
        while True:
            if self.iterations >= max_iterations:
                status = "iterlimit"
                break
            bland = degen_streak >= DEGENERACY_LIMIT
            r = -1
            worst = ZERO
            for pos, v in enumerate(x_b):
                infeas = -v if v < 0 else (v if basis[pos] in art else ZERO)
                if not infeas:
                    continue
                if r < 0:
                    take = True
                elif bland:
                    take = basis[pos] < basis[r]
                else:
                    take = infeas > worst or (infeas == worst
                                              and basis[pos] < basis[r])
                if take:
                    worst = infeas
                    r = pos
            if r < 0:
                break              # primal feasible + dual feasible = optimal
            alpha, aden = self.pivot_row_alpha(r)
            sgn = 1 if x_b[r] > 0 else -1
            q = None
            qn = qd = 1
            for j, av in alpha.items():
                if sgn * av <= 0:
                    continue
                dj = self.dnum.get(j, 0)
                if q is None:
                    take = True
                else:
                    diff = dj * qd - qn * (sgn * av)
                    take = diff < 0 or (diff == 0 and (j < q if bland else
                                                       abs(av) > abs(qd)))
                if take:
                    q, qn, qd = j, dj, sgn * av
            if q is None:
                status = "infeasible"      # dual unbounded
                break
            w = self.ftran(self.column(q))
            assert w.get(r) == Fraction(alpha[q], aden), \
                "pivot row/column disagree"
            theta = x_b[r] / w[r]
            self.apply_pivot(r, q, w, theta, alpha, aden)
            self.stats["dual_pivots"] += 1
            if qn == 0:
                degen_streak += 1
            else:
                degen_streak = 0
        self.stats["dual_s"] += perf_counter() - t0
        return status


class RevisedSimplexSolver:
    """Exact rational revised simplex (see the module docstring).

    Parameters
    ----------
    max_iterations:
        Hard pivot budget across all phases; overruns return an
        ``ERROR`` solution with a diagnostic message, they never raise.
    pricing:
        ``"devex"`` (default) — Devex weights over commodity-block
        partial pricing; ``"bland"`` — pure Bland's rule (debugging).
    refactor_interval:
        Product-form eta updates tolerated before the basis is
        refactorized from scratch (a fill threshold — eta nonzeros
        exceeding twice the LU's — also triggers one).  Tests force
        tiny intervals to exercise the refactorization path.
    crash:
        ``"float"`` (default) — cold solves first guess the optimal
        basis from a perturbed floating-point solve (see
        :func:`_float_crash_labels`) and only pivot exactly from there;
        ``"cold"`` — pure exact path (triangular crash + two phases),
        used by the differential tests and as the automatic fallback
        when scipy is unavailable or the float guess collapses.
    """

    def __init__(self, max_iterations: int = 500_000,
                 pricing: str = "devex",
                 refactor_interval: int = 64,
                 crash: str = "float") -> None:
        if pricing not in ("devex", "bland"):
            raise ValueError(f"unknown pricing rule {pricing!r}")
        if refactor_interval < 1:
            raise ValueError("refactor_interval must be >= 1")
        if crash not in ("float", "cold"):
            raise ValueError(f"unknown crash strategy {crash!r}")
        self.max_iterations = max_iterations
        self.pricing = pricing
        self.refactor_interval = refactor_interval
        self.crash = crash

    # ------------------------------------------------------------------
    def solve(self, lp: LinearProgram,
              warm_basis: Optional[Sequence[Label]] = None,
              want_duals: bool = False) -> LPSolution:
        """Solve ``lp`` exactly; optionally warm from a recorded basis.

        ``want_duals=True`` additionally reports the exact constraint
        multipliers of the optimal basis on the returned solution's
        ``duals`` field (one extra BTRAN; see
        :meth:`_Core.extract_duals` for the sign convention) — the
        column-generation masters of :mod:`repro.lp.colgen` price
        candidate columns against them.

        ``warm_basis`` is a tuple of stable name labels (the
        ``basis_labels`` of a previous :class:`LPSolution`); without
        one, ``crash="float"`` first guesses the basis from a perturbed
        float solve.  Either way the crash basis is completed with
        slacks/artificials and then: primal feasible -> straight to
        phase 2; primal infeasible but *dual* feasible (all reduced
        costs nonnegative — the tightened-perturbation case) -> the
        dual simplex; neither -> the next candidate basis.  A warm
        basis that lands neither-feasible (e.g. the perturbation scaled
        matrix coefficients, which moves the reduced costs) falls back
        to the float crash, and only then to a cold start.
        """
        if not lp.is_rational():
            raise ValueError(
                "revised simplex requires int/Fraction data; convert the "
                "LP or use the HiGHS backend")
        return self._solve_rational(lp, warm_basis, want_duals)

    def _solve_rational(self, lp: LinearProgram,
                        warm_basis: Optional[Sequence[Label]] = None,
                        want_duals: bool = False) -> LPSolution:
        """:meth:`solve` on a model the caller has already found rational
        (:func:`repro.lp.dispatch.solve` scans each model once)."""
        core = _Core(lp, self.refactor_interval)
        path = "cold"
        # candidate bases, tried in order; the float guess is generated
        # lazily so a good warm basis never pays for a scipy solve
        cands: List[Tuple[str, Sequence[Label]]] = []
        if warm_basis:
            cands.append(("warm", warm_basis))
        float_pending = self.crash == "float"
        stage = 0
        while True:
            if stage == len(cands):
                if not float_pending:
                    break
                float_pending = False
                guess = _float_crash_labels(lp)
                if guess:
                    primary, full = guess
                    cands.append(("float", primary))
                    if len(full) > len(primary):
                        cands.append(("float", full))
                if stage == len(cands):
                    break
            tag, labels = cands[stage]
            if stage and core.art_cols:
                # a previous crash added artificial columns, which would
                # count against the next candidate's crash — reset.  An
                # artificial-free failed crash (the common warm-miss)
                # leaves the core clean for re-crashing.
                core.reset()
            core.crash_from_labels(labels)
            core.compute_d(2)
            dual_ok = all(v >= 0 for v in core.dnum.values())
            primal_ok = core.primal_feasible()
            if primal_ok and dual_ok:
                path = f"{tag}-primal"   # crash is already optimal
                break
            more = stage + 1 < len(cands) or float_pending
            if more and (not (primal_ok or dual_ok)
                         or len(core.art_cols) * 20 > core.m):
                # Useless crash, or many uncovered rows (the
                # rank-deficient ring shape): artificials distort the
                # duals and the cleanup would wander a degenerate
                # vertex — move on to the next candidate basis.  A
                # mostly-covered feasible crash keeps its few residuals
                # for ordinary pivots.
                stage += 1
                continue
            if primal_ok:
                path = f"{tag}-primal"
            elif dual_ok:
                path = f"{tag}-dual"
            elif core.art_cols:                           # cold restart
                core.reset()
            break
        status = "optimal"
        if path == "cold":
            core.crash_cold()
            art = core.art_cols
            if any(core.x_b[p] > 0 for p, c in enumerate(core.basis)
                   if c in art):
                core.compute_d(1)
                status = self._run(core, 1)
                if status == "optimal":
                    infeas = sum(core.x_b[p]
                                 for p, c in enumerate(core.basis)
                                 if c in art)
                    if infeas > 0:
                        return self._done(core, lp, SolveStatus.INFEASIBLE,
                                          path)
                elif status == "unbounded":
                    status = "error"   # phase 1 is bounded below by zero
            if status == "optimal":
                core.compute_d(2)
                status = self._run(core, 2)
        elif path.endswith("-primal"):
            status = self._run(core, 2)
        else:
            # the dual stops at primal feasibility; reduced costs stay
            # nonnegative throughout, so "optimal" is the optimum
            status = core.dual(self.max_iterations)
            if status == "infeasible":
                return self._done(core, lp, SolveStatus.INFEASIBLE, path)
        if status == "unbounded":
            return self._done(core, lp, SolveStatus.UNBOUNDED, path)
        if status != "optimal":
            sol = self._done(core, lp, SolveStatus.ERROR, path)
            sol.message = (f"{path} solve stopped with {status!r} after "
                           f"{core.iterations} pivots on {lp.name!r} "
                           f"({core.n} vars, {core.m} rows)")
            return sol
        return self._done(core, lp, SolveStatus.OPTIMAL, path,
                          want_duals=want_duals)

    def _run(self, core: _Core, phase: int) -> str:
        return core.primal(phase, self.max_iterations,
                           force_bland=self.pricing == "bland")

    def _done(self, core: _Core, lp: LinearProgram, status: SolveStatus,
              path: str, want_duals: bool = False) -> LPSolution:
        stats = dict(core.stats)
        stats["path"] = path
        if status is not SolveStatus.OPTIMAL:
            return LPSolution(status, backend="revised-simplex", lp=lp,
                              iterations=core.iterations, stats=stats)
        values: Dict[int, Fraction] = {}
        basic_struct: Set[int] = set()
        for pos, c in enumerate(core.basis):
            if c < core.n:
                basic_struct.add(c)
                x = core.x_b[pos] + core.lbs[c]
                if x:
                    values[c] = x
        for j, lb in core.lb_shift.items():
            if j not in basic_struct:
                values[j] = lb
        objective = lp.objective.evaluate(values)
        labels = tuple(core.labels[c] for c in core.basis
                       if c in core.labels)
        return LPSolution(SolveStatus.OPTIMAL, objective=objective,
                          values=values, backend="revised-simplex",
                          exact=True, lp=lp, iterations=core.iterations,
                          basis_labels=labels, stats=stats,
                          duals=core.extract_duals() if want_duals else None)


class MasterResult:
    """Slim per-round answer of :class:`IncrementalColumnMaster`:
    status, exact objective, duals keyed by constraint index, nonzero
    variable/column values keyed by *name*, and the pivot count this
    round took."""

    __slots__ = ("status", "objective", "duals", "values", "pivots")

    def __init__(self, status: SolveStatus,
                 objective: Optional[Fraction] = None,
                 duals: Optional[Dict[int, Fraction]] = None,
                 values: Optional[Dict[str, Fraction]] = None,
                 pivots: int = 0) -> None:
        self.status = status
        self.objective = objective
        self.duals = duals or {}
        self.values = values or {}
        self.pivots = pivots

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


class IncrementalColumnMaster:
    """A column-generation master kept *hot* across pricing rounds.

    The Dantzig-Wolfe loop of :mod:`repro.lp.colgen` re-solves one
    master LP dozens of times, each round with a handful of new columns
    over an unchanged row set.  A fresh :meth:`RevisedSimplexSolver.solve`
    pays the dominant costs — basis crash and LU factorization — every
    round just to replay one or two pivots.  This class keeps the
    working core (basis, LU factors, eta file, Devex state) alive
    between rounds: :meth:`add_and_resolve` splices the new columns
    into the exact column file and the fraction-free integer rows
    (rescaling a row's common denominator when a new coefficient widens
    it), recomputes the phase-2 reduced costs, and continues the primal
    from the current basis — which stays feasible, since new columns
    enter nonbasic at zero.

    Contract: added columns have objective coefficient 0, lower bound 0
    and no upper bound — exactly the ray weights of a Dantzig-Wolfe
    master whose objective lives on the shared master variables.  The
    pivot sequence is deterministic, so the reached vertex is too.
    """

    def __init__(self, lp: LinearProgram,
                 solver: Optional[RevisedSimplexSolver] = None) -> None:
        self.lp = lp
        self.solver = solver or RevisedSimplexSolver()
        self.core: Optional[_Core] = None
        self._col_names: Dict[int, str] = {}

    # -- entry: one ordinary solve, then keep the basis ----------------
    def solve_full(self) -> MasterResult:
        """Solve the master from scratch (round 0 / fallback) and, when
        optimal, rebuild a live core on its basis for later rounds."""
        sol = self.solver.solve(self.lp, want_duals=True)
        self.core = None
        self._col_names = {}
        if sol.status is not SolveStatus.OPTIMAL:
            return MasterResult(sol.status)
        core = _Core(self.lp, self.solver.refactor_interval)
        core.crash_from_labels(sol.basis_labels)
        if core.primal_feasible():
            core.compute_d(2)
            if all(v >= 0 for v in core.dnum.values()):
                self.core = core
        values = {self.lp.variables[j].name: v
                  for j, v in sol.values.items() if v}
        return MasterResult(SolveStatus.OPTIMAL, objective=sol.objective,
                            duals=dict(sol.duals or {}), values=values,
                            pivots=int((sol.stats or {}).get("pivots", 0)))

    @property
    def live(self) -> bool:
        return self.core is not None

    # -- incremental rounds --------------------------------------------
    def add_and_resolve(
            self, cols: Sequence[Tuple[str, Dict[int, Fraction]]],
    ) -> Optional[MasterResult]:
        """Splice ``(name, {constraint-index: coef})`` columns in and
        re-optimize from the current basis.  Returns ``None`` when no
        live core is available (caller falls back to a full solve)."""
        core = self.core
        if core is None:
            return None
        block: List[int] = []
        for name, row_coefs in cols:
            c = core.next_col
            core.next_col += 1
            core.n_priceable = core.next_col
            vec: SpVec = {}
            for ci, coef in row_coefs.items():
                f = Fraction(coef)
                if core.row_flip[ci] < 0:
                    f = -f
                if not f:
                    continue
                vec[ci] = f
                den = core.row_den[ci]
                fd = f.denominator
                if fd != 1:
                    s = fd // gcd(den, fd)
                    if s > 1:       # widen the row's common denominator
                        core.arows[ci] = [(j, a * s)
                                          for j, a in core.arows[ci]]
                        den = core.row_den[ci] = den * s
                core.arows[ci].append((c, (f * den).numerator))
            core.acols[c] = vec
            core.labels[c] = ("v", name)
            self._col_names[c] = name
            block.append(c)
        if block:
            core.blocks.append(block)
        return self.resolve()

    def resolve(self) -> MasterResult:
        """Phase-2 continuation from the current (feasible) basis."""
        core = self.core
        assert core is not None
        piv0 = int(core.stats["pivots"])
        core.compute_d(2)
        status = core.primal(2, self.solver.max_iterations)
        pivots = int(core.stats["pivots"]) - piv0
        if status == "unbounded":
            return MasterResult(SolveStatus.UNBOUNDED, pivots=pivots)
        if status != "optimal":
            self.core = None    # poisoned; caller re-solves from scratch
            return MasterResult(SolveStatus.ERROR, pivots=pivots)
        by_idx: Dict[int, Fraction] = {}
        values: Dict[str, Fraction] = {}
        basic_struct: Set[int] = set()
        for pos, c in enumerate(core.basis):
            x = core.x_b[pos]
            if c < core.n:
                basic_struct.add(c)
                x = x + core.lbs[c]
                if x:
                    by_idx[c] = x
                    values[self.lp.variables[c].name] = x
            elif x and c in self._col_names:
                values[self._col_names[c]] = x
        for j, lb in core.lb_shift.items():
            if j not in basic_struct:
                by_idx[j] = lb
                values[self.lp.variables[j].name] = lb
        return MasterResult(SolveStatus.OPTIMAL,
                            objective=self.lp.objective.evaluate(by_idx),
                            duals=core.extract_duals(), values=values,
                            pivots=pivots)
