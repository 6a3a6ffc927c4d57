"""Linear-programming substrate.

The paper solves its steady-state LPs *in rational numbers* with tools like
``lpsolve`` or Maple, then multiplies by the lcm of denominators to obtain an
integer periodic schedule.  Neither tool is available here, so this package
provides the substrate from scratch:

- :mod:`repro.lp.model` — a small PuLP-flavoured modeling layer
  (:class:`LinearProgram`, :class:`Variable`, affine expressions,
  ``<=``/``>=``/``==`` constraints).  Expression building is linear-time:
  ``lin_sum`` and :meth:`LinExpr.add_term` accumulate in place, so the LP
  builders in :mod:`repro.core` stay O(terms) even on 5–10× scaled
  platforms.
- :mod:`repro.lp.presolve` — fraction-preserving model shrinking run
  before either backend: fixed variables, singleton/empty rows, zero
  columns, duplicate and dominated one-port rows, free column
  singletons; a ``Postsolve`` object maps the reduced solution back to
  the original variable names, exactly.
- :mod:`repro.lp.exact_simplex` — the *tableau* exact backend: a sparse
  fraction-free two-phase simplex (integer rows over a per-row common
  denominator, an exact column index so pivots touch only rows with a
  nonzero in the entering column, Devex partial pricing with Bland
  fallback on degeneracy cycles, Markowitz basis repair instead of a
  priced phase 1 when the crash basis is already feasible, artificial
  columns physically dropped after Phase 1, warm starts from a
  label-addressed basis).  Bit-exact rational optima, exactly what the
  lcm-of-denominators step needs.
- :mod:`repro.lp.revised_simplex` — the *revised* exact backend for large
  models: never materializes the tableau; sparse LU factorization of the
  basis over ``Fraction`` with Markowitz pivoting, product-form eta
  updates between refactorizations, FTRAN/BTRAN solves, Devex pricing
  over commodity-block partial sweeps, a perturbed floating-point crash
  that lands on (or next to) the optimal basis, and a **dual simplex**
  entry from a recorded basis for tightened re-solves.
- :mod:`repro.lp.colgen` — Dantzig-Wolfe **column generation** over the
  LPs' commodity-block structure: a restricted master holding only the
  shared capacity rows over tree/path columns, priced per commodity by
  exact-dual shortest paths (or small pricing LPs), optionally across a
  process pool — deterministic regardless of worker count.
- :mod:`repro.lp.dense_simplex` — the original dense ``Fraction`` tableau,
  kept as a slow-but-obviously-correct oracle for differential tests.
- :mod:`repro.lp.highs` — a floating-point backend on
  :func:`scipy.optimize.linprog` (HiGHS) for instances past the exact
  dispatch limit.
- :mod:`repro.lp.rationalize` — snapping float solutions to rationals with
  exact feasibility verification.
- :func:`repro.lp.solve` — auto-dispatch plus a solve memo-cache and
  ``warm_basis=`` warm starts.

Backend selection and warm starts
---------------------------------
``solve(lp)`` (``backend="auto"``) presolves rational LPs, then picks an
exact engine whenever the reduced model has at most
:data:`repro.lp.dispatch.EXACT_VAR_LIMIT` variables (50000 — covering the
fig9 8-host pipelined all-reduce and the 128-node ring scatter tier), else
HiGHS followed by verified rationalization.  Within the exact route the
fraction-free tableau serves models up to
:data:`repro.lp.dispatch.TABLEAU_VAR_LIMIT` (5000) presolved variables
plus every ``canonical=True`` solve, and the revised simplex serves
everything larger and every ``dual=True`` re-solve; both produce
bit-identical objectives (enforced by the differential suite).  Models
above :data:`repro.lp.dispatch.COLGEN_VAR_LIMIT` (6000) presolved
variables that decompose into commodity blocks route to column
generation (:mod:`repro.lp.colgen`) first — same exact optima, masters
orders of magnitude smaller.
Identical models are memoized
under a canonical hash (:func:`repro.lp.dispatch.canonical_key`), so the
pipeline's repeated ``solve_collective`` calls cost one simplex run.
Exact solves return their optimal basis as ``("v", var-name)`` /
``("s", constraint-name)`` labels (``LPSolution.basis_labels``); passing
them back as ``solve(lp, warm_basis=...)`` crash-pivots that basis in and
skips Phase 1 when it is still primal feasible.
``repro.lp.dispatch.clear_cache()`` resets the memo (benchmarks do this
to measure cold solves).
"""

from repro.lp.model import Constraint, LinearProgram, LinExpr, Variable, lin_sum
from repro.lp.solution import LPSolution, SolveStatus
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.revised_simplex import RevisedSimplexSolver
from repro.lp.dense_simplex import DenseSimplexSolver
from repro.lp.highs import HighsSolver
from repro.lp.rationalize import rationalize_solution
from repro.lp.colgen import solve_colgen
from repro.lp.dispatch import canonical_key, clear_cache, solve

__all__ = [
    "Constraint",
    "LinearProgram",
    "LinExpr",
    "Variable",
    "lin_sum",
    "LPSolution",
    "SolveStatus",
    "ExactSimplexSolver",
    "RevisedSimplexSolver",
    "DenseSimplexSolver",
    "HighsSolver",
    "rationalize_solution",
    "solve_colgen",
    "canonical_key",
    "clear_cache",
    "solve",
]
