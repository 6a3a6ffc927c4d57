"""Backend auto-dispatch, presolve, solve memoization, and warm starts.

Rational LPs are shrunk by :mod:`repro.lp.presolve` first (on by
default; exactly reversible via its ``Postsolve``), then
``backend="auto"`` sends models up to :data:`EXACT_VAR_LIMIT` variables
to an exact rational simplex (bit-exact rationals, as the paper's
pipeline assumes) and everything else to HiGHS, followed by a
rationalization attempt that certifies the snapped optimum exactly
(:mod:`repro.lp.certificate`), so downstream exact machinery can still
run whenever the optimum and its duals have modest denominators.  The
limit is checked on the *reduced* model, so presolve can pull an
oversized LP back onto the exact path.

Two exact engines sit behind the ``"exact"`` route:

- the **revised** simplex (:mod:`repro.lp.revised_simplex`) — LU-
  factorized basis, float-assisted crash, dual simplex entry from a
  dual-feasible warm crash — for every model above
  :data:`TABLEAU_VAR_LIMIT` presolved variables, up to
  :data:`EXACT_VAR_LIMIT`, and for the warm re-solves of
  :func:`repro.lp.resolve.replan` (``backend="revised"``), whatever the
  size;
- the fraction-free **tableau** simplex (:mod:`repro.lp.exact_simplex`)
  for the small models at or below that cut-over and for every
  ``canonical=True`` solve (its lexicographic tie-break is defined on the
  tableau).  It also stays the differential reference.

Both return bit-identical optimal objectives (the differential suite in
``tests/lp/test_revised_simplex.py`` enforces it), so the split is purely
a performance decision: the revised engine's float-guided crash finishes
most collective LPs in a handful of pivots, but its start-up (a HiGHS
solve plus two exact LU factorizations) costs a few milliseconds that a
tiny LP's tableau pivots do not.

A third exact route sits on top for the largest collective LPs:
Dantzig-Wolfe **column generation** (:mod:`repro.lp.colgen`,
``backend="colgen"``).  Under ``"auto"``, rational models with more
than :data:`COLGEN_VAR_LIMIT` (and at most :data:`EXACT_VAR_LIMIT`)
*raw* variables are checked for block structure before presolve; when
the raw LP decomposes into >= 2 commodity blocks, or into one block a
combinatorial pricer owns (a reduce LP's reduction-tree block), it
routes there, with no presolve, instead of to the monolithic revised
solve; the restricted masters themselves reuse the revised engine.
Every dispatched solve stamps the engine it took and why into
``stats["route"]`` / ``stats["route_reason"]``.

Three layers of reuse sit in front of the solvers:

- **Memo cache.**  Solutions are cached under a canonical hash of the
  model (variables with bounds, constraints with sorted coefficients,
  objective, sense).  The paper pipeline re-solves the same LP repeatedly
  (throughput, tree extraction, scheduling, simulation all start from
  ``solve_collective``), so identical rebuilds hit the cache instead of the
  simplex.  Bounded FIFO (:data:`CACHE_SIZE` entries); ``clear_cache()``
  resets it (useful in benchmarks).
- **Disk cache** (:mod:`repro.lp.diskcache`, opt-in).  The same keys,
  persisted across processes under a configurable directory
  (``REPRO_LP_CACHE_DIR`` or ``repro.lp.diskcache.set_cache_dir``).
  Memory misses fall through to disk before the solver runs; fresh
  optima are written back.  ``repro cache`` inspects/clears the store.
- **Warm starts.**  A solve may pass ``warm_basis=`` — the
  ``basis_labels`` of an earlier optimum, stable variable/constraint-name
  labels — and the exact engine crash-pivots that basis in; labels that
  don't exist in the new LP are skipped, so a basis transfers across
  growing platform families.  :func:`repro.lp.resolve.replan` uses it
  for perturbed re-solves.  A failed crash falls back to a cold start, so
  the *objective* is never affected — but the returned vertex can differ
  from a cold solve's, so warm solves get their own cache key.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.lp import colgen as colgen_mod
from repro.lp import diskcache
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.fastfrac import paused_gc
from repro.lp.highs import HighsSolver
from repro.lp.model import LinearProgram
from repro.lp.presolve import presolve as run_presolve
from repro.lp.rationalize import _certify_snaps
from repro.lp.revised_simplex import RevisedSimplexSolver
from repro.lp.solution import LPSolution, SolveStatus

#: LPs with at most this many variables go to an exact engine by default.
#: The revised simplex (float-assisted crash + sparse rational LU) solves
#: the fig9 8-host pipelined all-reduce (~6.5k presolved vars) in seconds
#: and the 128-node ring scatter (~32k vars) in well under a minute, so
#: paper-scale platforms, the scaled benchmark tiers, and the composite
#: collectives all stay exact.  The limit is checked against the model
#: *after* presolve, so an LP that shrinks under it still gets the exact
#: path.
EXACT_VAR_LIMIT = 50000

#: Within the exact route, models up to this many presolved variables use
#: the fraction-free tableau simplex; larger ones use the revised simplex,
#: whose ~4 ms start-up (2 vCPU) the tableau beats only on tiny LPs: fig2
#: scatter (10 vars) 0.4 vs 4 ms, but a 6-node pipelined all-reduce (481
#: vars) 380 vs 18 ms.  On the paper_mix LPs of seeds 1, 3 and 7, cut-overs
#: of 100-150 total within 2% (125 least), 250 costs 22% more and 5000
#: four times as much.  ``canonical=True`` always uses the tableau.
TABLEAU_VAR_LIMIT = 125

#: Above this many raw variables, ``backend="auto"`` tries the
#: Dantzig-Wolfe column generation (:mod:`repro.lp.colgen`) before
#: presolve and the monolithic revised simplex, provided the raw LP
#: decomposes into at least two commodity blocks tied only by shared
#: capacity rows, or into one block priced combinatorially (the 12-node
#: complete reduce, 13718 raw vars, one reduction-tree block).  The
#: threshold sits well above the revised engine's start — colgen's
#: restricted masters carry overhead per round that only pays off once
#: the raw LP is large — and below the 64-node ring scatter (7939 raw
#: vars), the smallest colgen-routed model of the datacenter tier.
COLGEN_VAR_LIMIT = 6000

#: Max entries kept in the solve memo cache (FIFO eviction).
CACHE_SIZE = 128

_memo: "OrderedDict[str, LPSolution]" = OrderedDict()
_disk_hits = 0


def canonical_key(lp: LinearProgram) -> str:
    """Stable hash of the model (structure canonicalized).

    Two LPs built independently with the same variables (names, order,
    bounds), the same constraints in the same order (each row's integer
    entries are sorted by variable index) and the same objective hash
    identically,
    regardless of constraint *names* or coefficient dict iteration order.
    Variable names are deliberately part of the identity: cached solutions
    carry name-addressed ``basis_labels`` and are re-attached to the
    caller's LP for ``by_name`` lookups, so name-blind hits would be
    unsound.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(lp.sense_max).encode())
    for v in lp.variables:
        h.update(f"|{v.name};{v.lb!r};{v.ub!r}".encode())
    e = lp.objective
    h.update(f"|obj;{e.constant!r};".encode())
    for j, c in sorted(e.coefs.items()):
        if c:
            h.update(f"{j}:{c!r},".encode())
    indptr, cols, nums = lp.indptr, lp.cols, lp.nums
    for i, sense in enumerate(lp.senses):
        lo, hi = indptr[i], indptr[i + 1]
        h.update(f"|{sense};{lp.rhs[i]!r}/{lp.dens[i]};"
                 f"{sorted(zip(cols[lo:hi], nums[lo:hi]))}".encode())
    return h.hexdigest()


def clear_cache() -> None:
    """Drop all in-process memoized solutions.

    The on-disk store (when enabled) is intentionally untouched — clear
    it with :func:`repro.lp.diskcache.clear` or ``repro cache clear``.
    """
    _memo.clear()


def cache_stats() -> Dict[str, object]:
    disk = diskcache.stats()
    return {"memo_entries": len(_memo),
            "disk_enabled": disk["enabled"], "disk_entries": disk["entries"],
            "disk_hits": _disk_hits}


@paused_gc()
def solve(lp: LinearProgram, backend: str = "auto",
          cache: bool = True,
          warm_basis: Optional[Tuple] = None,
          canonical: bool = False,
          presolve: bool = True,
          pricing: Optional[Tuple] = None,
          jobs: int = 1) -> LPSolution:
    """Solve ``lp`` with the requested backend.

    Parameters
    ----------
    backend:
        ``"exact"`` — rational simplex (requires rational data): the
        tableau engine up to :data:`TABLEAU_VAR_LIMIT` presolved
        variables and for ``canonical=True``, the revised engine above;
        ``"tableau"`` / ``"revised"`` — force a specific exact engine
        (differential tests and benchmarks);
        ``"colgen"`` — Dantzig-Wolfe column generation
        (:func:`repro.lp.colgen.solve_colgen`; requires rational data,
        falls back to a direct exact solve when the LP has no block
        structure);
        ``"highs"`` — scipy/HiGHS float solve;
        ``"auto"`` — exact when the LP is rational and (after presolve)
        has at most :data:`EXACT_VAR_LIMIT` variables, HiGHS otherwise
        (HiGHS optima of rational LPs are then snapped to exact
        rationals and come back with ``exact=True`` only when
        :func:`repro.lp.rationalize.rationalize_solution` certifies them
        optimal; otherwise they stay float, with the reason in
        ``stats["uncertified"]``).
        Rational models with more than :data:`COLGEN_VAR_LIMIT` raw
        variables (at most :data:`EXACT_VAR_LIMIT`) whose raw LP
        decomposes into >= 2 commodity blocks, or into one block that
        ``pricing`` lets price combinatorially, route to column
        generation, skipping presolve, instead of the monolithic
        revised simplex (never under ``canonical``).
    pricing:
        Optional tuple of commodity pricing descriptors (see
        :func:`repro.lp.colgen.solve_colgen`) enabling the shortest-path
        and reduction-tree pricers; collective specs supply it via their
        ``pricing_graphs`` hook.  Only consulted on the colgen routes.
    jobs:
        Must be 1 (column generation prices serially); any other value
        raises ``ValueError``.  Kept only for callers that still pass
        ``jobs=1``.
    cache:
        Memoize solutions under :func:`canonical_key`; repeated solves of
        an identical model return the cached solution (re-attached to the
        caller's LP object so ``by_name`` etc. keep working).
    warm_basis:
        Basis-label tuple (an earlier solution's ``basis_labels``) for the
        exact engine to crash in — the warm replans of
        :mod:`repro.lp.resolve` pass the previous solution's basis here.
        A warm start may land on a *different optimal vertex* than a cold
        solve, and downstream artifacts (tree extraction, schedules)
        depend on which vertex they get, so warm solves are cached under
        their own ``"warm"`` key and never collide with cold entries.
    canonical:
        Exact backend only: lexicographically tie-break among optimal
        vertices (see :class:`repro.lp.exact_simplex.ExactSimplexSolver`),
        so the returned vertex no longer depends on pricing order.
        Slower; opt in where downstream artifacts must be stable.
    presolve:
        Shrink the model exactly (:mod:`repro.lp.presolve`) before the
        tableau, revised or HiGHS engine and map the solution back
        afterwards.  On by default for rational LPs; float LPs and the
        colgen route skip it.  Under ``canonical=True`` the
        restricted, canonical-safe rule set runs, so the returned vertex
        is identical with presolve on or off.
    """
    global _disk_hits
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: column generation prices "
                         f"serially, only jobs=1 is accepted")
    if backend not in ("exact", "tableau", "revised", "highs", "auto",
                       "colgen"):
        raise ValueError(f"unknown backend {backend!r}")
    if canonical and backend in ("revised", "colgen"):
        raise ValueError("canonical=True is tableau-only; use "
                         "backend='exact' or 'tableau'")
    # the one rationality scan of this solve: the engines and the snap
    # certifier below are entered past their own checks
    rational = lp.is_rational()
    if not rational and backend in ("exact", "tableau", "revised", "colgen"):
        raise ValueError(f"backend={backend!r} requires int/Fraction data; "
                         f"convert the LP or use the HiGHS backend")

    key = None
    if cache:
        # the route is a deterministic function of the model and these
        # arguments (backend, var limits, canonical, the presolve
        # *request*), so a cache hit never has to re-derive it; a warm
        # vertex must not shadow the cold one
        tag = "twarm;" if warm_basis is not None else ""
        # pricing graphs can steer colgen to a different optimal vertex
        # (path columns vs generic LP columns), so their presence splits
        # the key on the colgen-capable routes
        gtag = ("g;" if pricing is not None
                and backend in ("auto", "colgen") else "")
        key = (f"{backend};{EXACT_VAR_LIMIT};{TABLEAU_VAR_LIMIT};"
               f"{COLGEN_VAR_LIMIT};{int(canonical)};"
               f"p{int(presolve)};{gtag}{tag}{canonical_key(lp)}")
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
            return replace(hit, lp=lp)
        disk_hit = diskcache.load(key)
        if disk_hit is not None:
            _disk_hits += 1
            _memo[key] = disk_hit
            if len(_memo) > CACHE_SIZE:
                _memo.popitem(last=False)
            return replace(disk_hit, lp=lp)

    n_raw = lp.num_vars()
    colgen_struct = None
    route_reason = None
    if (backend == "auto" and rational and not canonical
            and COLGEN_VAR_LIMIT < n_raw <= EXACT_VAR_LIMIT):
        # decided on the *raw* model, before presolve: colgen detects
        # block structure on the raw LP and expands its column optimum
        # back to raw edge flows itself, so a presolve would be wasted
        colgen_struct = colgen_mod.detect(lp, pricing=pricing)
        n_blocks = len(colgen_struct.blocks) if colgen_struct else 0
        if n_blocks >= 2:
            route_reason = (f"raw {n_raw} vars > COLGEN_VAR_LIMIT, "
                            f"{n_blocks} blocks")
        elif n_blocks and colgen_struct.blocks[0].graph is not None:
            # one block, but priced combinatorially: no pricing LP runs
            route_reason = (f"raw {n_raw} vars > COLGEN_VAR_LIMIT, "
                            f"1 block priced combinatorially")
        else:
            colgen_struct = None
            route_reason = "1 block" if n_blocks else "no blocks"

    if backend == "colgen" or colgen_struct is not None:
        if backend == "colgen":
            colgen_struct = colgen_mod.detect(lp, pricing=pricing)
        sol = colgen_mod._solve_structured(lp, colgen_struct, pricing)
        return _finish(sol, "colgen", route_reason or "backend='colgen'",
                       n_raw, n_raw, key)

    pres = None
    model = lp
    if presolve and rational:
        pres = run_presolve(lp, for_canonical=canonical)
        if pres.infeasible:
            return _finish(LPSolution(SolveStatus.INFEASIBLE,
                                      backend="presolve", lp=lp),
                           "presolve", "presolve proved it infeasible",
                           n_raw, n_raw, key)
        model = pres.lp
    n_model = model.num_vars()

    if backend in ("tableau", "revised", "highs"):
        route, why = backend, f"backend={backend!r}"
    elif backend == "auto" and not rational:
        route, why = "highs", "float data"
    elif backend == "auto" and n_model > EXACT_VAR_LIMIT:
        route, why = "highs", f"{n_model} vars > EXACT_VAR_LIMIT"
    elif canonical:
        route, why = "tableau", "canonical"
    elif n_model <= TABLEAU_VAR_LIMIT:
        route, why = "tableau", f"{n_model} vars <= TABLEAU_VAR_LIMIT"
    else:
        route, why = "revised", f"{n_model} vars > TABLEAU_VAR_LIMIT"
    if route_reason is not None:
        why = f"{route_reason}; {why}"

    if route == "revised":
        sol = RevisedSimplexSolver()._solve_rational(model,
                                                     warm_basis=warm_basis)
    elif route == "tableau":
        sol = ExactSimplexSolver()._solve_rational(
            model, warm_basis=warm_basis, canonical=canonical)
    else:
        sol = HighsSolver().solve(model)
        if sol.optimal:
            certified, uncertified = (_certify_snaps(sol) if rational
                                      else (None, "float data"))
            sol = certified or replace(sol, stats={"uncertified": uncertified})

    if pres is not None:
        if sol.optimal:
            # duals index the presolved model's rows: drop them
            values = pres.postsolve.values(sol.values)
            sol = replace(sol, values=values, duals=None,
                          objective=lp.objective.evaluate(values), lp=lp)
        else:
            # infeasible/unbounded transfer directly (the reductions are
            # status-preserving); errors keep their diagnostics
            sol = replace(sol, lp=lp)
    return _finish(sol, route, why, n_raw, n_model, key)


def _finish(sol: LPSolution, route: str, why: str, n_raw: int,
            n_model: int, key: Optional[str]) -> LPSolution:
    """Stamp the route and both sides of the raw-vs-presolved split
    (they coincide when presolve was skipped) into ``sol.stats``, then
    memoize the optimum under ``key``."""
    counts = {"vars_raw": n_raw, "vars_presolved": n_model,
              "route": route, "route_reason": why}
    if sol.stats is None:
        sol = replace(sol, stats=counts)
    else:
        sol.stats.update(counts)

    if key is not None and sol.optimal:
        # store without the model itself: the hit path re-attaches the
        # caller's LP, and keeping 128 full LinearPrograms alive would
        # pin tens of MB on fig9-tier pipelines
        _memo[key] = replace(sol, lp=None)
        if len(_memo) > CACHE_SIZE:
            _memo.popitem(last=False)
        diskcache.store(key, sol)  # no-op unless a cache dir is configured
    return sol
