"""Backend auto-dispatch, presolve, solve memoization, and warm starts.

Rational LPs are shrunk by :mod:`repro.lp.presolve` first (on by
default; exactly reversible via its ``Postsolve``), then
``backend="auto"`` sends models up to :data:`EXACT_VAR_LIMIT` variables
to an exact rational simplex (bit-exact rationals, as the paper's
pipeline assumes) and everything else to HiGHS, followed by a
rationalization attempt so downstream exact machinery can still run
whenever the optimum has modest denominators.  The limit is checked on
the *reduced* model, so presolve can pull an oversized LP back onto the
exact path.

Two exact engines sit behind the ``"exact"`` route:

- the fraction-free **tableau** simplex (:mod:`repro.lp.exact_simplex`)
  for models up to :data:`TABLEAU_VAR_LIMIT` presolved variables and for
  every ``canonical=True`` solve (its lexicographic tie-break is defined
  on the tableau), and
- the **revised** simplex (:mod:`repro.lp.revised_simplex`) — LU-
  factorized basis, float-assisted crash, dual re-solve entry — for
  everything above, up to :data:`EXACT_VAR_LIMIT`.  ``dual=True``
  re-solves always use it, whatever the size.

Both return bit-identical optimal objectives (the differential suite in
``tests/lp/test_revised_simplex.py`` enforces it), so the split is purely
a performance decision: below ~5000 variables the dense tableau's cheap
pivots win; above it the revised path's sparse LU and crash basis are the
only thing that finishes.

A third exact route sits on top for the largest collective LPs:
Dantzig-Wolfe **column generation** (:mod:`repro.lp.colgen`,
``backend="colgen"``).  Under ``"auto"``, rational models above
:data:`COLGEN_VAR_LIMIT` presolved variables whose raw form decomposes
into >= 2 commodity blocks route there instead of the monolithic
revised solve; the restricted masters themselves reuse the revised
engine.  Pricing parallelism (``jobs``) never changes the returned
solution, so it is not part of the cache key.

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
  from a cold solve's, so warm solves get their own cache tag.
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
from repro.lp.rationalize import rationalize_solution
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
#: the fraction-free tableau simplex; larger ones use the revised simplex.
#: The tableau's dense pivots are cheaper per iteration on small models
#: and it is the reference ("oracle") implementation the differential
#: suite compares against; ``canonical=True`` solves always use it.
TABLEAU_VAR_LIMIT = 5000

#: Above this many presolved variables, ``backend="auto"`` tries the
#: Dantzig-Wolfe column generation (:mod:`repro.lp.colgen`) before the
#: monolithic revised simplex, provided the LP decomposes into at least
#: two commodity blocks tied only by shared capacity rows.  The
#: threshold sits above the tableau limit — colgen's restricted masters
#: carry overhead per round that only pays off once the raw LP is large —
#: and below the fig9 8-host pipelined composite (~6.5k presolved vars),
#: the first model where the monolithic solve takes whole seconds.
COLGEN_VAR_LIMIT = 6000

#: Max entries kept in the solve memo cache (FIFO eviction).
CACHE_SIZE = 128

_memo: "OrderedDict[str, LPSolution]" = OrderedDict()
_disk_hits = 0


def canonical_key(lp: LinearProgram) -> str:
    """Stable hash of the model (structure canonicalized).

    Two LPs built independently with the same variables (names, order,
    bounds), the same constraints in the same order (coefficients are
    sorted by variable index) and the same objective hash identically,
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
    exprs = [lp.objective] + [c.expr for c in lp.constraints]
    senses = ["obj"] + [c.sense for c in lp.constraints]
    for sense, e in zip(senses, exprs):
        h.update(f"|{sense};{e.constant!r};".encode())
        for j, c in sorted(e.coefs.items()):
            if c:
                h.update(f"{j}:{c!r},".encode())
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
          cache_tag: Optional[str] = None,
          presolve: bool = True,
          dual: bool = False,
          pricing: Optional[Tuple] = None,
          jobs: Optional[int] = None) -> LPSolution:
    """Solve ``lp`` with the requested backend.

    Parameters
    ----------
    backend:
        ``"exact"`` — rational simplex (requires rational data): the
        tableau engine up to :data:`TABLEAU_VAR_LIMIT` presolved
        variables, the revised engine above it;
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
        rationals when :func:`repro.lp.rationalize.rationalize_solution`
        verifies them, and come back with ``exact=True``).
        Within the exact window, models above :data:`COLGEN_VAR_LIMIT`
        presolved variables that decompose into >= 2 commodity blocks
        route to column generation instead of the monolithic revised
        simplex.
    pricing:
        Optional tuple of commodity pricing-graph descriptors (see
        :func:`repro.lp.colgen.solve_colgen`) enabling the shortest-path
        pricer; collective specs supply it via their
        ``pricing_graphs`` hook.  Only consulted on the colgen routes.
    jobs:
        Worker processes for parallel pricing (default: ``REPRO_JOBS``
        env var, else serial).  Never affects the returned solution —
        column admission is ordered by a stable key — so it is not part
        of the cache key.
    dual:
        Exact path only: enter the dual simplex from the crashed basis
        (``warm_basis`` is the intended companion — the tightened-
        perturbation re-solves of :mod:`repro.lp.resolve` pass the old
        optimal basis, which stays dual feasible when constraints only
        tighten).  Forces the revised engine, which owns the dual
        method; incompatible with ``canonical=True``.
    cache:
        Memoize solutions under :func:`canonical_key`; repeated solves of
        an identical model return the cached solution (re-attached to the
        caller's LP object so ``by_name`` etc. keep working).
    warm_basis:
        Basis-label tuple (an earlier solution's ``basis_labels``) for the
        exact engine to crash in — the incremental re-solve path of
        :mod:`repro.lp.resolve` passes the previous solution's basis here.
        A warm start may land on a *different optimal vertex* than a cold
        solve, and downstream artifacts (tree extraction, schedules)
        depend on which vertex they get, so it implies a ``cache_tag`` of
        ``"warm"`` unless one is given and the warm vertex never collides
        with cold cache entries.
    cache_tag:
        Extra discriminator folded into the memo/disk cache key (``None``
        leaves the key exactly as before).  Perturbed-platform re-solves
        tag their entries with the perturbation-delta fingerprint.
    canonical:
        Exact backend only: lexicographically tie-break among optimal
        vertices (see :class:`repro.lp.exact_simplex.ExactSimplexSolver`),
        so the returned vertex no longer depends on pricing order.
        Slower; opt in where downstream artifacts must be stable.
    presolve:
        Shrink the model exactly (:mod:`repro.lp.presolve`) before either
        backend and map the solution back afterwards.  On by default for
        rational LPs; float LPs skip it.  Under ``canonical=True`` the
        restricted, canonical-safe rule set runs, so the returned vertex
        is identical with presolve on or off.
    """
    global _disk_hits
    if backend not in ("exact", "tableau", "revised", "highs", "auto",
                       "colgen"):
        raise ValueError(f"unknown backend {backend!r}")
    if dual and canonical:
        raise ValueError("dual=True needs the revised engine, which has "
                         "no canonical mode")
    if dual and backend in ("tableau", "highs", "colgen"):
        raise ValueError(f"dual=True is incompatible with backend="
                         f"{backend!r}")
    if canonical and backend in ("revised", "colgen"):
        raise ValueError("canonical=True is tableau-only; use "
                         "backend='exact' or 'tableau'")
    rational = lp.is_rational()
    # colgen detects block structure on the raw model and expands its
    # column optimum back to raw edge flows itself, so it owns the whole
    # transform pipeline — no presolve/postsolve around it
    use_presolve = presolve and rational and backend != "colgen"

    if warm_basis is not None and cache_tag is None:
        cache_tag = "warm"  # a warm vertex must not shadow the cold one

    key = None
    if cache:
        # backend + var limits + dual pin the routing decision, so a
        # cache hit never has to re-derive it (which would require
        # presolving first)
        tag = f"t{cache_tag};" if cache_tag is not None else ""
        # pricing graphs can steer colgen to a different optimal vertex
        # (path columns vs generic LP columns), so their presence splits
        # the key on the colgen-capable routes; ``jobs`` never does
        gtag = ("g;" if pricing is not None
                and backend in ("auto", "colgen") else "")
        key = (f"{backend};{EXACT_VAR_LIMIT};{TABLEAU_VAR_LIMIT};"
               f"d{int(dual)};{int(canonical)};"
               f"p{int(use_presolve)};{gtag}{tag}{canonical_key(lp)}")
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

    pres = None
    model = lp
    if use_presolve:
        pres = run_presolve(lp, for_canonical=canonical)
        if pres.infeasible:
            return LPSolution(SolveStatus.INFEASIBLE, backend="presolve",
                              lp=lp)
        model = pres.lp

    exact_route = backend in ("exact", "tableau", "revised") or (
        backend == "auto" and rational
        and model.num_vars() <= EXACT_VAR_LIMIT)

    colgen_route = backend == "colgen"
    colgen_struct = None
    if (backend == "auto" and exact_route and not dual and not canonical
            and model.num_vars() > COLGEN_VAR_LIMIT):
        # structure detection runs on the *raw* model: colgen bypasses
        # presolve entirely and returns raw edge-flow values
        colgen_struct = colgen_mod.detect(lp, pricing=pricing)
        if colgen_struct is not None and len(colgen_struct.blocks) >= 2:
            colgen_route = True
        else:
            colgen_struct = None

    if colgen_route:
        sol = colgen_mod.solve_colgen(lp, pricing=pricing, jobs=jobs,
                                      structure=colgen_struct)
        pres = None  # solution is already in raw-variable space
    elif exact_route:
        if backend in ("tableau", "revised"):
            engine = backend
        elif canonical or (model.num_vars() <= TABLEAU_VAR_LIMIT
                           and not dual):
            engine = "tableau"
        else:
            engine = "revised"
        if engine == "revised":
            sol = RevisedSimplexSolver().solve(model, warm_basis=warm_basis,
                                               dual=dual)
        else:
            sol = ExactSimplexSolver().solve(model, warm_basis=warm_basis,
                                             canonical=canonical)
    else:
        sol = HighsSolver().solve(model)

    if sol.backend == "highs" and sol.optimal and rational:
        snapped: Optional[LPSolution] = rationalize_solution(sol)
        if snapped is not None:
            sol = snapped

    if pres is not None:
        if sol.optimal:
            values = pres.postsolve.values(sol.values)
            sol = replace(sol, values=values,
                          objective=lp.objective.evaluate(values), lp=lp)
        else:
            # infeasible/unbounded transfer directly (the reductions are
            # status-preserving); errors keep their diagnostics
            sol = replace(sol, lp=lp)

    # every dispatched solve records both sides of the raw-vs-presolved
    # split, so downstream bench records are unambiguous about which
    # model a var count refers to (they coincide when presolve was
    # skipped; colgen routing decisions read the presolved count)
    counts = {"vars_raw": lp.num_vars(), "vars_presolved": model.num_vars()}
    if sol.stats is None:
        sol = replace(sol, stats=counts)
    else:
        sol.stats.update(counts)

    if cache and key is not None and sol.optimal:
        # store without the model itself: the hit path re-attaches the
        # caller's LP, and keeping 128 full LinearPrograms alive would
        # pin tens of MB on fig9-tier pipelines
        _memo[key] = replace(sol, lp=None)
        if len(_memo) > CACHE_SIZE:
            _memo.popitem(last=False)
        diskcache.store(key, sol)  # no-op unless a cache dir is configured
    return sol
