"""Dantzig-Wolfe column generation over commodity blocks.

The steady-state collective LPs are *block-angular*: one homogeneous
flow system per commodity (scatter messages, reduce values, broadcast
contents — the ``conserve[..]``/``cons[..]``/``content[..]`` rows, all
with right-hand side 0), tied together only by the shared capacity rows
(``edge[..]``/``out[..]``/``in[..]``/``alpha[..]``, plus ``chain[..]``
for pipelined composites) and the throughput rows carrying ``TP``.
This module solves such LPs by the classic decomposition:

- the **restricted master** keeps the shared rows — every row that has
  a nonzero right-hand side, carries a capacity/chain name, or touches
  a master variable (``TP``, anything bounded) — over the *columns*
  generated so far.  Each column is one ray of a commodity's
  conservation cone: a tree/path/flow pattern carrying the commodity at
  unit rate, entered into the master at a nonnegative scale ``lambda``.
  Because the blocks are homogeneous cones, no convexity rows are
  needed — the master is always feasible at ``TP = 0`` and its optimum
  expands back to exact edge flows (``x = sum lambda_c x_c``).
- the **pricing subproblem** per block searches for a ray of negative
  reduced cost ``rc = sum_r y_r (a_r . x)`` against the master's exact
  rational duals ``y`` (the revised engine reports them, see
  :meth:`repro.lp.revised_simplex.RevisedSimplexSolver.solve`): either
  a shortest-path search on a per-commodity pricing graph supplied by
  the collective spec (:meth:`CollectiveSpec.pricing_graphs`), or a
  small exact LP ``min rc`` over the cone's unit-sum slice.  At the
  master optimum every admitted column has ``rc >= 0``, so an improving
  ray is always *new* — finitely many slice vertices per block bound
  the round count.

Pricing across blocks is embarrassingly parallel and fans out over a
``concurrent.futures`` process pool (``jobs``/``REPRO_JOBS``).  The
result is **deterministic and independent of the worker count**: per
block the subproblem is a deterministic solve seeded only by the duals
and the block's *own* previous basis (warm bases travel through the
parent, never through worker-local caches), and the admitted columns
are ordered by a stable key — ``(block id, sorted vertex)`` — not by
arrival.  ``jobs`` therefore changes wall-clock only, never the
solution or the column set (enforced by ``tests/lp/test_colgen.py``).

:func:`solve_colgen` is wired into :func:`repro.lp.dispatch.solve` as
``backend="colgen"`` and picked automatically above
:data:`repro.lp.dispatch.COLGEN_VAR_LIMIT` presolved variables when the
LP decomposes; LPs without block structure (or minimization problems)
fall back to a direct exact solve, tagged in ``stats["fallback"]``.
"""

from __future__ import annotations

import hashlib
import heapq
import os
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import EQ, LE, Constraint, LinearProgram, LinExpr
from repro.lp.revised_simplex import (IncrementalColumnMaster,
                                      RevisedSimplexSolver)
from repro.lp.solution import LPSolution, SolveStatus

#: Shared-row name prefixes forced into the master (mirrors the
#: composition contract of :mod:`repro.collectives.base`: capacity rows
#: are summed across stages, chain rows span two stages' blocks —
#: treating either as block rows would merge commodities).
MASTER_ROW_PREFIXES = ("edge[", "out[", "in[", "alpha[", "chain[")

#: Pricing LPs up to this many variables use the tableau engine; larger
#: blocks use the revised engine (whose float crash pays off once per
#: block — later rounds warm-start from the block's previous basis).
PRICING_TABLEAU_LIMIT = 600

#: Blocks with more variables than this try float-guided pricing first
#: (scipy linprog steering a support-restricted exact re-solve, or an
#: exact weak-duality price-out certificate); below it a cold exact
#: tableau solve is already ~1 ms and the float detour only adds noise.
FLOAT_PRICE_MIN = 120

#: Fallback direct solves route like dispatch's exact split.
_FALLBACK_TABLEAU_LIMIT = 5000

#: Safety net on the round loop; real instances converge in tens of
#: rounds (finitely many slice vertices per block bound it anyway).
MAX_ROUNDS = 10_000

ZERO = Fraction(0)

def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def resolve_chunksize(n_tasks: int, njobs: int) -> int:
    """Pricing-pool ``pool.map`` chunk size for one round.

    Each worker gets ~4 chunks per round (``ceil(n_tasks / (4 * njobs))``),
    which amortizes per-task pickling/IPC on wide rounds while still
    letting fast workers steal from stragglers.  Chunking only reorders *when*
    results come back, never *what* they are — column admission sorts by
    key, so the optimum stays jobs- and chunk-invariant.
    """
    return max(1, -(-n_tasks // (4 * max(1, njobs))))


# ----------------------------------------------------------------------
# structure detection
# ----------------------------------------------------------------------

@dataclass
class _BlockPayload:
    """One commodity block, picklable for the worker pool.

    ``rows`` and ``graph`` use *local* variable indices (positions in
    ``var_idx``); ``master_coefs[j]`` lists this variable's coefficients
    in the master rows as ``(master row position, coef)``.
    """

    bid: int
    var_idx: Tuple[int, ...]
    var_names: Tuple[str, ...]
    rows: Tuple[Tuple[str, Tuple[Tuple[int, object], ...]], ...]
    master_coefs: Tuple[Tuple[Tuple[int, object], ...], ...]
    graph: Optional[dict] = None


@dataclass
class Structure:
    """Block-angular decomposition of one LP (see :func:`detect`)."""

    master_var_idx: List[int]
    master_rows: List[int]          # positions in lp.constraints
    blocks: List[_BlockPayload]


def detect(lp: LinearProgram,
           pricing: Optional[Sequence[dict]] = None) -> Optional[Structure]:
    """Split ``lp`` into master rows/variables and commodity blocks.

    Master variables: every objective variable plus everything bounded
    (``lb != 0`` or a finite ``ub``) — their bounds stay native in the
    master, and bound multipliers never enter the pricing of bound-free
    block columns.  Block-eligible rows are homogeneous (constant 0),
    not named with :data:`MASTER_ROW_PREFIXES`, and touch no master
    variable; blocks are the connected components of variables over
    those rows.  Variables outside every block become master variables
    too.  Returns ``None`` when nothing decomposes (no blocks) or the
    LP is a minimization (the duals convention here is max-form).
    """
    if not lp.sense_max:
        return None
    n = lp.num_vars()
    master_var = [False] * n
    for j in lp.objective.coefs:
        master_var[j] = True
    for v in lp.variables:
        if v.lb != 0 or v.ub is not None:
            master_var[v.index] = True

    # union-find over variables joined by block-eligible rows
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    master_rows: List[int] = []
    block_rows: List[int] = []
    for ci, con in enumerate(lp.constraints):
        coefs = con.expr.coefs
        if (con.expr.constant != 0
                or con.name.startswith(MASTER_ROW_PREFIXES)
                or any(master_var[j] for j in coefs)
                or not coefs):
            master_rows.append(ci)
            continue
        block_rows.append(ci)
        it = iter(coefs)
        r0 = find(next(it))
        for j in it:
            parent[find(j)] = r0

    comp_vars: Dict[int, List[int]] = {}
    for j in range(n):
        if master_var[j]:
            continue
        comp_vars.setdefault(find(j), []).append(j)
    # variables never joined to a row form singleton components; they
    # appear only in master rows (or nowhere) — promote them to master
    rows_of: Dict[int, List[int]] = {}
    for ci in block_rows:
        rows_of.setdefault(find(next(iter(lp.constraints[ci].expr.coefs))),
                           []).append(ci)
    blocks: List[_BlockPayload] = []
    master_extra: List[int] = []
    # deterministic block order: by smallest member variable index
    for root in sorted(comp_vars, key=lambda r: comp_vars[r][0]):
        vidx = sorted(comp_vars[root])
        rws = rows_of.get(root)
        if not rws:
            master_extra.extend(vidx)
            continue
        local = {j: lj for lj, j in enumerate(vidx)}
        rows = tuple(
            (lp.constraints[ci].sense,
             tuple(sorted((local[j], c)
                          for j, c in lp.constraints[ci].expr.coefs.items())))
            for ci in sorted(rws))
        blocks.append(_BlockPayload(
            bid=len(blocks), var_idx=tuple(vidx),
            var_names=tuple(lp.variables[j].name for j in vidx),
            rows=rows, master_coefs=()))
    if not blocks:
        return None
    if pricing:
        _attach_graphs(lp, blocks, pricing)
    mrow_pos = {ci: pos for pos, ci in enumerate(master_rows)}
    for b in blocks:
        local = {j: lj for lj, j in enumerate(b.var_idx)}
        mc: List[List[Tuple[int, object]]] = [[] for _ in b.var_idx]
        for ci in master_rows:
            pos = mrow_pos[ci]
            for j, c in lp.constraints[ci].expr.coefs.items():
                lj = local.get(j)
                if lj is not None:
                    mc[lj].append((pos, c))
        b.master_coefs = tuple(tuple(e) for e in mc)
    master_idx = sorted([j for j in range(n) if master_var[j]]
                        + master_extra)
    return Structure(master_var_idx=master_idx, master_rows=master_rows,
                     blocks=blocks)


def _attach_graphs(lp: LinearProgram, blocks: Sequence[_BlockPayload],
                   pricing: Sequence[dict]) -> None:
    """Match spec-supplied pricing graphs to blocks; matched blocks
    price by shortest path instead of an LP.

    A graph claims every block whose variables are a *subset* of its
    arc variables, and is restricted to the block's own arcs — a
    commodity's direct source->sink arc sits in no conservation row, so
    :func:`detect` promotes it to a master variable and the remaining
    arcs (one or more connected components) still price as path flows
    over exactly their own arc set.
    """
    resolved = []
    for g in pricing:
        arcs = []
        for (i, j, vname) in g["arcs"]:
            try:
                var = lp.get(vname)
            except KeyError:
                continue  # LP builders omit some arcs (e.g. out of the
                # sink); specs may list the full edge set regardless
            arcs.append((i, j, var.index))
        if arcs:
            resolved.append((g, {a[2] for a in arcs}, arcs))
    for b in blocks:
        bvars = set(b.var_idx)
        for g, gvars, arcs in resolved:
            if bvars <= gvars:
                local = {j: lj for lj, j in enumerate(b.var_idx)}
                b.graph = {"source": g["source"], "sink": g["sink"],
                           "arcs": tuple((i, j, local[vj])
                                         for (i, j, vj) in arcs
                                         if vj in bvars)}
                break


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------

try:
    import numpy as _np
    from scipy import sparse as _sparse
    from scipy.optimize import linprog as _linprog
    _HAVE_SCIPY = True
except ImportError:            # pragma: no cover - scipy is baked in
    _HAVE_SCIPY = False

#: Denominator cap when rationalizing float pricing duals for the
#: exact price-out certificate (see :meth:`_BlockPricer._certify`).
_CERT_DENOM = 10 ** 6

#: Float pricing considers a reduced cost negative below this; anything
#: in ``[-eps, 0)`` is left to the exact certificate / exact LP.
_FLOAT_EPS = 1e-9



class _BlockPricer:
    """Per-block pricing state living in the parent or a pool worker.

    Small blocks (up to :data:`PRICING_TABLEAU_LIMIT` variables) price
    by an exact tableau solve outright.  Large blocks price
    *float-first*: a persistent scipy/HiGHS model of the block cone is
    re-solved with the round's dual weights (milliseconds), then the
    result is made exact either way — an improving float vertex is
    re-solved exactly on its support (a tiny tableau LP), and a
    priced-out verdict is certified by an exact weak-duality check of
    the rationalized float duals.  Only when both fail does the full
    exact LP run.  Every path is deterministic, so a block prices
    identically whichever worker runs it; all round-to-round state (the
    warm basis) is passed in and returned explicitly.
    """

    def __init__(self, payload: _BlockPayload) -> None:
        self.p = payload
        self._lp: Optional[LinearProgram] = None
        self._dead = False
        self._float = None     # lazily built persistent scipy model
        self._by_row = None    # transposed master coefs: pos -> [(lj, c)]

    def _pricing_lp(self) -> LinearProgram:
        if self._lp is None:
            p = self.p
            lp = LinearProgram(f"price[b{p.bid}]")
            xs = [lp.var(name) for name in p.var_names]
            for sense, terms in p.rows:
                e = LinExpr()
                for lj, c in terms:
                    e.add_term(xs[lj], c)
                lp.add(Constraint(e, sense))
            norm = LinExpr()
            for x in xs:
                norm.add_term(x, 1)
            norm.constant = -1
            lp.add(Constraint(norm, EQ), name="norm")
            self._lp = lp
        return self._lp

    def weights(self, duals: Dict[int, Fraction]) -> List[Fraction]:
        """Reduced-cost weights ``w[j] = sum_r y_r a_rj`` per local var
        (block columns have zero objective coefficient, so ``rc`` of a
        candidate ray is just ``w . x``).  Iterates the transposed
        coefficient index over the *duals*, so a round with few nonzero
        duals on this block's rows costs proportionally little."""
        br = self._by_row
        if br is None:
            br = {}
            for lj, mc in enumerate(self.p.master_coefs):
                for pos, c in mc:
                    br.setdefault(pos, []).append((lj, c))
            self._by_row = br
        w = [ZERO] * len(self.p.master_coefs)
        for pos, y in duals.items():
            if y:
                for lj, c in br.get(pos, ()):
                    w[lj] += y * c
        return w

    # ------------------------------------------------------ float path
    def _float_setup(self):
        """Build the persistent scipy model of the block cone once.

        Rows are sense-normalized (``>=`` negated into ``<=``); the
        exact normalized rows are kept too, for the certificate.
        """
        n = len(self.p.var_names)
        ub_rows: List[Tuple[Tuple[int, Fraction], ...]] = []
        eq_rows: List[Tuple[Tuple[int, Fraction], ...]] = []
        for sense, terms in self.p.rows:
            if sense == EQ:
                eq_rows.append(terms)
            elif sense == LE:
                ub_rows.append(terms)
            else:
                ub_rows.append(tuple((lj, -c) for lj, c in terms))
        def _csr(rows):
            ri, ci, vv = [], [], []
            for r, terms in enumerate(rows):
                for lj, c in terms:
                    ri.append(r)
                    ci.append(lj)
                    vv.append(float(c))
            return _sparse.csr_matrix((vv, (ri, ci)), shape=(len(rows), n))
        a_ub = _csr(ub_rows) if ub_rows else None
        eq_all = eq_rows + [tuple((lj, Fraction(1)) for lj in range(n))]
        a_eq = _csr(eq_all)
        b_eq = _np.zeros(len(eq_all))
        b_eq[-1] = 1.0
        self._float = {
            "a_ub": a_ub, "b_ub": _np.zeros(len(ub_rows)),
            "a_eq": a_eq, "b_eq": b_eq,
            "ub_rows": ub_rows, "eq_rows": eq_rows,
            "bounds": [(0, None)] * n,
        }
        return self._float

    def _cert_mults(self, res):
        """Rationalize the float duals into candidate certificate
        multipliers (``<=``-row duals clamped to the valid sign)."""
        f = self._float
        marg_ub = res.ineqlin.marginals if f["a_ub"] is not None else ()
        u_ub = []
        for r in range(len(f["ub_rows"])):
            u = Fraction(float(marg_ub[r])).limit_denominator(_CERT_DENOM)
            u_ub.append(ZERO if u > 0 else u)
        u_eq = [
            Fraction(float(res.eqlin.marginals[r])).limit_denominator(
                _CERT_DENOM)
            for r in range(len(f["eq_rows"]))
        ]
        return (u_ub, u_eq)

    def _cert_check(self, w: List[Fraction], mults) -> bool:
        """Exact weak-duality price-out certificate.

        With block rows homogeneous, any multipliers ``u`` that are
        ``<= 0`` on the normalized ``<=`` rows give the exact bound
        ``min w.x >= min_j (w_j - sum_r u_r a_rj)`` over the unit slice;
        the block is priced out when that bound is ``>= 0``.  The
        multipliers are just a *candidate* ``u`` — a wrong (or stale,
        cached) guess only weakens the bound, never the soundness, and
        no candidate can pass while an improving ray exists.
        """
        f = self._float
        u_ub, u_eq = mults
        s = list(w)
        for r, terms in enumerate(f["ub_rows"]):
            u = u_ub[r]
            if u:
                for lj, c in terms:
                    s[lj] -= u * c
        for r, terms in enumerate(f["eq_rows"]):
            u = u_eq[r]
            if u:
                for lj, c in terms:
                    s[lj] -= u * c
        return min(s) >= 0

    def _restricted_exact(self, w: List[Fraction], support: List[int],
                          want_any: bool):
        """Exact tableau solve of the pricing LP restricted to the float
        optimum's support — a tiny LP whose optimum (when the float
        support is honest) is the block's true minimum-rc ray.  Returns
        a local vertex dict, or ``None`` when the restriction is
        infeasible or fails to price negative."""
        sset = set(support)
        lp = LinearProgram(f"price[b{self.p.bid}]#sup")
        xs = {lj: lp.var(self.p.var_names[lj]) for lj in support}
        for sense, terms in self.p.rows:
            live = [(lj, c) for lj, c in terms if lj in sset]
            if not live:
                continue
            e = LinExpr()
            for lj, c in live:
                e.add_term(xs[lj], c)
            lp.add(Constraint(e, sense))
        norm = LinExpr()
        for lj in support:
            norm.add_term(xs[lj], 1)
        norm.constant = -1
        lp.add(Constraint(norm, EQ), name="norm")
        obj = LinExpr()
        for lj in support:
            if w[lj]:
                obj.add_term(xs[lj], w[lj])
        lp.minimize(obj)
        sol = ExactSimplexSolver().solve(lp)
        if not sol.optimal:
            return None
        if sol.objective >= 0 and not want_any:
            return None
        local = {}
        for pos, lj in enumerate(support):
            v = sol.values.get(xs[lj].index)
            if v:
                local[lj] = v
        return (sol.objective, local)

    def _float_price(self, w: List[Fraction], want_any: bool, fwarm):
        """Float-guided pricing; ``(None, fwarm)`` defers to the full
        exact LP.

        ``fwarm`` is the float path's warm token ``("fw", cert)``
        threaded through :func:`solve_colgen` round to round: ``cert``
        holds the last successful certificate multipliers, tried
        *before* the float solve — a cached certificate that still
        checks proves price-out outright (a stale ``u`` only weakens
        the bound, and no ``u`` can pass while an improving ray
        exists).  Keeping this state in the token rather than the
        pricer makes pricing a pure function of the task, so results
        cannot depend on which worker ran earlier rounds.
        """
        f = self._float or self._float_setup()
        cert0 = fwarm[1] if fwarm else None
        if (not want_any and cert0 is not None
                and self._cert_check(w, cert0)):
            return ("none",), fwarm
        n = len(w)
        c = _np.fromiter((float(x) for x in w), dtype=float, count=n)
        res = _linprog(c, A_ub=f["a_ub"], b_ub=f["b_ub"],
                       A_eq=f["a_eq"], b_eq=f["b_eq"], bounds=f["bounds"],
                       method="highs", options={"presolve": False})
        if res.status == 2:
            self._dead = True
            return ("dead", None), None
        if not res.success:
            return None, fwarm
        if res.fun < -_FLOAT_EPS or want_any:
            support = [int(j) for j in _np.nonzero(res.x > 1e-9)[0]]
            if support:
                got = self._restricted_exact(w, support, want_any)
                if got is not None:
                    rc, local = got
                    return ("col", rc, local), fwarm
        if res.fun >= -_FLOAT_EPS and not want_any:
            mults = self._cert_mults(res)
            if self._cert_check(w, mults):
                return ("none",), ("fw", mults)
        return None, fwarm

    # ------------------------------------------------------ entry point
    def price(self, duals: Dict[int, Fraction], warm: Optional[tuple],
              want_any: bool = False):
        """One pricing round: ``("col", rc, vertex, warm')`` with
        ``rc < 0`` and ``vertex`` a local-index ray, ``("none", warm')``
        at local optimality, ``("dead", None)`` for an empty cone.
        ``want_any`` (the seed round) returns a ray regardless of its
        reduced cost, so every block enters the first master."""
        if self._dead:
            return ("dead", None)
        w = self.weights(duals)
        if self.p.graph is not None:
            res = _dijkstra_price(self.p.graph, w, want_any=want_any)
            if res is not None:
                return res + (warm,)    # graphs carry no warm basis
        if _HAVE_SCIPY and len(w) > FLOAT_PRICE_MIN:
            fwarm = (warm if isinstance(warm, tuple) and warm
                     and warm[0] == "fw" else None)
            res, fwarm = self._float_price(w, want_any, fwarm)
            if res is not None:
                return res if res[0] == "dead" else res + (fwarm,)
        lp = self._pricing_lp()
        obj = LinExpr()
        for lj, wj in enumerate(w):
            if wj:
                obj.add_term(lp.variables[lj], wj)
        lp.minimize(obj)
        if lp.num_vars() <= PRICING_TABLEAU_LIMIT:
            sol = ExactSimplexSolver().solve(lp, warm_basis=warm)
        else:
            sol = RevisedSimplexSolver().solve(lp)
        if sol.status is SolveStatus.INFEASIBLE:
            self._dead = True
            return ("dead", None)
        if not sol.optimal:
            raise RuntimeError(
                f"pricing solve failed on block {self.p.bid}: {sol.status}"
                f" {sol.message}")
        if sol.objective >= 0 and not want_any:
            return ("none", sol.basis_labels)
        vertex = {lj: v for lj, v in sol.values.items() if v}
        return ("col", sol.objective, vertex, sol.basis_labels)


def _dijkstra_price(graph: dict, w: List[Fraction], want_any: bool = False):
    """Cheapest source->sink path under the dual arc costs.

    Valid only when the sink has no outgoing arcs and every non-sink
    arc cost is nonnegative (capacity duals are; chain/equality duals
    folded into a *non-sink* arc can break it) — then every ray of the
    block cone decomposes into source->sink paths plus nonnegative-cost
    cycles, so the min-cost simple path attains the most negative
    reduced cost and Dijkstra is exact.  Returns ``None`` to make the
    caller fall back to LP pricing when the preconditions fail,
    ``("none",)`` when no path improves, else ``("col", rc, vertex)``.
    """
    source, sink = graph["source"], graph["sink"]
    out: Dict[object, List[Tuple[object, int]]] = {}
    sink_arcs: List[Tuple[object, int]] = []
    for (i, j, lj) in graph["arcs"]:
        if i == sink:
            return None
        if j == sink:
            sink_arcs.append((i, lj))
        else:
            if w[lj] < 0:
                return None
            out.setdefault(i, []).append((j, lj))
    dist: Dict[object, Fraction] = {source: ZERO}
    prev: Dict[object, Tuple[object, int]] = {}
    heap: List[Tuple[Fraction, str, object]] = [(ZERO, str(source), source)]
    done = set()
    while heap:
        d, _tie, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for (v, lj) in out.get(u, ()):
            nd = d + w[lj]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = (u, lj)
                heapq.heappush(heap, (nd, str(v), v))
    best = None
    for (q, lj) in sorted(sink_arcs, key=lambda a: a[1]):
        dq = dist.get(q)
        if dq is None:
            continue
        cost = dq + w[lj]
        if best is None or cost < best[0]:
            best = (cost, q, lj)
    if best is None or (best[0] >= 0 and not want_any):
        return ("none",)
    rc, q, last = best
    vertex = {last: Fraction(1)}
    while q != source:
        u, lj = prev[q]
        vertex[lj] = Fraction(1)
        q = u
    return ("col", rc, vertex)


# pool workers: payloads ship once through the initializer, warm bases
# travel with every task (worker-local caches would break the
# jobs-invariance contract)
_POOL_PRICERS: Optional[Dict[int, _BlockPricer]] = None


def _pool_init(payloads: Sequence[_BlockPayload]) -> None:
    global _POOL_PRICERS
    _POOL_PRICERS = {p.bid: _BlockPricer(p) for p in payloads}


def _pool_price(task):
    bid, duals, warm, want_any = task
    t0 = perf_counter()
    res = _POOL_PRICERS[bid].price(duals, warm, want_any=want_any)
    return bid, res, perf_counter() - t0


# ----------------------------------------------------------------------
# the master loop
# ----------------------------------------------------------------------

@dataclass
class _Column:
    """An admitted ray: original-index vertex + master-row activity."""

    bid: int
    name: str
    vertex: Dict[int, Fraction]          # original var index -> value
    row_coefs: Dict[int, object]         # master row position -> a_r . x
    key: tuple = field(default=())


def _column_from_vertex(payload: _BlockPayload,
                        local_vertex: Dict[int, Fraction]) -> _Column:
    vertex = {payload.var_idx[lj]: v for lj, v in local_vertex.items()}
    rows: Dict[int, object] = {}
    for lj, v in local_vertex.items():
        for pos, c in payload.master_coefs[lj]:
            acc = rows.get(pos, 0) + c * v
            if acc:
                rows[pos] = acc
            elif pos in rows:
                del rows[pos]
    key = (payload.bid, tuple(sorted(vertex.items())))
    digest = hashlib.blake2b(repr(key).encode(), digest_size=6).hexdigest()
    return _Column(bid=payload.bid, name=f"col[b{payload.bid}:{digest}]",
                   vertex=vertex, row_coefs=rows, key=key)


def _build_master(lp: LinearProgram, struct: Structure,
                  columns: Sequence[_Column]) -> LinearProgram:
    master = LinearProgram(f"{lp.name}#master")
    mvars = {}
    for j in struct.master_var_idx:
        v = lp.variables[j]
        mvars[j] = master.var(v.name, lb=v.lb, ub=v.ub)
    cvars = [master.var(c.name) for c in columns]
    exprs = []
    for ci in struct.master_rows:
        con = lp.constraints[ci]
        e = LinExpr()
        for j, c in con.expr.coefs.items():
            mv = mvars.get(j)
            if mv is not None:
                e.add_term(mv, c)
        e.constant = con.expr.constant
        exprs.append(e)
    for col, cv in zip(columns, cvars):
        for pos, c in col.row_coefs.items():
            exprs[pos].add_term(cv, c)
    for e, ci in zip(exprs, struct.master_rows):
        con = lp.constraints[ci]
        master.add(Constraint(e, con.sense), name=con.name or f"#m{ci}")
    obj = LinExpr()
    for j, c in lp.objective.coefs.items():
        obj.add_term(mvars[j], c)
    obj.constant = lp.objective.constant
    master.maximize(obj)
    return master


def _direct_fallback(lp: LinearProgram, reason: str) -> LPSolution:
    """No block structure (or a shape colgen does not speak): one
    direct exact solve, still reported under the colgen backend."""
    if lp.num_vars() <= _FALLBACK_TABLEAU_LIMIT:
        sol = ExactSimplexSolver().solve(lp)
    else:
        sol = RevisedSimplexSolver().solve(lp)
    stats = dict(sol.stats or {})
    stats.update({"engine": "colgen", "fallback": reason, "rounds": 0,
                  "columns": 0, "columns_priced": 0, "blocks": 0})
    sol.stats = stats
    sol.backend = "colgen"
    return sol


def solve_colgen(lp: LinearProgram,
                 pricing: Optional[Sequence[dict]] = None,
                 jobs: Optional[int] = None,
                 structure: Optional[Structure] = None,
                 max_rounds: int = MAX_ROUNDS) -> LPSolution:
    """Solve ``lp`` exactly by Dantzig-Wolfe column generation.

    ``pricing`` is an optional list of per-commodity pricing graphs
    (``{"source", "sink", "arcs": [(i, j, varname), ...]}``, the
    :meth:`CollectiveSpec.pricing_graphs` format); matched blocks price
    by shortest path, everything else by a small exact LP.  ``jobs``
    (default ``REPRO_JOBS``, else 1) prices blocks on a process pool;
    the returned solution is identical for every worker count.  Run on
    the *raw* LP — presolve substitutions would break the block/name
    structure the decomposition and the graphs rely on.
    """
    if not lp.is_rational():
        raise ValueError("colgen requires int/Fraction data; use the "
                         "HiGHS backend for float LPs")
    t_start = perf_counter()
    if structure is None:
        structure = detect(lp, pricing=pricing)
    if structure is None:
        reason = "minimize" if not lp.sense_max else "no blocks"
        return _direct_fallback(lp, reason)
    jobs = resolve_jobs(jobs)
    njobs = min(jobs, len(structure.blocks))
    stats: Dict[str, object] = {
        "engine": "colgen", "blocks": len(structure.blocks),
        "path_blocks": sum(1 for b in structure.blocks
                           if b.graph is not None),
        "master_rows": len(structure.master_rows),
        "master_vars": len(structure.master_var_idx),
        "jobs": njobs, "rounds": 0, "columns": 0, "columns_priced": 0,
        "pricing_skipped": 0, "seed_columns": 0,
        "master_s": 0.0, "pricing_s": 0.0, "pricing_serial_s": 0.0,
        "master_pivots": 0,
    }

    columns: List[_Column] = []
    seen_keys = set()
    payload_of = {b.bid: b for b in structure.blocks}
    warm_of: Dict[int, Optional[tuple]] = {b.bid: None
                                           for b in structure.blocks}
    alive = [b.bid for b in structure.blocks]
    solver = RevisedSimplexSolver()
    pool = None
    pricers: Dict[int, _BlockPricer] = {}
    if njobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=njobs,
                                   initializer=_pool_init,
                                   initargs=(structure.blocks,))
    else:
        pricers = {b.bid: _BlockPricer(b) for b in structure.blocks}

    # rows whose duals a block's pricing can see: skip a block when they
    # did not move since its last priced-out round (the result would be
    # bit-identical, see the loop below)
    dual_rows = {b.bid: tuple(sorted({pos for mc in b.master_coefs
                                      for pos, _ in mc}))
                 for b in structure.blocks}
    last_key: Dict[int, tuple] = {}
    last_none: Dict[int, bool] = {}

    def run_tasks(tasks):
        stats["columns_priced"] += len(tasks)
        t0 = perf_counter()
        if pool is not None:
            chunk = resolve_chunksize(len(tasks), njobs)
            stats["pricing_chunk"] = max(int(stats.get("pricing_chunk", 0)),
                                         chunk)
            results = list(pool.map(_pool_price, tasks, chunksize=chunk))
        else:
            results = []
            for task in tasks:
                t1 = perf_counter()
                res = pricers[task[0]].price(task[1], task[2],
                                             want_any=task[3])
                results.append((task[0], res, perf_counter() - t1))
        stats["pricing_s"] += perf_counter() - t0
        stats["pricing_serial_s"] += sum(r[2] for r in results)
        return results

    def harvest(results, live):
        fresh: List[_Column] = []
        dead = set()
        for bid, res, _secs in results:
            if res[0] == "dead":
                dead.add(bid)
                continue
            last_none[bid] = res[0] == "none"
            if res[0] == "none":
                warm_of[bid] = res[1]
                continue
            _tag, rc, local_vertex, warm = res
            warm_of[bid] = warm
            col = _column_from_vertex(payload_of[bid], local_vertex)
            if col.key not in seen_keys:
                fresh.append(col)
        fresh.sort(key=lambda c: c.key)     # stable admission order
        for col in fresh:
            seen_keys.add(col.key)
            columns.append(col)
        if dead:
            live[:] = [bid for bid in live if bid not in dead]
        return fresh

    # coupling rows: master rows touching a master variable (alpha /
    # throughput rows tying commodity rates to the TP variable) plus
    # the homogeneous master rows (cross-block ``chain[..]`` precedence
    # rows — homogeneous no-master-var rows only stay in the master via
    # the protected prefixes, everything else becomes a block row)
    mset = set(structure.master_var_idx)
    tp_pos = [pos for pos, ci in enumerate(structure.master_rows)
              if lp.constraints[ci].expr.constant == 0
              or any(j in mset for j in lp.constraints[ci].expr.coefs)]

    try:
        # seed round: rays of extremal rate per block (any reduced
        # cost) before the first master, so chain-coupled commodities
        # (pipelined composites) all carry flow from round 0 — without
        # them the master sits at TP=0 for tens of rounds while duals
        # wake the stages up one by one.  Pricing minimizes
        # w.x = sum_r y_r a_rj x_j, so y = -1 (+1) on the rate rows
        # maximizes (minimizes) the block's coupling contribution.
        tp_set = set(tp_pos)
        seed_tasks = [(bid,
                       {p: Fraction(s) for p in dual_rows[bid]
                        if p in tp_set},
                       None, True)
                      for bid in alive for s in (-1, 1)]
        seed_results = run_tasks(seed_tasks)
        stats["seed_columns"] = len(harvest(seed_results, alive))
        stats["columns"] = len(columns)

        master_res = None
        inc: Optional[IncrementalColumnMaster] = None
        pending: List[_Column] = []     # admitted, not yet in the master
        for rnd in range(max_rounds):
            t0 = perf_counter()
            res = None
            if inc is not None and inc.live:
                # hot path: splice the fresh columns into the live core
                # and continue the primal — no crash, no refactorization
                res = inc.add_and_resolve(
                    [(c.name, c.row_coefs) for c in pending])
                if res is not None and res.status is SolveStatus.ERROR:
                    res = None          # poisoned core: full re-solve
            if res is None:
                master = _build_master(lp, structure, columns)
                inc = IncrementalColumnMaster(master, solver)
                res = inc.solve_full()
            pending = []
            master_res = res
            stats["master_s"] += perf_counter() - t0
            stats["master_pivots"] += res.pivots
            if res.status is SolveStatus.UNBOUNDED:
                # the restricted master's rays expand to rays of the
                # full LP, so unboundedness transfers directly
                return LPSolution(SolveStatus.UNBOUNDED, backend="colgen",
                                  lp=lp, stats=stats)
            if not res.optimal:
                if rnd == 0 and res.status is SolveStatus.INFEASIBLE:
                    # a zero-column master can be infeasible while the
                    # full LP is not (columns only add feasibility)
                    return _direct_fallback(lp, "master infeasible")
                return LPSolution(res.status, backend="colgen",
                                  lp=lp, stats=stats,
                                  message=f"master solve failed in round "
                                          f"{rnd} on {lp.name!r}")
            duals = res.duals
            stats["rounds"] = rnd + 1

            # a block whose visible duals match its last priced-out
            # round would return "none" again bit-identically (pricing
            # is a pure function of those duals; a block that just
            # yielded a column always sees moved duals — the new master
            # optimum prices every admitted column >= 0), so skip it
            tasks = []
            for bid in alive:
                key = tuple(duals.get(pos) for pos in dual_rows[bid])
                if last_none.get(bid) and last_key.get(bid) == key:
                    stats["pricing_skipped"] += 1
                    continue
                last_key[bid] = key
                tasks.append((bid, duals, warm_of[bid], False))
            fresh = harvest(run_tasks(tasks), alive)
            if not fresh:
                break
            pending = fresh
            stats["columns"] = len(columns)
        else:
            return LPSolution(SolveStatus.ERROR, backend="colgen", lp=lp,
                              stats=stats,
                              message=f"colgen hit the {max_rounds}-round "
                                      f"limit on {lp.name!r}")
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # expand the master optimum back to original variables
    values: Dict[int, Fraction] = {}
    for j in structure.master_var_idx:
        v = master_res.values.get(lp.variables[j].name)
        if v:
            values[j] = v
    for col in columns:
        lam = master_res.values.get(col.name)
        if not lam:
            continue
        for j, x in col.vertex.items():
            acc = values.get(j, 0) + lam * x
            if acc:
                values[j] = acc
            elif j in values:
                del values[j]
    bad = lp.check_feasible(values, tol=0)
    if bad:
        return LPSolution(SolveStatus.ERROR, backend="colgen", lp=lp,
                          stats=stats,
                          message=f"expanded colgen optimum violates "
                                  f"{bad[:5]} on {lp.name!r}")
    # digest of the admitted column keys, in admission order: the
    # jobs-invariance contract says this never depends on worker count
    stats["columns_digest"] = hashlib.blake2b(
        repr([c.key for c in columns]).encode(), digest_size=8).hexdigest()
    ser = stats["pricing_serial_s"]
    stats["parallel_speedup"] = (
        round(ser / stats["pricing_s"], 2) if stats["pricing_s"] else 1.0)
    stats["total_s"] = perf_counter() - t_start
    return LPSolution(SolveStatus.OPTIMAL,
                      objective=lp.objective.evaluate(values),
                      values=values, backend="colgen", exact=True, lp=lp,
                      iterations=int(stats["rounds"]), stats=stats)
