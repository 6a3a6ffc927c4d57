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
  :meth:`repro.lp.revised_simplex.RevisedSimplexSolver.solve`).  A
  block matched by a descriptor from the collective spec
  (:meth:`CollectiveSpec.pricing_graphs`) prices combinatorially: a
  shortest path for a routed commodity (scatter), the exact
  ``(node, interval)`` dynamic program over reduction trees for a
  reduce commodity (reduce, reduce-scatter, Section 4 of the paper).
  Every other block — or a matched one whose weights void the
  combinatorial pricer's precondition — solves a small exact LP
  ``min rc`` over the cone's unit-sum slice.  At the master optimum
  every admitted column has ``rc >= 0``, so an improving ray is always
  *new* — finitely many slice vertices per block bound the round count.

Pricing runs serially, in-process, one block after another, and the
result is **deterministic**: per block the subproblem is a
deterministic solve seeded only by the duals and the block's *own*
state from earlier rounds (its last tableau basis and its last float
price-out certificate, see :class:`_BlockPricer`), and the admitted
columns are ordered by a stable key — ``(block id, sorted vertex)`` —
not by pricing order.

:func:`solve_colgen` is wired into :func:`repro.lp.dispatch.solve` as
``backend="colgen"`` and picked automatically, before presolve, above
:data:`repro.lp.dispatch.COLGEN_VAR_LIMIT` raw variables when the raw
LP decomposes; LPs without block structure (or minimization problems)
fall back to a direct exact solve, tagged in ``stats["fallback"]``.
``stats["path_blocks"]``/``stats["tree_blocks"]`` count the blocks
each combinatorial pricer owns; ``stats["lp_blocks"]`` counts the blocks
an LP priced, by reason (``"no descriptor"``, or ``"declined"`` when a
combinatorial pricer refused a weight sign at least once);
``stats["dijkstra_fallbacks"]`` counts the pricings either combinatorial
pricer (path or tree) declined and an LP priced instead.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as _linprog

from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import EQ, LE, LinearProgram, LinExpr, common_denominator
from repro.lp.revised_simplex import (IncrementalColumnMaster,
                                      RevisedSimplexSolver)
from repro.lp.solution import LPSolution, SolveStatus

#: Shared-row name prefixes forced into the master (mirrors the
#: composition contract of :mod:`repro.collectives.base`: capacity rows
#: are summed across stages, chain rows span two stages' blocks —
#: treating either as block rows would merge commodities).
MASTER_ROW_PREFIXES = ("edge[", "out[", "in[", "alpha[", "chain[")

#: Pricing LPs up to this many variables use the tableau engine,
#: warm-started from the block's previous basis; larger blocks use the
#: revised engine, cold every round (its float crash finds the basis).
PRICING_TABLEAU_LIMIT = 600

#: Blocks with more variables than this try float-guided pricing first
#: (scipy linprog steering a support-restricted exact re-solve, or an
#: exact weak-duality price-out certificate); below it a cold exact
#: tableau solve is already ~1 ms and the float detour only adds noise.
FLOAT_PRICE_MIN = 120

#: Safety net on the round loop; real instances converge in tens of
#: rounds (finitely many slice vertices per block bound it anyway).
MAX_ROUNDS = 10_000

ZERO = Fraction(0)


# ----------------------------------------------------------------------
# structure detection
# ----------------------------------------------------------------------

@dataclass
class _BlockPayload:
    """One commodity block.

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
    master_rows: List[int]          # row positions in the LP
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
    indptr, cols = lp.indptr, lp.cols
    for ci, (name, b) in enumerate(zip(lp.names, lp.rhs)):
        rcols = cols[indptr[ci]:indptr[ci + 1]]
        if (b != 0 or not rcols
                or name.startswith(MASTER_ROW_PREFIXES)
                or any(map(master_var.__getitem__, rcols))):
            master_rows.append(ci)
            continue
        block_rows.append(ci)
        r0 = find(rcols[0])
        for j in rcols[1:]:
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
        rows_of.setdefault(find(cols[indptr[ci]]), []).append(ci)
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
            (lp.senses[ci],
             tuple(sorted((local[j], c) for j, c in lp.row_items(ci))))
            for ci in sorted(rws))
        blocks.append(_BlockPayload(
            bid=len(blocks), var_idx=tuple(vidx),
            var_names=tuple(lp.variables[j].name for j in vidx),
            rows=rows, master_coefs=()))
    if not blocks:
        return None
    if pricing:
        _attach_graphs(lp, blocks, pricing)
    # one pass over the master-row nonzeros, each routed to its block
    # through a variable -> (block coefficient lists, local index) map
    mcs: List[List[List[Tuple[int, object]]]] = [
        [[] for _ in b.var_idx] for b in blocks]
    owner: Dict[int, Tuple[List[List[Tuple[int, object]]], int]] = {
        j: (mc, lj) for b, mc in zip(blocks, mcs)
        for lj, j in enumerate(b.var_idx)}
    for pos, ci in enumerate(master_rows):
        for j, c in lp.row_items(ci):
            hit = owner.get(j)
            if hit is not None:
                hit[0][hit[1]].append((pos, c))
    for b, mc in zip(blocks, mcs):
        b.master_coefs = tuple(tuple(e) for e in mc)
    master_idx = sorted([j for j in range(n) if master_var[j]]
                        + master_extra)
    return Structure(master_var_idx=master_idx, master_rows=master_rows,
                     blocks=blocks)


def _attach_graphs(lp: LinearProgram, blocks: Sequence[_BlockPayload],
                   pricing: Sequence[dict]) -> None:
    """Match spec-supplied pricing descriptors to blocks; matched blocks
    price combinatorially instead of by an LP.

    A *path* graph (``{"source", "sink", "arcs"}``) prices by shortest
    path (:func:`_dijkstra_price`), a *reduction tree* (``{"kind":
    "tree", ...}``) by the ``(node, interval)`` dynamic program
    (:func:`_tree_price`).  A descriptor claims every block whose
    variables are a *subset* of its variables, and is restricted to the
    block's own variables — a commodity's direct source->sink arc sits
    in no conservation row, so :func:`detect` promotes it to a master
    variable and the remaining arcs (one or more connected components)
    still price as path flows over exactly their own arc set.  Names
    absent from the LP are skipped: builders omit some variables (e.g.
    arcs out of the sink), and specs may list the full edge set.
    """
    def resolve(items):
        out = []
        for item in items:
            var = lp._names.get(item[-1])
            if var is not None:
                out.append(item[:-1] + (var.index,))
        return out

    resolved = []
    claims: Dict[int, List[int]] = {}   # var index -> descriptors naming it
    for g in pricing:
        if g.get("kind") == "tree":
            parts = {"sends": resolve(g["sends"]),
                     "tasks": resolve(g["tasks"])}
        else:
            parts = {"arcs": resolve(g["arcs"])}
        gvars = {item[-1] for items in parts.values() for item in items}
        for j in gvars:
            claims.setdefault(j, []).append(len(resolved))
        resolved.append((g, gvars, parts))
    for b in blocks:
        bvars = set(b.var_idx)
        # a claiming descriptor must name the block's first variable
        for gi in claims.get(b.var_idx[0], ()):
            g, gvars, parts = resolved[gi]
            if not bvars <= gvars:
                continue
            local = {j: lj for lj, j in enumerate(b.var_idx)}
            graph = {key: g[key] for key in
                     ("kind", "target", "owners", "n", "source", "sink")
                     if key in g}
            for key, items in parts.items():
                graph[key] = tuple(item[:-1] + (local[item[-1]],)
                                   for item in items if item[-1] in bvars)
            if graph.get("kind") == "tree":
                graph.update(_tree_plan(graph))
            b.graph = graph
            break


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------

#: Denominator cap when rationalizing float pricing duals for the
#: exact price-out certificate (see :meth:`_BlockPricer._cert_check`).
_CERT_DENOM = 10 ** 6

#: Float pricing considers a reduced cost negative below this; anything
#: in ``[-eps, 0)`` is left to the exact certificate / exact LP.
_FLOAT_EPS = 1e-9


class _BlockPricer:
    """Per-block pricing state, kept across the rounds of one solve.

    Small blocks (up to :data:`PRICING_TABLEAU_LIMIT` variables) price
    by an exact tableau solve outright.  Large blocks price
    *float-first*: a persistent scipy/HiGHS model of the block cone is
    re-solved with the round's dual weights (milliseconds), then the
    result is made exact either way — an improving float vertex is
    re-solved exactly on its support (a tiny tableau LP), and a
    priced-out verdict is certified by an exact weak-duality check of
    the rationalized float duals.  Only when both fail does the full
    exact LP run.  Every path is deterministic given the duals and the
    block's two pieces of round-to-round state: ``basis``, the basis of
    its last exact pricing LP (the next tableau solve's warm start), and
    ``cert``, the multipliers of its last float price-out certificate
    (tried before the next float solve).  Seed-round pricings
    (``want_any``) start cold and use neither.
    """

    def __init__(self, payload: _BlockPayload) -> None:
        self.p = payload
        self._lp: Optional[LinearProgram] = None
        self._dead = False
        self._float = None     # lazily built persistent scipy model
        self.basis: Optional[tuple] = None
        self.cert: Optional[tuple] = None
        # transposed master coefs scaled to integers: pos -> [(lj, c)],
        # each c times _cscale
        self._by_row = None
        self._cscale = 1
        # whether the last price() call had a descriptor but its
        # combinatorial pricer declined, so an LP priced the block
        self.dijkstra_bailed = False

    def _pricing_lp(self) -> LinearProgram:
        if self._lp is None:
            p = self.p
            lp = LinearProgram(f"price[b{p.bid}]")
            for name in p.var_names:
                lp.var(name)
            for sense, terms in p.rows:
                lp.add_row([lj for lj, _ in terms], [c for _, c in terms],
                           sense)
            n = len(p.var_names)
            lp.add_row(range(n), [1] * n, EQ, 1, "norm")
            self._lp = lp
        return self._lp

    def weights(self, duals: Dict[int, Fraction]) -> Tuple[List[int], int]:
        """Reduced-cost weights ``w[j] = sum_r y_r a_rj`` per local var
        as ``(W, scale)``: integers over one positive scale, ``w[j] =
        W[j] / scale`` (block columns have zero objective coefficient,
        so ``rc`` of a candidate ray is just ``w . x``).  The block's
        coefficients are scaled to integers once, each round's duals by
        their common denominator, so the products stay integer.
        Iterates the transposed coefficient index over the *duals*, so
        a round with few nonzero duals on this block's rows costs
        proportionally little."""
        br = self._by_row
        if br is None:
            self._cscale = common_denominator(
                c for mc in self.p.master_coefs for _pos, c in mc)
            br = {}
            for lj, mc in enumerate(self.p.master_coefs):
                for pos, c in mc:
                    br.setdefault(pos, []).append(
                        (lj, c.numerator * (self._cscale // c.denominator)))
            self._by_row = br
        live = [(pos, y) for pos, y in duals.items() if y and pos in br]
        yscale = common_denominator(y for _pos, y in live)
        w = [0] * len(self.p.master_coefs)
        for pos, y in live:
            yy = y.numerator * (yscale // y.denominator)
            for lj, c in br[pos]:
                w[lj] += yy * c
        return w, yscale * self._cscale

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
            return sparse.csr_matrix((vv, (ri, ci)), shape=(len(rows), n))
        a_ub = _csr(ub_rows) if ub_rows else None
        eq_all = eq_rows + [tuple((lj, Fraction(1)) for lj in range(n))]
        a_eq = _csr(eq_all)
        b_eq = np.zeros(len(eq_all))
        b_eq[-1] = 1.0
        self._float = {
            "a_ub": a_ub, "b_ub": np.zeros(len(ub_rows)),
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
            live = [(xs[lj].index, c) for lj, c in terms if lj in sset]
            if live:
                lp.add_row([j for j, _ in live], [c for _, c in live], sense)
        lp.add_row([xs[lj].index for lj in support], [1] * len(support), EQ,
                   1, "norm")
        obj = LinExpr()
        for lj in support:
            if w[lj]:
                obj.add_term(xs[lj], w[lj])
        lp.minimize(obj)
        # the tableau at any size: its vertex is the column that enters, so
        # another engine would move the datacenter tier's pinned columns
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

    def _float_price(self, w: List[Fraction], want_any: bool):
        """Float-guided pricing; ``None`` defers to the full exact LP.

        The cached certificate ``self.cert`` is tried *before* the float
        solve: if it still checks it proves price-out outright (a stale
        ``u`` only weakens the bound, and no ``u`` can pass while an
        improving ray exists).
        """
        f = self._float or self._float_setup()
        if (not want_any and self.cert is not None
                and self._cert_check(w, self.cert)):
            return ("none",)
        n = len(w)
        c = np.fromiter((float(x) for x in w), dtype=float, count=n)
        res = _linprog(c, A_ub=f["a_ub"], b_ub=f["b_ub"],
                       A_eq=f["a_eq"], b_eq=f["b_eq"], bounds=f["bounds"],
                       method="highs", options={"presolve": False})
        if res.status == 2:
            self._dead = True
            return ("dead",)
        if not res.success:
            return None
        if res.fun < -_FLOAT_EPS or want_any:
            support = [int(j) for j in np.nonzero(res.x > 1e-9)[0]]
            if support:
                got = self._restricted_exact(w, support, want_any)
                if got is not None:
                    rc, local = got
                    return ("col", rc, local)
        if res.fun >= -_FLOAT_EPS and not want_any:
            mults = self._cert_mults(res)
            if self._cert_check(w, mults):
                self.cert = mults
                return ("none",)
        return None

    # ------------------------------------------------------ entry point
    def price(self, duals: Dict[int, Fraction], want_any: bool = False):
        """One pricing round: ``("col", rc, vertex)`` with ``rc < 0``
        and ``vertex`` a local-index ray, ``("none",)`` at local
        optimality, ``("dead",)`` for an empty cone.  ``want_any`` (the
        seed round) returns a ray regardless of its reduced cost, so
        every block enters the first master."""
        self.dijkstra_bailed = False
        if self._dead:
            return ("dead",)
        w, scale = self.weights(duals)
        graph = self.p.graph
        if graph is not None:
            combinatorial = (_tree_price if graph.get("kind") == "tree"
                             else _dijkstra_price)
            res = combinatorial(graph, w, want_any=want_any, scale=scale)
            if res is not None:
                return res
            self.dijkstra_bailed = True
        w = [Fraction(x, scale) if x else ZERO for x in w]
        if len(w) > FLOAT_PRICE_MIN:
            res = self._float_price(w, want_any)
            if res is not None:
                return res
        lp = self._pricing_lp()
        obj = LinExpr()
        for lj, wj in enumerate(w):
            if wj:
                obj.add_term(lp.variables[lj], wj)
        lp.minimize(obj)
        # own limit, not the dispatch cut-over (see _restricted_exact)
        if lp.num_vars() <= PRICING_TABLEAU_LIMIT:
            sol = ExactSimplexSolver().solve(
                lp, warm_basis=None if want_any else self.basis)
        else:
            sol = RevisedSimplexSolver().solve(lp)
        if sol.status is SolveStatus.INFEASIBLE:
            self._dead = True
            return ("dead",)
        if not sol.optimal:
            raise RuntimeError(
                f"pricing solve failed on block {self.p.bid}: {sol.status}"
                f" {sol.message}")
        self.basis = sol.basis_labels
        if sol.objective >= 0 and not want_any:
            return ("none",)
        vertex = {lj: v for lj, v in sol.values.items() if v}
        return ("col", sol.objective, vertex)


def _settle(seeds: Dict[object, int],
            out: Dict[object, Sequence[Tuple[object, int]]],
            w: Sequence):
    """Multi-source Dijkstra on nonnegative arc costs.

    ``seeds`` maps each source node to its starting label, ``out``
    lists ``(head, local var lj)`` per tail, and arc ``lj`` costs
    ``w[lj]``.  Returns ``(dist, prev)``: ``prev[v] = (u, lj)`` for
    every node whose label came through an arc, so a seed keeps no
    ``prev`` entry unless an arc beat it.  Ties break on ``str(node)``,
    so the result is a pure function of the inputs.
    """
    dist = dict(seeds)
    prev: Dict[object, Tuple[object, int]] = {}
    heap = [(d, str(u), u) for u, d in seeds.items()]
    heapq.heapify(heap)
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
    return dist, prev


def _dijkstra_price(graph: dict, w: Sequence, want_any: bool = False,
                    scale: int = 1):
    """Cheapest source->sink path under the dual arc costs.

    Valid only when the sink has no outgoing arcs and every non-sink
    arc cost is nonnegative (capacity duals are; chain/equality duals
    folded into a *non-sink* arc can break it) — then every ray of the
    block cone decomposes into source->sink paths plus nonnegative-cost
    cycles, so the min-cost simple path attains the most negative
    reduced cost and Dijkstra is exact.  Returns ``None`` to make the
    caller fall back to LP pricing when the preconditions fail,
    ``("none",)`` when no path improves, else ``("col", rc, vertex)``.
    Arc ``lj`` costs ``w[lj] / scale``; the search compares the ``w``
    entries themselves, so integer weights over one positive scale
    (:meth:`_BlockPricer.weights`) keep it on integers.
    """
    source, sink = graph["source"], graph["sink"]
    arcs = graph["arcs"]
    out: Dict[object, List[Tuple[object, int]]] = {}
    sink_arcs: List[Tuple[object, int, int]] = []
    for (i, j, lj) in arcs:
        if i == sink:
            return None
        cost = w[lj]
        if j == sink:
            sink_arcs.append((i, lj, cost))
        else:
            if cost < 0:
                return None
            out.setdefault(i, []).append((j, lj))
    dist, prev = _settle({source: 0}, out, w)
    best = None
    for (q, lj, cost) in sorted(sink_arcs, key=lambda a: a[1]):
        dq = dist.get(q)
        if dq is None:
            continue
        total = dq + cost
        if best is None or total < best[0]:
            best = (total, q, lj)
    if best is None or (best[0] >= 0 and not want_any):
        return ("none",)
    total, q, last = best
    rc = Fraction(total, scale)
    vertex = {last: Fraction(1)}
    while q != source:
        u, lj = prev[q]
        vertex[lj] = Fraction(1)
        q = u
    return ("col", rc, vertex)


def _tree_plan(graph: dict) -> dict:
    """The weight-independent part of :func:`_tree_price`, built once
    per block: per interval the send adjacency ``{tail: ((head, lj),
    ...)}`` and the merges producing it ``((node, l, lj), ...)``; the
    sink steps ``(lj, how, at)`` in variable order — an arrival
    ``("send", tail)`` or a final task at the target ``("task", l)``;
    the variables whose weights must be nonnegative; and whether the
    target re-emits ``v[0,n-1]`` (then the DP never applies)."""
    n, target = graph["n"], graph["target"]
    full = (0, n - 1)
    out: Dict[tuple, Dict[object, list]] = {}
    merges: Dict[tuple, list] = {}
    sink, nonsink, reemits = [], [], False
    for (i, j, ival, lj) in graph["sends"]:
        if ival == full and j == target:
            sink.append((lj, "send", i))
            continue
        reemits = reemits or (ival == full and i == target)
        nonsink.append(lj)
        out.setdefault(ival, {}).setdefault(i, []).append((j, lj))
    for (node, (k, l, m), lj) in graph["tasks"]:
        if node == target and (k, m) == full:
            sink.append((lj, "task", l))
            continue
        nonsink.append(lj)
        merges.setdefault((k, m), []).append((node, l, lj))
    return {"out": {ival: {i: tuple(a) for i, a in adj.items()}
                    for ival, adj in out.items()},
            "merges": {ival: tuple(ms) for ival, ms in merges.items()},
            "sink": tuple(sorted(sink)), "nonsink": tuple(nonsink),
            "reemits": reemits}


def _tree_price(graph: dict, w: Sequence, want_any: bool = False,
                scale: int = 1):
    """Cheapest reduction tree delivering ``v[0,n-1]`` at the target.

    Every task merges adjacent intervals ``[k,l] + [l+1,m] -> [k,m]``
    (Section 4 of the paper), so the cheapest unit-rate tree is an
    exact dynamic program over ``(node, interval)`` states, processed by
    increasing interval length: a leaf ``v[k,k]`` costs 0 at its owner;
    a longer interval is seeded at each host ``P`` with
    ``min_l dist[P,[k,l]] + dist[P,[l+1,m]] + w(cons[P,(k,l,m)])``, then
    spread over its ``send`` arcs by Dijkstra.  A merge always yields a
    longer interval, so each level only reads settled levels.  The sink
    variables — arrivals of ``v[0,n-1]`` at the target and the target's
    final tasks — may carry weights of any sign (throughput and
    ``chain[..]`` duals); every other weight must be nonnegative, the
    arcs returning a leaf to its owner included.  Then every ray of the
    block cone is a sum of unit trees plus zero-delivery send cycles of
    nonnegative cost, and the cheapest tree attains the most negative
    reduced cost per unit delivered.  Returns ``None`` (the caller falls
    back to LP pricing) when that precondition fails or the target
    re-emits ``v[0,n-1]``, ``("none",)`` when no tree improves, else
    ``("col", rc, vertex)`` with ``rc`` the cost of one delivered unit.
    Weights are read as in :func:`_dijkstra_price` (``w[lj] / scale``);
    ``graph`` carries its :func:`_tree_plan` (see :func:`_attach_graphs`).
    """
    n, target, owners = graph["n"], graph["target"], graph["owners"]
    full = (0, n - 1)
    if graph["reemits"] or any(w[lj] < 0 for lj in graph["nonsink"]):
        return None
    out, merges = graph["out"], graph["merges"]

    # level by level: (dist, prev, merge) per interval, ``merge[P] =
    # (l, lj)`` naming the task that seeded P's label
    levels: Dict[tuple, tuple] = {}
    for length in range(n):
        for k in range(n - length):
            ival = (k, k + length)
            seeds: Dict[object, int] = {}
            merge: Dict[object, Tuple[int, int]] = {}
            if length == 0:
                seeds[owners[k]] = 0
            for (node, l, lj) in merges.get(ival, ()):
                left = levels[(k, l)][0].get(node)
                right = levels[(l + 1, ival[1])][0].get(node)
                if left is None or right is None:
                    continue
                d = left + right + w[lj]
                if node not in seeds or d < seeds[node]:
                    seeds[node] = d
                    merge[node] = (l, lj)
            dist, prev = _settle(seeds, out.get(ival, {}), w)
            levels[ival] = (dist, prev, merge)

    best = None
    for (lj, how, at) in graph["sink"]:
        if how == "send":
            d = levels[full][0].get(at)
            need = [(full, at)]
        else:
            left = levels[(0, at)][0].get(target)
            right = levels[(at + 1, n - 1)][0].get(target)
            d = None if left is None or right is None else left + right
            need = [((0, at), target), ((at + 1, n - 1), target)]
        if d is not None and (best is None or d + w[lj] < best[0]):
            best = (d + w[lj], lj, need)
    if best is None or (best[0] >= 0 and not want_any):
        return ("none",)
    total, last, need = best
    vertex = {last: Fraction(1)}
    while need:
        ival, node = need.pop()
        _dist, prev, merge = levels[ival]
        while node in prev:         # walk the send path back to its seed
            node, lj = prev[node]
            vertex[lj] = Fraction(1)
        if ival[0] < ival[1]:       # a merge seeded it (a leaf: its owner)
            l, lj = merge[node]
            vertex[lj] = Fraction(1)
            need.append(((ival[0], l), node))
            need.append(((l + 1, ival[1]), node))
    return ("col", Fraction(total, scale), vertex)


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
        unit = v == 1       # path columns: skip the Fraction products
        for pos, c in payload.master_coefs[lj]:
            acc = rows.get(pos, 0) + (c if unit else c * v)
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
    cvars = [master.var(c.name).index for c in columns]
    rows = []
    for ci in struct.master_rows:
        rows.append([(mvars[j].index, c) for j, c in lp.row_items(ci)
                     if j in mvars])
    for col, cv in zip(columns, cvars):
        for pos, c in col.row_coefs.items():
            rows[pos].append((cv, c))
    for row, ci in zip(rows, struct.master_rows):
        master.add_row([j for j, _ in row], [c for _, c in row],
                       lp.senses[ci], lp.row_rhs(ci),
                       lp.names[ci] or f"#m{ci}")
    obj = LinExpr()
    for j, c in lp.objective.coefs.items():
        obj.add_term(mvars[j], c)
    obj.constant = lp.objective.constant
    master.maximize(obj)
    return master


def _direct_fallback(lp: LinearProgram, reason: str) -> LPSolution:
    """No block structure (or a shape colgen does not speak): one
    direct exact solve, still reported under the colgen backend."""
    from repro.lp.dispatch import TABLEAU_VAR_LIMIT  # dispatch imports colgen

    # the model is rational: both entry points have checked it
    engine = (ExactSimplexSolver() if lp.num_vars() <= TABLEAU_VAR_LIMIT
              else RevisedSimplexSolver())
    sol = engine._solve_rational(lp)
    stats = dict(sol.stats or {})
    stats.update({"engine": "colgen", "fallback": reason, "rounds": 0,
                  "columns": 0, "columns_priced": 0, "blocks": 0,
                  "dijkstra_fallbacks": 0})
    sol.stats = stats
    sol.backend = "colgen"
    return sol


def solve_colgen(lp: LinearProgram,
                 pricing: Optional[Sequence[dict]] = None,
                 structure: Optional[Structure] = None,
                 max_rounds: int = MAX_ROUNDS) -> LPSolution:
    """Solve ``lp`` exactly by Dantzig-Wolfe column generation.

    ``pricing`` is an optional list of per-commodity descriptors in the
    :meth:`CollectiveSpec.pricing_graphs` format — path graphs and
    reduction trees; matched blocks price by shortest path or by the
    tree DP, everything else by a small exact LP.  Blocks price one
    after another in this process, and the fresh columns of a round are
    admitted in stable-key order, so the result is deterministic.  Run
    on the *raw* LP — presolve substitutions would break the block/name
    structure the decomposition and the graphs rely on.  A passed
    ``structure`` comes from :func:`detect` on a model the caller has
    already found rational, so only a call without one scans the data
    for floats.
    """
    if structure is None:
        if not lp.is_rational():
            raise ValueError("colgen requires int/Fraction data; use the "
                             "HiGHS backend for float LPs")
        structure = detect(lp, pricing=pricing)
    return _solve_structured(lp, structure, pricing, max_rounds)


def _solve_structured(lp: LinearProgram, structure: Optional[Structure],
                      pricing: Optional[Sequence[dict]] = None,
                      max_rounds: int = MAX_ROUNDS) -> LPSolution:
    """:func:`solve_colgen` on a rational ``lp`` whose :func:`detect`
    result is ``structure`` (``None``: one direct exact solve).
    :func:`repro.lp.dispatch.solve` calls it after its own single scan."""
    t_start = perf_counter()
    if structure is None:
        reason = "minimize" if not lp.sense_max else "no blocks"
        return _direct_fallback(lp, reason)
    stats: Dict[str, object] = {
        "engine": "colgen", "blocks": len(structure.blocks),
        "path_blocks": sum(1 for b in structure.blocks
                           if b.graph is not None
                           and b.graph.get("kind") != "tree"),
        "tree_blocks": sum(1 for b in structure.blocks
                           if b.graph is not None
                           and b.graph.get("kind") == "tree"),
        "master_rows": len(structure.master_rows),
        "master_vars": len(structure.master_var_idx),
        "rounds": 0, "columns": 0, "columns_priced": 0,
        "pricing_skipped": 0, "seed_columns": 0, "dijkstra_fallbacks": 0,
        "master_s": 0.0, "pricing_s": 0.0, "master_pivots": 0,
        # blocks an LP priced at least once, by reason
        "lp_blocks": {"no descriptor": sum(1 for b in structure.blocks
                                           if b.graph is None),
                      "declined": 0},
    }
    declined = set()

    columns: List[_Column] = []
    seen_keys = set()
    pricers = {b.bid: _BlockPricer(b) for b in structure.blocks}
    alive = [b.bid for b in structure.blocks]
    solver = RevisedSimplexSolver()

    # rows whose duals a block's pricing can see: skip a block when they
    # did not move since its last priced-out round (the result would be
    # bit-identical, see the loop below)
    dual_rows = {b.bid: tuple(sorted({pos for mc in b.master_coefs
                                      for pos, _ in mc}))
                 for b in structure.blocks}
    last_key: Dict[int, tuple] = {}
    last_none: Dict[int, bool] = {}

    def price_round(tasks, want_any=False):
        """Price ``(bid, duals)`` tasks in order; admit the fresh
        columns by stable key and drop dead blocks from ``alive``."""
        stats["columns_priced"] += len(tasks)
        t0 = perf_counter()
        fresh: List[_Column] = []
        dead = set()
        for bid, duals in tasks:
            pricer = pricers[bid]
            res = pricer.price(duals, want_any=want_any)
            if pricer.dijkstra_bailed:
                stats["dijkstra_fallbacks"] += 1
                declined.add(bid)
            if res[0] == "dead":
                dead.add(bid)
                continue
            last_none[bid] = res[0] == "none"
            if res[0] == "col":
                col = _column_from_vertex(pricer.p, res[2])
                if col.key not in seen_keys:  # also within this round
                    seen_keys.add(col.key)
                    fresh.append(col)
        stats["pricing_s"] += perf_counter() - t0
        stats["lp_blocks"]["declined"] = len(declined)
        fresh.sort(key=lambda c: c.key)     # stable admission order
        columns.extend(fresh)
        if dead:
            alive[:] = [bid for bid in alive if bid not in dead]
        return fresh

    # coupling rows: the homogeneous master rows that tie commodity
    # rates to an objective variable (``throughput[..]``/TP rows) and
    # the cross-block ``chain[..]`` precedence rows.  Capacity rows
    # (nonzero constant) are left out even when a promoted direct
    # source->sink arc makes them touch a master variable: a seed dual
    # there would make non-sink arc weights negative and push every
    # path-priced block off Dijkstra.
    objective_vars = set(lp.objective.coefs)
    seed_rows = {pos for pos, ci in enumerate(structure.master_rows)
                 if lp.rhs[ci] == 0
                 and (lp.names[ci].startswith("chain[")
                      or not objective_vars.isdisjoint(
                          lp.cols[lp.indptr[ci]:lp.indptr[ci + 1]]))}

    # seed round: rays of extremal rate per block (any reduced cost)
    # before the first master, so chain-coupled commodities (pipelined
    # composites) all carry flow from round 0 — without them the master
    # sits at TP=0 for tens of rounds while duals wake the stages up one
    # by one.  Pricing minimizes w.x = sum_r y_r a_rj x_j, so y = -1
    # (+1) on the rate rows maximizes (minimizes) the block's coupling
    # contribution.
    seed_tasks = [(bid, {p: Fraction(s) for p in dual_rows[bid]
                         if p in seed_rows})
                  for bid in alive for s in (-1, 1)]
    stats["seed_columns"] = len(price_round(seed_tasks, want_any=True))
    stats["columns"] = len(columns)

    master_res = None
    inc: Optional[IncrementalColumnMaster] = None
    pending: List[_Column] = []     # admitted, not yet in the master
    for rnd in range(max_rounds):
        t0 = perf_counter()
        res = None
        if inc is not None and inc.live:
            # hot path: splice the fresh columns into the live core and
            # continue the primal — no crash, no refactorization
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
            # the restricted master's rays expand to rays of the full
            # LP, so unboundedness transfers directly
            return LPSolution(SolveStatus.UNBOUNDED, backend="colgen",
                              lp=lp, stats=stats)
        if not res.optimal:
            if rnd == 0 and res.status is SolveStatus.INFEASIBLE:
                # a zero-column master can be infeasible while the full
                # LP is not (columns only add feasibility)
                return _direct_fallback(lp, "master infeasible")
            return LPSolution(res.status, backend="colgen",
                              lp=lp, stats=stats,
                              message=f"master solve failed in round "
                                      f"{rnd} on {lp.name!r}")
        duals = res.duals
        stats["rounds"] = rnd + 1

        # a block whose visible duals match its last priced-out round
        # would return "none" again (pricing with unchanged weights
        # cannot find a ray it just proved absent; a block that just
        # yielded a column always sees moved duals — the new master
        # optimum prices every admitted column >= 0), so skip it
        tasks = []
        for bid in alive:
            key = tuple(duals.get(pos) for pos in dual_rows[bid])
            if last_none.get(bid) and last_key.get(bid) == key:
                stats["pricing_skipped"] += 1
                continue
            last_key[bid] = key
            tasks.append((bid, duals))
        fresh = price_round(tasks)
        if not fresh:
            break
        pending = fresh
        stats["columns"] = len(columns)
    else:
        return LPSolution(SolveStatus.ERROR, backend="colgen", lp=lp,
                          stats=stats,
                          message=f"colgen hit the {max_rounds}-round "
                                  f"limit on {lp.name!r}")

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
    # digest of the admitted column keys, in admission order
    stats["columns_digest"] = hashlib.blake2b(
        repr([c.key for c in columns]).encode(), digest_size=8).hexdigest()
    stats["total_s"] = perf_counter() - t_start
    return LPSolution(SolveStatus.OPTIMAL,
                      objective=lp.objective.evaluate(values),
                      values=values, backend="colgen", exact=True, lp=lp,
                      iterations=int(stats["rounds"]), stats=stats)
