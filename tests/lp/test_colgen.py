"""Dantzig-Wolfe column generation (PR 8): structure detection, pricing,
determinism, differential equivalence.

Four layers are pinned here:

- **Differential.** ``solve_colgen`` must reproduce the fraction-free
  tableau's exact rational optimum on randomized scatter/reduce
  instances and on hand-built block-angular LPs, and its expanded
  edge-flow solution must satisfy the *raw* LP exactly (``tol=0``).
  (The conformance suite extends this bit-identity to every registered
  collective on the platform fleet.)
- **Pricing.** Negative-reduced-cost detection is checked against
  hand-computed duals on a block small enough to solve by inspection,
  the Dijkstra path pricer against an enumerable graph, and the
  reduction-tree DP against the exact optimum of the block cone per
  unit delivered — including the preconditions under which either must
  decline (``None``) and leave the block to LP pricing.
- **Determinism.** Repeated serial solves must produce the identical
  solution *and* the identical admitted column set (``columns_digest``),
  per the contract in :mod:`repro.lp.colgen`'s docstring, and a block
  whose float pricing gives out must still price exactly.
- **Routing.** ``backend="colgen"`` through dispatch, auto-routing above
  ``COLGEN_VAR_LIMIT`` raw variables without a presolve, the
  ``route``/``route_reason`` stamps, cached colgen hits, the
  incompatible-flag errors, and the fallback paths (minimization, no
  blocks, infeasible seed master).
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.collectives import get_collective
from repro.core.scatter import ScatterProblem, build_scatter_lp
from repro.lp import colgen as colgen_mod
from repro.lp import dispatch
from repro.lp.colgen import (_BlockPricer, _dijkstra_price, _tree_price,
                             detect, solve_colgen)
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import EQ, GE, LE, LinearProgram, LinExpr
from repro.lp.revised_simplex import (IncrementalColumnMaster,
                                      RevisedSimplexSolver)
from repro.lp.solution import SolveStatus
from repro.platform import generators as gen

SEED = 20260809


def _two_block_lp(capacity=True):
    """max TP with two single-commodity blocks sharing one capacity row.

    Block k is the cone ``a_k == b_k`` (one conservation row); the
    ``alpha[k]`` rows tie TP under each commodity's rate and the
    ``edge[cap]`` row (left out with ``capacity=False``) makes the
    commodities compete for one link.
    """
    lp = LinearProgram("two-block")
    tp = lp.var("TP")
    a0, b0 = lp.var("a0"), lp.var("b0")
    a1, b1 = lp.var("a1"), lp.var("b1")
    lp.add(a0 - b0 == 0, name="cons[0]")
    lp.add(a1 - b1 == 0, name="cons[1]")
    lp.add(tp - a0 <= 0, name="alpha[0]")
    lp.add(tp - a1 <= 0, name="alpha[1]")
    if capacity:
        lp.add(a0 + b0 + a1 + b1 <= 1, name="edge[cap]")
    lp.maximize(tp)
    return lp


def _fraction_dijkstra(graph, w, want_any):
    """Reference for ``_dijkstra_price`` on its preconditions (no arc
    out of the sink, no negative non-sink arc): the same search run
    directly on the Fraction costs."""
    import heapq

    source, sink = graph["source"], graph["sink"]
    out, sink_arcs = {}, []
    for (i, j, lj) in graph["arcs"]:
        if j == sink:
            sink_arcs.append((i, lj))
        else:
            out.setdefault(i, []).append((j, lj))
    dist, prev, done = {source: Fraction(0)}, {}, set()
    heap = [(Fraction(0), str(source), source)]
    while heap:
        d, _tie, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for (v, lj) in out.get(u, ()):
            nd = d + w[lj]
            if v not in dist or nd < dist[v]:
                dist[v], prev[v] = nd, (u, lj)
                heapq.heappush(heap, (nd, str(v), v))
    best = None
    for (q, lj) in sorted(sink_arcs, key=lambda a: a[1]):
        if q in dist and (best is None or dist[q] + w[lj] < best[0]):
            best = (dist[q] + w[lj], q, lj)
    if best is None or (best[0] >= 0 and not want_any):
        return ("none",)
    rc, q, last = best
    vertex = {last: Fraction(1)}
    while q != source:
        q, lj = prev[q]
        vertex[lj] = Fraction(1)
    return ("col", rc, vertex)


def _decomposable_lp(instance):
    """A block-angular collective LP and its spec's pricing graphs."""
    if instance == "pipelined-composite":
        from repro.core.allreduce import AllReduceProblem
        from repro.platform.examples import figure6_platform

        spec = get_collective("all-reduce")
        problem = AllReduceProblem(figure6_platform(), [0, 1, 2])
        return (spec.build_lp(problem, "pipelined"),
                spec.pricing_graphs(problem))
    if instance == "ring":
        g = gen.ring(8)
        hosts = g.compute_nodes()
    else:
        g = gen.fat_tree(4, seed=1)
        hosts = [f"h{i}" for i in range(16)]
    problem = ScatterProblem(g, hosts[0], hosts[1:])
    return (build_scatter_lp(problem),
            get_collective("scatter").pricing_graphs(problem))


class TestDetect:
    def test_two_block_lp_decomposes(self):
        lp = _two_block_lp()
        struct = detect(lp)
        assert struct is not None
        assert len(struct.blocks) == 2
        # TP is the only master variable; every block var is covered once
        assert struct.master_var_idx == [lp.get("TP").index]
        covered = sorted(j for b in struct.blocks for j in b.var_idx)
        assert covered == [lp.get(n).index for n in ("a0", "b0", "a1", "b1")]
        # capacity/alpha rows stay in the master, conservation rows do not
        names = [lp.constraints[ci].name for ci in struct.master_rows]
        assert "edge[cap]" in names and "alpha[0]" in names
        assert "cons[0]" not in names

    def test_scatter_lp_decomposes_per_commodity(self):
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        struct = detect(lp)
        assert struct is not None and len(struct.blocks) >= 2
        block_vars = {j for b in struct.blocks for j in b.var_idx}
        assert block_vars.isdisjoint(struct.master_var_idx)
        assert block_vars | set(struct.master_var_idx) == \
            set(range(lp.num_vars()))

    @pytest.mark.parametrize("instance", ["ring", "fat-tree",
                                          "pipelined-composite"])
    def test_master_coefs_match_brute_force(self, instance):
        """Every block variable's master-row coefficients, recomputed
        by scanning each master row for that variable."""
        lp, pricing = _decomposable_lp(instance)
        struct = detect(lp, pricing=pricing)
        assert struct is not None and len(struct.blocks) >= 2
        for b in struct.blocks:
            for lj, j in enumerate(b.var_idx):
                expect = tuple(
                    (pos, lp.constraints[ci].expr.coefs[j])
                    for pos, ci in enumerate(struct.master_rows)
                    if j in lp.constraints[ci].expr.coefs)
                assert b.master_coefs[lj] == expect, (b.bid, lj)

    def test_minimization_returns_none(self):
        lp = _two_block_lp()
        lp.minimize(lp.get("TP") * 1)
        assert detect(lp) is None

    def test_no_blocks_returns_none(self):
        lp = LinearProgram("flat")
        x, y = lp.var("x", ub=2), lp.var("y", ub=3)
        lp.add(x + y <= 4, name="cap")
        lp.maximize(x + y)
        assert detect(lp) is None


class TestPricing:
    def test_negative_reduced_cost_against_hand_duals(self):
        """Block cone ``a0 == b0`` sliced at ``a0 + b0 = 1`` has the
        single vertex ``(1/2, 1/2)``; with duals y on the master rows
        the reduced cost is ``y . (A_master x)``, computable by hand."""
        lp = _two_block_lp()
        struct = detect(lp)
        block = struct.blocks[0]
        assert block.var_names == ("a0", "b0")
        pos = {lp.constraints[ci].name: p
               for p, ci in enumerate(struct.master_rows)}
        pricer = _BlockPricer(block)

        # y(alpha[0]) = 3, y(edge[cap]) = 1:
        # w = (1*1 + 3*(-1), 1*1) = (-2, 1); rc = w . (1/2, 1/2) = -1/2
        duals = {pos["alpha[0]"]: Fraction(3), pos["edge[cap]"]: Fraction(1)}
        tag, rc, vertex = pricer.price(duals)
        assert tag == "col"
        assert rc == Fraction(-1, 2)
        assert vertex == {0: Fraction(1, 2), 1: Fraction(1, 2)}

        # y(edge[cap]) = 1 alone: w = (1, 1), rc = 1 >= 0 -> priced out
        res = pricer.price({pos["edge[cap]"]: Fraction(1)})
        assert res[0] == "none"

    def test_dijkstra_picks_cheapest_path(self):
        graph = {"source": "s", "sink": "t",
                 "arcs": (("s", "a", 0), ("a", "t", 1), ("s", "t", 2))}
        # two-hop path costs 1 + 0 = 1, direct arc costs -2
        w = [Fraction(1), Fraction(0), Fraction(-2)]
        tag, rc, vertex = _dijkstra_price(graph, w)
        assert (tag, rc) == ("col", Fraction(-2))
        assert vertex == {2: Fraction(1)}
        # make the two-hop route win instead (the discount must sit on
        # the *sink* arc — negative non-sink costs void the precondition)
        w = [Fraction(1), Fraction(-5), Fraction(-2)]
        tag, rc, vertex = _dijkstra_price(graph, w)
        assert (tag, rc) == ("col", Fraction(-4))
        assert vertex == {0: Fraction(1), 1: Fraction(1)}

    def test_dijkstra_priced_out_and_want_any(self):
        graph = {"source": "s", "sink": "t", "arcs": (("s", "t", 0),)}
        assert _dijkstra_price(graph, [Fraction(2)]) == ("none",)
        tag, rc, vertex = _dijkstra_price(graph, [Fraction(2)],
                                          want_any=True)
        assert (tag, rc, vertex) == ("col", Fraction(2), {0: Fraction(1)})

    def test_dijkstra_declines_invalid_preconditions(self):
        # a negative-cost non-sink arc breaks Dijkstra's optimality
        graph = {"source": "s", "sink": "t",
                 "arcs": (("s", "a", 0), ("a", "t", 1))}
        assert _dijkstra_price(graph, [Fraction(-1), Fraction(0)]) is None
        # an arc *out of* the sink breaks the path decomposition
        graph = {"source": "s", "sink": "t",
                 "arcs": (("s", "t", 0), ("t", "s", 1))}
        assert _dijkstra_price(graph, [Fraction(1), Fraction(1)]) is None

    @pytest.mark.parametrize("trial", range(20))
    def test_dijkstra_matches_fraction_reference(self, trial):
        """The search on integer weights over one scale returns exactly
        what a Dijkstra over the Fraction costs returns — same reduced
        cost, same path, same tie-breaks (small denominators force many
        ties)."""
        rng = random.Random(SEED + trial)
        nodes = ["s", "t"] + [f"n{i}" for i in range(rng.randint(2, 7))]
        arcs = []
        for i in nodes:
            for j in nodes:
                if i != j and i != "t" and j != "s" and rng.random() < 0.5:
                    arcs.append((i, j, len(arcs)))
        w = [Fraction(rng.randint(-3 if j == "t" else 0, 4),
                      rng.choice((1, 2, 3, 6)))
             for (_i, j, _lj) in arcs]
        graph = {"source": "s", "sink": "t", "arcs": tuple(arcs)}
        scale = 6
        scaled = [int(x * scale) for x in w]
        for want_any in (False, True):
            assert _dijkstra_price(graph, scaled, want_any, scale=scale) \
                == _fraction_dijkstra(graph, w, want_any)

    def test_spec_pricing_graphs_enable_path_pricing(self):
        g = gen.ring(6)
        nodes = g.compute_nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        lp = build_scatter_lp(problem)
        graphs = get_collective("scatter").pricing_graphs(problem)
        assert graphs, "scatter spec must supply pricing graphs"
        sol = solve_colgen(lp, pricing=graphs)
        assert sol.optimal and sol.exact
        assert sol.stats["path_blocks"] >= 1
        assert sol.objective == ExactSimplexSolver().solve(lp).objective


    def test_ring_scatter_never_prices_by_lp(self):
        """The seed round leaves capacity rows at dual 0 even where a
        promoted direct source->sink arc touches them, so every pricing
        of a path block, seed round included, stays on Dijkstra."""
        lp, graphs = _decomposable_lp("ring")
        sol = solve_colgen(lp, pricing=graphs)
        assert sol.optimal and sol.objective == Fraction(1, 7)
        assert sol.stats["path_blocks"] == sol.stats["blocks"]
        assert sol.stats["columns_priced"] >= 2 * sol.stats["blocks"]
        assert sol.stats["dijkstra_fallbacks"] == 0


def _tree_lp(instance, seed):
    """A small reduce-type LP with reduction-tree descriptors."""
    from repro.core.allreduce import AllReduceProblem
    from repro.core.reduce_op import ReduceProblem
    from repro.core.reduce_scatter import ReduceScatterProblem
    from repro.platform.examples import figure6_platform

    if instance == "pipelined":
        spec = get_collective("all-reduce")
        problem = AllReduceProblem(figure6_platform(), [0, 1, 2],
                                   task_work=2)
        return (spec.build_lp(problem, "pipelined"),
                spec.pricing_graphs(problem))
    rng = random.Random(seed)
    g = gen.heterogenize(
        gen.random_connected(rng.randint(4, 5), extra_edges=rng.randint(1, 3),
                             seed=seed), seed=seed)
    hosts = g.compute_nodes()
    parts = rng.sample(hosts, 3)
    if instance == "reduce":
        spec = get_collective("reduce")
        problem = ReduceProblem(g, parts, rng.choice(hosts))
    else:
        spec = get_collective("reduce-scatter")
        problem = ReduceScatterProblem(g, parts)
    return spec.build_lp(problem), spec.pricing_graphs(problem)


def _sink_vars(graph):
    """Local indices of a tree block's delivering variables."""
    full = (0, graph["n"] - 1)
    tgt = graph["target"]
    return ([lj for (_i, j, ival, lj) in graph["sends"]
             if ival == full and j == tgt]
            + [lj for (node, (k, _l, m), lj) in graph["tasks"]
               if node == tgt and (k, m) == full])


def _random_duals(lp, struct, rng):
    """Random master duals of the valid signs: nonnegative on the
    capacity rows, any sign on the throughput and chain rows."""
    duals = {}
    for pos, ci in enumerate(struct.master_rows):
        name = lp.constraints[ci].name
        den = rng.choice((1, 2, 3, 4))
        if name.startswith(("edge[", "out[", "in[", "alpha[")):
            if rng.random() < 0.6:
                duals[pos] = Fraction(rng.randint(0, 4), den)
        else:
            duals[pos] = Fraction(rng.randint(-40, 40), den)
    return duals


def _unit_delivery_optimum(block, w, sinks):
    """Exact tableau optimum of ``min w.x`` over the block cone with one
    unit delivered at the sink (``None`` when nothing can be)."""
    lp = LinearProgram("unit-delivery")
    xs = [lp.var(name) for name in block.var_names]
    for sense, terms in block.rows:
        e = LinExpr()
        for lj, c in terms:
            e.add_term(xs[lj], c)
        lp.add(e <= 0 if sense == LE else (e >= 0 if sense == GE else e == 0))
    lp.add(sum(xs[lj] for lj in sinks) == 1, name="deliver")
    obj = LinExpr()
    for lj, wj in enumerate(w):
        if wj:
            obj.add_term(xs[lj], wj)
    lp.minimize(obj)
    sol = ExactSimplexSolver().solve(lp)
    if sol.status is SolveStatus.INFEASIBLE:
        return None
    assert sol.optimal, sol.status
    return sol.objective


class TestTreePricing:
    @pytest.mark.parametrize("instance,trial", [
        (inst, t) for inst in ("reduce", "reduce-scatter", "pipelined")
        for t in range(4)])
    def test_dp_matches_unit_delivery_lp(self, instance, trial):
        """The DP's cost equals the exact optimum of the block cone
        normalized by unit delivery at the sink, and its tree satisfies
        the block rows exactly."""
        lp, pricing = _tree_lp(instance, SEED + trial)
        struct = detect(lp, pricing=pricing)
        trees = [b for b in struct.blocks
                 if b.graph is not None and b.graph["kind"] == "tree"]
        assert trees
        rng = random.Random(SEED * 7 + trial)
        for b in trees:
            w, scale = _BlockPricer(b).weights(
                _random_duals(lp, struct, rng))
            opt = _unit_delivery_optimum(
                b, [Fraction(x, scale) for x in w], _sink_vars(b.graph))
            res = _tree_price(b.graph, w, want_any=True, scale=scale)
            if opt is None:
                assert res == ("none",)
                continue
            tag, rc, vertex = res
            assert tag == "col" and rc == opt, (b.bid, rc, opt)
            assert rc * scale == sum(w[lj] * x for lj, x in vertex.items())
            assert sum(vertex.get(lj, 0) for lj in _sink_vars(b.graph)) == 1
            for sense, terms in b.rows:
                act = sum(c * vertex.get(lj, 0) for lj, c in terms)
                assert (act == 0 if sense == EQ else
                        (act <= 0 if sense == LE else act >= 0))
            # the improving-ray verdict follows the sign
            strict = _tree_price(b.graph, w, scale=scale)
            assert strict == (res if rc < 0 else ("none",))

    def test_negative_non_sink_weight_falls_back_to_lp(self):
        """A negative weight off the sink — here on an arc returning a
        leaf to its owner — voids the DP: it declines and the pricer
        prices the block by LP instead."""
        lp, pricing = _tree_lp("reduce", SEED)
        struct = detect(lp, pricing=pricing)
        (b,) = struct.blocks
        graph = b.graph
        owners = graph["owners"]
        back = next(lj for (_i, j, (k, m), lj) in graph["sends"]
                    if k == m and j == owners[k])
        w = [Fraction(1)] * len(b.var_idx)
        assert _tree_price(graph, w) == ("none",)
        w[back] = Fraction(-1)
        assert _tree_price(graph, w) is None
        # through the master duals: a negative dual on that arc's edge row
        edge_pos = next(pos for pos, c in b.master_coefs[back]
                        if lp.constraints[struct.master_rows[pos]]
                        .name.startswith("edge["))
        pricer = _BlockPricer(b)
        res = pricer.price({edge_pos: Fraction(-1)})
        assert pricer.dijkstra_bailed
        assert res[0] == "col" and res[1] < 0

    def test_reduce_scatter_colgen_prices_every_block_by_tree(self):
        """Every block tree-priced, no LP pricing, the exact optimum."""
        from repro.core.reduce_scatter import ReduceScatterProblem

        g = gen.heterogenize(gen.complete(4), seed=3)
        problem = ReduceScatterProblem(g, g.compute_nodes())
        spec = get_collective("reduce-scatter")
        lp = spec.build_lp(problem)
        sol = solve_colgen(lp, pricing=spec.pricing_graphs(problem))
        assert sol.optimal and sol.stats["rounds"] >= 2
        assert sol.stats["tree_blocks"] == sol.stats["blocks"] == 4
        assert sol.stats["lp_blocks"] == {"no descriptor": 0,
                                          "declined": 0}
        assert sol.objective == ExactSimplexSolver().solve(lp).objective

    @pytest.mark.parametrize("trial", range(4))
    def test_random_reduce_matches_tableau(self, trial):
        lp, pricing = _tree_lp("reduce", SEED + 100 + trial)
        sol = solve_colgen(lp, pricing=pricing)
        assert sol.optimal and sol.stats["tree_blocks"] == 1
        assert sol.stats["dijkstra_fallbacks"] == 0
        assert sol.objective == ExactSimplexSolver().solve(lp).objective
        assert lp.check_feasible(sol.values, tol=0) == []

    def test_composite_prefixes_tree_descriptors(self):
        lp, pricing = _tree_lp("pipelined", SEED)
        trees = [g for g in pricing if g.get("kind") == "tree"]
        assert len(trees) == 3
        for g in trees:
            for item in g["sends"] + g["tasks"]:
                assert item[-1].startswith("s0:")
        struct = detect(lp, pricing=pricing)
        assert sum(1 for b in struct.blocks if b.graph is not None
                   and b.graph["kind"] == "tree") == 3


class TestDifferential:
    @pytest.mark.parametrize("trial", range(6))
    def test_random_scatter_matches_tableau(self, trial):
        rng = random.Random(SEED + trial)
        g = gen.heterogenize(
            gen.random_connected(rng.randint(4, 7),
                                 extra_edges=rng.randint(1, 4),
                                 seed=SEED + trial),
            seed=trial)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        colgen = solve_colgen(lp)
        tableau = ExactSimplexSolver().solve(lp)
        assert colgen.optimal and tableau.optimal
        assert colgen.exact
        assert colgen.objective == tableau.objective
        assert lp.check_feasible(colgen.values, tol=0) == []

    def test_two_block_lp_exact_optimum(self):
        # by hand: both commodities run at TP, the shared link carries
        # 2*TP per commodity's (a, b) pair -> 4*TP <= 1 -> TP = 1/4
        sol = solve_colgen(_two_block_lp())
        assert sol.optimal and sol.objective == Fraction(1, 4)
        assert sol.stats["blocks"] == 2
        assert sol.stats["rounds"] >= 1

    def test_unbounded_transfers(self):
        # without the capacity row TP is unbounded above
        lp = _two_block_lp(capacity=False)
        assert solve_colgen(lp).status is SolveStatus.UNBOUNDED


class TestDeterminism:
    def test_repeated_solves_are_identical(self):
        """Two serial solves of a multi-round instance: identical
        solution values, admitted column set and round/pricing counters
        (pricing state lives in one solve's pricers, never across
        solves).  A seeded ring scatter converges in the seed round, so
        this instance is a complete graph."""
        g = gen.heterogenize(gen.complete(6), seed=3)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        base, again = solve_colgen(lp), solve_colgen(lp)
        assert base.optimal and base.stats["rounds"] >= 2
        assert again.values == base.values
        for key in ("columns_digest", "rounds", "columns",
                    "columns_priced", "seed_columns"):
            assert again.stats[key] == base.stats[key], key

    @pytest.mark.parametrize("failure", ["float solve", "support solve"])
    def test_exact_fallback_after_a_certified_price_out(self, monkeypatch,
                                                        failure):
        """With no descriptors, the 157-variable reduce-scatter blocks
        price by LP, float-first, and cache price-out certificates.  When
        a later round's float pricing gives out (HiGHS fails after 16
        solves, or the exact solve on the float support never prices
        negative), the full exact LP prices the block, warm-started from
        a tableau basis only — never from the certificate."""
        from repro.core.allreduce import AllReduceProblem

        g = gen.heterogenize(gen.complete(4), seed=1)
        lp = get_collective("all-reduce").build_lp(
            AllReduceProblem(g, g.compute_nodes()), "pipelined")
        assert max(len(b.var_idx) for b in detect(lp).blocks) == 157
        if failure == "float solve":
            real, calls = colgen_mod._linprog, [0]

            def linprog(*args, **kwargs):
                calls[0] += 1
                if calls[0] > 16:
                    return SimpleNamespace(status=4, success=False)
                return real(*args, **kwargs)

            monkeypatch.setattr(colgen_mod, "_linprog", linprog)
        else:
            real = _BlockPricer._restricted_exact
            monkeypatch.setattr(
                _BlockPricer, "_restricted_exact",
                lambda self, w, support, want_any:
                    real(self, w, support, want_any) if want_any else None)
        sol = solve_colgen(lp)
        assert sol.optimal and sol.exact
        assert sol.objective == Fraction(1, 20)
        assert lp.check_feasible(sol.values, tol=0) == []


class TestFallbacksAndRouting:
    def test_minimization_falls_back(self):
        lp = LinearProgram("mini")
        x = lp.var("x", ub=4)
        lp.add(x >= 1, name="lo")
        lp.minimize(x * 1)
        sol = solve_colgen(lp)
        assert sol.optimal and sol.objective == 1
        assert sol.stats["fallback"] == "minimize"
        assert sol.backend == "colgen"

    def test_no_blocks_falls_back(self):
        lp = LinearProgram("flat")
        x, y = lp.var("x", ub=2), lp.var("y", ub=3)
        lp.add(x + y <= 4, name="cap")
        lp.maximize(x + y)
        sol = solve_colgen(lp)
        assert sol.optimal and sol.objective == 4
        assert sol.stats["fallback"] == "no blocks"

    def test_infeasible_master_falls_back(self):
        # the block cone only contains the zero ray (a == 0 == b), so
        # the seed round cannot populate the demand row and the round-0
        # master is infeasible -> direct fallback diagnoses the full LP
        lp = LinearProgram("infeas")
        tp = lp.var("TP")
        a, b = lp.var("a"), lp.var("b")
        lp.add(a + b == 0, name="cons[0]")
        lp.add(a - b == 0, name="cons[1]")
        lp.add(a + b >= 1, name="demand")
        lp.add(tp - a <= 0, name="alpha[0]")
        lp.maximize(tp)
        sol = solve_colgen(lp)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.stats["fallback"] == "master infeasible"

    def test_float_lp_rejected(self):
        lp = LinearProgram("float")
        x = lp.var("x", ub=1.5)
        lp.maximize(x * 1)
        with pytest.raises(ValueError, match="colgen requires"):
            solve_colgen(lp)

    def test_dispatch_backend_colgen_matches_exact(self):
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        exact = dispatch.solve(lp, backend="exact", cache=False)
        colgen = dispatch.solve(lp, backend="colgen", cache=False)
        assert colgen.exact and colgen.objective == exact.objective
        assert colgen.stats["engine"] == "colgen"
        # the PR 8 var-count contract: both sides recorded, and colgen
        # bypasses presolve so they coincide
        assert colgen.stats["vars_raw"] == lp.num_vars()
        assert colgen.stats["vars_presolved"] == lp.num_vars()

    def test_dispatch_accepts_only_serial_jobs(self):
        """``jobs`` survives only as ``jobs=1``: pricing is serial."""
        lp = _two_block_lp()
        sol = dispatch.solve(lp, backend="colgen", cache=False, jobs=1)
        assert sol.optimal and sol.objective == Fraction(1, 4)
        with pytest.raises(ValueError, match="jobs=2"):
            dispatch.solve(lp, backend="colgen", cache=False, jobs=2)

    def test_auto_routes_to_colgen_above_limit(self, monkeypatch):
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", 10)
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        sol = dispatch.solve(lp, backend="auto", cache=False)
        assert sol.exact and sol.stats["engine"] == "colgen"

    def test_auto_colgen_route_never_presolves(self, monkeypatch):
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        exact = dispatch.solve(lp, backend="exact", cache=False)

        def no_presolve(*_a, **_k):
            raise AssertionError("the colgen route must not presolve")

        monkeypatch.setattr(dispatch, "run_presolve", no_presolve)
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", 10)
        sol = dispatch.solve(lp, backend="auto", cache=False)
        assert sol.exact and sol.objective == exact.objective
        assert sol.stats["route"] == "colgen"
        assert sol.stats["route_reason"].startswith(
            f"raw {lp.num_vars()} vars > COLGEN_VAR_LIMIT")
        assert sol.stats["vars_presolved"] == sol.stats["vars_raw"] \
            == lp.num_vars()

    def test_cached_colgen_hit_equals_fresh_solve(self, monkeypatch):
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", 10)
        lp, graphs = _decomposable_lp("ring")
        fresh = dispatch.solve(lp, pricing=graphs, cache=False)
        dispatch.clear_cache()
        first = dispatch.solve(lp, pricing=graphs, cache=True)

        def no_solve(*_a, **_k):
            raise AssertionError("a cached solve must not re-run colgen")

        monkeypatch.setattr(dispatch.colgen_mod, "_solve_structured",
                            no_solve)
        hit = dispatch.solve(lp, pricing=graphs, cache=True)
        dispatch.clear_cache()
        assert hit.lp is lp and hit.stats is first.stats
        for sol in (first, hit):
            assert sol.objective == fresh.objective
            assert sol.values == fresh.values
            for key in ("route", "route_reason", "columns_digest",
                        "vars_raw", "vars_presolved"):
                assert sol.stats[key] == fresh.stats[key], key

    def test_one_tree_priced_block_routes_to_colgen(self, monkeypatch):
        """A reduce LP is one block: above the limit it takes the colgen
        route only when that block prices by the tree DP."""
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", 10)
        lp, pricing = _tree_lp("reduce", SEED)
        sol = dispatch.solve(lp, pricing=pricing, cache=False)
        assert sol.stats["route"] == "colgen"
        assert sol.stats["route_reason"].endswith(
            "1 block priced combinatorially")
        assert sol.stats["lp_blocks"] == {"no descriptor": 0, "declined": 0}
        plain = dispatch.solve(lp, cache=False)
        assert plain.stats["route"] == "tableau"
        assert plain.stats["route_reason"].startswith("1 block; ")
        assert sol.objective == plain.objective

    def test_every_route_is_stamped(self, monkeypatch):
        lp = _two_block_lp()
        cases = {"exact": ("tableau", "vars <= TABLEAU_VAR_LIMIT"),
                 "auto": ("tableau", "vars <= TABLEAU_VAR_LIMIT"),
                 "tableau": ("tableau", "backend='tableau'"),
                 "revised": ("revised", "backend='revised'"),
                 "highs": ("highs", "backend='highs'"),
                 "colgen": ("colgen", "backend='colgen'")}
        for backend, (route, reason) in cases.items():
            sol = dispatch.solve(lp, backend=backend, cache=False)
            assert sol.stats["route"] == route, backend
            assert reason in sol.stats["route_reason"], backend
        # above the limit, a model without >= 2 blocks presolves and
        # records why colgen was passed over
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", 1)
        flat = LinearProgram("flat")
        x, y = flat.var("x", ub=2), flat.var("y", ub=3)
        flat.add(x + y <= 4, name="cap")
        flat.maximize(x + y)
        sol = dispatch.solve(flat, cache=False)
        assert sol.stats["route"] == "tableau"
        assert sol.stats["route_reason"].startswith("no blocks; ")
        # above the cut-over "exact"/"auto" take the revised engine,
        # canonical solves stay on the tableau
        monkeypatch.setattr(dispatch, "TABLEAU_VAR_LIMIT", 1)
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", lp.num_vars())
        for backend in ("exact", "auto"):
            sol = dispatch.solve(lp, backend=backend, cache=False)
            assert sol.stats["route"] == "revised", backend
            assert sol.stats["route_reason"].endswith(
                "vars > TABLEAU_VAR_LIMIT"), backend
            sol = dispatch.solve(lp, backend=backend, cache=False,
                                 canonical=True)
            assert sol.stats["route"] == "tableau", backend
            assert sol.stats["route_reason"] == "canonical", backend

    def test_incompatible_flags_rejected(self):
        lp = _two_block_lp()
        with pytest.raises(ValueError):
            dispatch.solve(lp, backend="colgen", canonical=True,
                           cache=False)


class TestIncrementalMaster:
    def test_spliced_column_matches_full_rebuild(self):
        """A zero-objective column spliced into the live core must land
        on the same optimum as rebuilding the master from scratch."""
        lp = LinearProgram("master")
        tp = lp.var("TP")
        c0 = lp.var("col0")
        lp.add(tp - c0 <= 0, name="alpha[0]")
        lp.add(c0 + tp * 0 <= 1, name="edge[cap]")
        lp.maximize(tp)
        inc = IncrementalColumnMaster(lp, RevisedSimplexSolver())
        res = inc.solve_full()
        assert res.optimal and res.objective == 1

        # a second column relaxes alpha[0] twice as fast as it spends
        # capacity -> optimum moves to TP = 2
        res2 = inc.add_and_resolve([("col1", {0: Fraction(-2),
                                              1: Fraction(1)})])
        assert res2 is not None and res2.optimal
        assert res2.objective == 2
        assert res2.values.get("col1") == 1

        rebuilt = LinearProgram("rebuilt")
        tp = rebuilt.var("TP")
        c0, c1 = rebuilt.var("col0"), rebuilt.var("col1")
        rebuilt.add(tp - c0 - 2 * c1 <= 0, name="alpha[0]")
        rebuilt.add(c0 + c1 <= 1, name="edge[cap]")
        rebuilt.maximize(tp)
        full = IncrementalColumnMaster(rebuilt,
                                       RevisedSimplexSolver()).solve_full()
        assert full.optimal and full.objective == res2.objective
