"""The unified collective pipeline: spec protocol and shared solution.

The paper's method is one pipeline regardless of the collective:

    build the steady-state LP  ->  solve it (exactly when possible)
    ->  post-process the rate flows  ->  reconstruct a periodic schedule
    ->  simulate and validate

A :class:`CollectiveSpec` packages the collective-specific plug-in points
of that pipeline — problem validation, LP builder, variable-name codec,
solution extraction, schedule reconstruction, simulator item semantics —
so the generic orchestrator (:func:`repro.collectives.solve_collective`)
can run any registered collective.  Adding a collective means writing one
spec subclass and registering it; see ``repro/collectives/reduce_scatter.py``
for a complete example and ROADMAP.md for the how-to.

:class:`CollectiveSolution` is the one solution type behind the historical
``ScatterSolution``/``ReduceSolution``/``GossipSolution``/``PrefixSolution``
names: rates (``send``), optional task rates (``cons``), optional path
decompositions (``paths``), exactness metadata, and shared
``edge_occupation()``/``verify()`` that dispatch through the spec.

:class:`CompositeCollectiveSpec` is the composition layer on top: a
collective defined as a list of *registered stages* sharing the one-port /
alpha capacities.  Three composition modes exist:

- ``"joint"`` — all stages run concurrently at one common ``TP``;
  :func:`compose_joint_lp` merges the stage LPs into a single LP whose
  capacity rows (``edge[..]``/``out[..]``/``in[..]``/``alpha[..]`` — the
  naming convention every builder follows) sum over all stages.
  All-gather rides this mode as one broadcast stage per block.
- ``"sequential"`` — stages run as consecutive phases of a pipelined
  steady state; each stage is solved on its own and the composed
  throughput is the harmonic combination ``1 / sum(1 / TP_k)``.
  All-reduce rides this mode as reduce-scatter followed by all-gather.
- ``"pipelined"`` — the joint mode for *chained* stages: all stages run
  concurrently at one common ``TP`` like ``"joint"``, but stage ``k+1``
  consumes what stage ``k`` produces, so the spec's
  :meth:`CompositeCollectiveSpec.chain_constraints` hook emits
  cross-stage precedence rows (:class:`ChainRow`, named ``chain[..]`` —
  a prefix :mod:`repro.lp.presolve` protects) into the joint LP, the
  schedule is retimed so chained items land before they depart
  (:func:`repro.core.schedule.retime_for_chaining`), and the simulator
  credit-gates the chained supplies
  (:meth:`CompositeCollectiveSpec.chain_links`).  Because any sequential
  solution — each stage scaled by its phase fraction — is feasible for
  the joint LP, ``TP_pipelined >= TP_sequential`` always holds, with
  strict improvement whenever the phases stress different links or CPUs.
  All-reduce supports this as its overlapped third mode
  (``solve_collective(problem, mode="pipelined")``).

Either way the composite is an ordinary registered collective: the
orchestrator, schedule superposition/concatenation
(:mod:`repro.core.schedule`), the simulator's stage-semantics chaining
(:func:`repro.sim.executor.chain_semantics`), the rates table and the CLI
all work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.lp import LinearProgram, LPSolution
from repro.lp.model import LE, Constraint, LinExpr
from repro.platform.graph import NodeId

if TYPE_CHECKING:  # flowclean sits under repro.core, whose package
    # __init__ imports the problem modules that subclass
    # CollectiveSolution — importing it eagerly here would be circular
    from repro.core.flowclean import FlowPass

Item = Hashable
EdgeKey = Tuple[NodeId, NodeId]

#: Zero threshold for flows read off a float (HiGHS) optimum; rates at or
#: below it are solver noise.  Exact optima are cleaned with threshold 0.
FLOAT_EPS = 1e-9


@dataclass
class CollectiveSolution:
    """Solved steady-state collective: throughput plus cleaned rates.

    ``send`` maps spec-defined keys (always starting with the edge
    ``(src, dst)``) to steady-state rates; ``cons`` maps task keys to task
    rates for computing collectives; ``paths`` holds per-commodity weighted
    path decompositions when the cleaning pipeline produced them.
    ``collective`` names the spec that built (and can interpret) this
    solution.
    """

    problem: object
    throughput: object
    send: Dict[tuple, object]
    lp_solution: LPSolution
    exact: bool
    paths: Optional[Dict[object, List[Tuple[List[NodeId], object]]]] = None
    cons: Optional[Dict[tuple, object]] = None
    trees: Optional[object] = None
    collective: str = ""
    #: Nodes dropped by the graceful-degradation policy before solving
    #: (``solve_collective(..., on_infeasible="degrade")``); empty for a
    #: full-strength solve.
    sacrificed: Tuple[NodeId, ...] = ()

    @property
    def spec(self) -> "CollectiveSpec":
        from repro.collectives.registry import get_collective

        return get_collective(self.collective)

    def edge_occupation(self) -> Dict[EdgeKey, object]:
        """Busy fraction of every used edge: ``sum rate * unit_time``."""
        spec = self.spec
        occ: Dict[EdgeKey, object] = {}
        for key, f in self.send.items():
            e = spec.send_edge(key)
            occ[e] = occ.get(e, 0) + f * spec.send_unit_time(self.problem, key)
        return occ

    def verify(self, tol=0) -> List[str]:
        """Exact re-check of the collective's steady-state invariants on
        the cleaned rates; empty list == all hold."""
        return self.spec.verify(self, tol=tol)

    def alpha(self, node: NodeId) -> object:
        """Fraction of time ``node`` spends computing (0 when ``cons`` is
        empty — pure-communication collectives never compute)."""
        if not self.cons:
            return 0
        spec = self.spec
        return sum((r * spec.cons_unit_time(self.problem, key)
                    for key, r in self.cons.items()
                    if spec.cons_node(key) == node), 0)


@dataclass
class SimSemantics:
    """Simulator item semantics of one collective's schedules.

    ``supplies`` maps ``(node, item)`` to a stamped-instance factory,
    ``expected`` checks delivered payloads, ``combine`` is the binary
    operator for compute tasks (``None`` for pure communication).
    """

    supplies: Dict[Tuple[NodeId, Item], object]
    expected: Optional[object] = None
    combine: Optional[object] = None


class CollectiveSpec:
    """Plug-in points of the unified pipeline for one collective.

    Subclasses must set :attr:`name`, :attr:`title`, :attr:`problem_type`,
    :attr:`solution_type` and implement the LP/codec/verify hooks.  The
    extraction loop, schedule dispatch and CLI wiring are shared.
    """

    #: Registry key (CLI subcommand name).
    name: str = ""
    #: Human-readable description shown by ``repro collectives``.
    title: str = ""
    #: Problem dataclass this spec solves.
    problem_type: type = object
    #: Solution class :meth:`finalize` instantiates.
    solution_type: type = CollectiveSolution
    #: Whether :meth:`build_schedule` / :meth:`simulation` are implemented.
    has_schedule: bool = True
    #: Eligible for problem-type resolution.  Specs sharing another
    #: collective's problem type (prefix rides ReduceProblem) set this
    #: False and are only reachable by name — keeps resolution
    #: independent of registration/import order.
    resolve_by_type: bool = True
    #: Simulator op-counting mode (see ``PeriodicSchedule.delivery_mode``),
    #: applied to built schedules by ``schedule_collective`` whenever
    #: ``build_schedule`` did not pin one itself; ``None`` keeps the
    #: legacy inference (sum iff compute tasks exist).
    delivery_mode: Optional[str] = None

    # ------------------------------------------------------------------
    # problem / LP
    # ------------------------------------------------------------------
    def validate(self, problem) -> None:
        """Raise ``ValueError`` for ill-formed problems.  The problem
        constructors already validate; this re-checks the type."""
        if not isinstance(problem, self.problem_type):
            raise ValueError(
                f"{self.name} expects a {self.problem_type.__name__}, "
                f"got {type(problem).__name__}")

    def build_lp(self, problem) -> LinearProgram:
        raise NotImplementedError

    def solve(self, problem, backend: str = "auto", passes=None,
              **solve_kwargs) -> "CollectiveSolution":
        """The default solve pipeline: build the LP, solve, extract.

        :func:`repro.collectives.solve_collective` dispatches here, so a
        spec whose collective is *not* one LP (sequential composites)
        overrides this hook and still rides the one orchestrator path.
        ``solve_kwargs`` reach :func:`repro.lp.solve`.
        """
        from repro.lp import solve as lp_solve

        lp = self.build_lp(problem)
        solve_kwargs.setdefault("pricing", self.pricing_graphs(problem))
        sol = lp_solve(lp, backend=backend, **solve_kwargs)
        if not sol.optimal:
            raise RuntimeError(f"LP solve failed: {sol.status}")
        tol = 0 if sol.exact else FLOAT_EPS
        if passes is None:
            passes = self.default_passes()
        return self.extract(problem, lp, sol, tol, passes)

    # ------------------------------------------------------------------
    # variable-name codec + commodity structure
    # ------------------------------------------------------------------
    def commodities(self, problem) -> Sequence[object]:
        """Commodity keys whose flows are extracted and cleaned."""
        raise NotImplementedError

    def commodity_var(self, problem, commodity, i: NodeId, j: NodeId) -> str:
        """LP variable name of ``commodity``'s rate on edge ``(i, j)``."""
        raise NotImplementedError

    def commodity_endpoints(self, problem, commodity) -> Optional[Tuple[NodeId, NodeId]]:
        """``(source, sink)`` for routed commodities, ``None`` for
        interval-style commodities (many producers/consumers)."""
        return None

    def pricing_graphs(self, problem) -> Optional[tuple]:
        """Per-commodity pricing descriptors for Dantzig-Wolfe column
        generation (:mod:`repro.lp.colgen`), which prices a matched
        block combinatorially instead of by a pricing LP.  Two kinds:

        - a *path* graph ``{"source", "sink", "arcs"}`` with arcs as
          ``(i, j, variable name)`` — exact-dual shortest paths;
        - a *reduction tree* ``{"kind": "tree", "target", "owners",
          "n", "sends", "tasks"}``: ``owners[k]`` holds leaf ``v[k,k]``,
          sends are ``(i, j, (k, m), variable name)`` and tasks
          ``(node, (k, l, m), variable name)`` — the exact
          ``(node, interval)`` dynamic program over reduction trees
          (:func:`repro.core.reduce_op.reduction_tree_graph` builds one).

        The default covers every *routed* commodity
        (:meth:`commodity_endpoints` not ``None``) with a path graph of
        the commodity's rate variable on each platform edge — names
        absent from the LP are ignored by the matcher, and descriptors
        that do not line up with a detected block simply leave it on the
        LP pricer, so the default is safe for any spec.  Returns
        ``None`` when no commodity is routed (colgen then prices all
        blocks by LP); the reduce specs override it with trees.
        """
        try:
            commodities = self.commodities(problem)
        except NotImplementedError:
            return None
        edges = [(e.src, e.dst) for e in problem.platform.edges()]
        graphs = []
        for c in commodities:
            ep = self.commodity_endpoints(problem, c)
            if ep is None:
                continue
            graphs.append({
                "source": ep[0], "sink": ep[1],
                "arcs": tuple((i, j, self.commodity_var(problem, c, i, j))
                              for (i, j) in edges)})
        return tuple(graphs) if graphs else None

    def send_key(self, commodity, i: NodeId, j: NodeId) -> tuple:
        """Key of this commodity-on-edge rate in ``solution.send``."""
        raise NotImplementedError

    def send_edge(self, key: tuple) -> EdgeKey:
        """Edge of a ``send`` key (default: first two components)."""
        return (key[0], key[1])

    def send_unit_time(self, problem, key: tuple) -> object:
        """Edge occupation time of one unit of this rate."""
        raise NotImplementedError

    # task rates (computing collectives only)
    def cons_node(self, key: tuple) -> NodeId:
        return key[0]

    def cons_unit_time(self, problem, key: tuple) -> object:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # solution extraction
    # ------------------------------------------------------------------
    def default_passes(self) -> Tuple["FlowPass", ...]:
        """Flow post-processing pipeline (override per collective)."""
        from repro.core.flowclean import CleanCommodityPass, PruneEpsilonRatesPass

        return (PruneEpsilonRatesPass(), CleanCommodityPass())

    def extract(self, problem, lp: LinearProgram, sol: LPSolution,
                tol, passes: Sequence["FlowPass"]) -> CollectiveSolution:
        """Generic extraction: per commodity, gather the flow by variable
        name, run the pass pipeline, and assemble ``send``/``paths``."""
        from repro.core.flowclean import FlowContext, run_passes

        tp = sol.by_name("TP")
        g = problem.platform
        send: Dict[tuple, object] = {}
        paths: Dict[object, List[Tuple[List[NodeId], object]]] = {}
        for c in self.commodities(problem):
            flow: Dict[EdgeKey, object] = {}
            for e in g.edges():
                name = self.commodity_var(problem, c, e.src, e.dst)
                try:
                    var = lp.get(name)
                except KeyError:
                    continue
                f = sol.value(var)
                if f:
                    flow[(e.src, e.dst)] = f
            endpoints = self.commodity_endpoints(problem, c)
            src, sink = endpoints if endpoints else (None, None)
            ctx = FlowContext(commodity=c, flow=flow, source=src, sink=sink,
                              demand=tp, eps=tol)
            run_passes(passes, ctx)
            if ctx.paths is not None:
                paths[c] = ctx.paths
            for (i, j), f in ctx.flow.items():
                send[self.send_key(c, i, j)] = f
        return self.finalize(problem, tp, send, paths if paths else None,
                             lp, sol, tol)

    def finalize(self, problem, throughput, send, paths,
                 lp: LinearProgram, sol: LPSolution, tol) -> CollectiveSolution:
        """Build the solution object (override to extract task rates)."""
        return self.solution_type(problem=problem, throughput=throughput,
                                  send=send, paths=paths, lp_solution=sol,
                                  exact=sol.exact, collective=self.name)

    # ------------------------------------------------------------------
    # invariants / schedule / simulation
    # ------------------------------------------------------------------
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        raise NotImplementedError

    def build_schedule(self, solution: CollectiveSolution):
        raise NotImplementedError(
            f"{self.name} has no schedule reconstruction")

    def rate_bundle(self, solution: CollectiveSolution):
        """The solution's steady-state traffic as a
        :class:`repro.core.schedule.RateBundle` — the currency of schedule
        superposition.  Specs that implement it can serve as stages of a
        *joint* composite (their bundles are merged into one period);
        sequential composites only need :meth:`build_schedule`."""
        raise NotImplementedError(
            f"{self.name} does not expose a rate bundle")

    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        """Item semantics for :func:`repro.sim.executor.simulate_collective`."""
        raise NotImplementedError(
            f"{self.name} has no simulator semantics")

    # ------------------------------------------------------------------
    # reporting / CLI
    # ------------------------------------------------------------------
    def rate_rows(self, solution: CollectiveSolution):
        """``(headers, rows)`` for the send-rates table."""
        rows = [(f"{k[0]} -> {k[1]}", self.format_commodity(k), v)
                for k, v in sorted(solution.send.items(), key=str)]
        return ["edge", "type", "rate"], rows

    def format_commodity(self, send_key: tuple) -> str:
        return str(send_key[2:])

    def add_arguments(self, parser) -> None:
        """Add collective-specific CLI options to a solve subcommand."""
        raise NotImplementedError

    def problem_from_args(self, platform, args):
        """Build the problem from parsed CLI arguments."""
        raise NotImplementedError

    def conformance_problem(self, platform, hosts, rng):
        """A representative problem for the cross-collective conformance
        suite (``tests/conformance/``): given a generated platform, its
        compute ``hosts`` (at least two) and a seeded ``rng``, return a
        problem instance to round-trip on both LP backends — or ``None``
        when the platform does not fit this collective.  Implementing
        this is enough for a newly registered collective to be picked up
        by the suite automatically."""
        return None

    def report(self, solution: CollectiveSolution) -> str:
        """CLI body printed after the throughput line."""
        from repro.viz.tables import rates_table

        return rates_table(solution)

    def tp_suffix(self, problem, solution=None) -> str:
        """Extra text appended to the CLI throughput line."""
        return ""

    def ops_bound_factor(self, problem) -> int:
        """Completed-ops bound multiplier over ``TP * horizon``.

        ``SimulationResult.completed_ops`` sums independent delivery
        streams for computing collectives; specs with several TP-rate
        stream groups (reduce-scatter: one per block) override this so
        reported bounds match that counting."""
        return 1

    # shared simulator plumbing: stamped leaf-value supplies for
    # computing collectives (items tagged ("val", (j, j), <stream>))
    def _leaf_value_supplies(self, schedule, problem, op):
        items = set()
        for slot in schedule.slots:
            for tr in slot.transfers:
                items.add(tr.item)
        for _node, tasks in schedule.compute.items():
            for ct in tasks:
                items.add(ct.output)
                items.update(ct.inputs)
        supplies = {}
        for item in items:
            tag, interval = item[0], item[1]
            if tag == "val" and interval[0] == interval[1]:
                j = interval[0]
                supplies[(problem.owner(j), item)] = \
                    (lambda jj: (lambda seq: op.leaf(jj, seq)))(j)
        return supplies

    # shared port-capacity checks used by most verify() implementations
    def _port_violations(self, solution: CollectiveSolution, tol) -> List[str]:
        bad: List[str] = []
        occ = solution.edge_occupation()
        out_t: Dict[NodeId, object] = {}
        in_t: Dict[NodeId, object] = {}
        for (i, j), o in occ.items():
            out_t[i] = out_t.get(i, 0) + o
            in_t[j] = in_t.get(j, 0) + o
            if o > 1 + tol:
                bad.append(f"edge[{i}->{j}] occupation {o} > 1")
        for p, o in out_t.items():
            if o > 1 + tol:
                bad.append(f"out[{p}] {o} > 1")
        for p, o in in_t.items():
            if o > 1 + tol:
                bad.append(f"in[{p}] {o} > 1")
        return bad

    def __repr__(self) -> str:
        return f"<CollectiveSpec {self.name!r}>"


def send_balance(send: Dict[tuple, object]):
    """Per-``(node, commodity)`` inflow and outflow of rates keyed
    ``(i, j, commodity)``, accumulated in one pass over ``send`` (in its
    iteration order, so each total equals the filtered ``sum``)."""
    inflow: Dict[tuple, object] = {}
    outflow: Dict[tuple, object] = {}
    for (i, j, c), f in send.items():
        inflow[(j, c)] = inflow.get((j, c), 0) + f
        outflow[(i, c)] = outflow.get((i, c), 0) + f
    return inflow, outflow


def task_balance(cons: Dict[tuple, object]):
    """Per-``(node, interval)`` production and consumption of the
    reduction-task rates ``cons`` (keyed ``(node, task)``), accumulated
    in one pass."""
    from repro.core import intervals as iv

    produced: Dict[tuple, object] = {}
    consumed: Dict[tuple, object] = {}
    for (h, t), r in cons.items():
        out = (h, iv.task_output(t))
        produced[out] = produced.get(out, 0) + r
        for interval in iv.task_inputs(t):
            consumed[(h, interval)] = consumed.get((h, interval), 0) + r
    return produced, consumed


# ----------------------------------------------------------------------
# the composition layer
# ----------------------------------------------------------------------

#: Constraint-name prefixes every LP builder uses for the shared platform
#: capacities; :func:`compose_joint_lp` merges rows with equal names
#: across stages (summing their occupation expressions).
CAPACITY_PREFIXES = ("edge[", "out[", "in[", "alpha[")



def add_capacity_rows(lp: LinearProgram, g, occ: Dict[EdgeKey, tuple]) -> None:
    """Add the one-port rows the builders share, each ``<= 1``:
    ``edge[i->j]`` per entry of ``occ`` (an edge's occupation as
    ``(columns, coefficients)``), then ``out[p]`` and ``in[p]`` per node,
    summing the occupations of its outgoing and incoming edges."""
    for (i, j), (cols, coefs) in occ.items():
        lp.add_row(cols, coefs, LE, 1, f"edge[{i}->{j}]")
    for p in g.nodes():
        for name, arcs in (("out", [(p, q) for q in g.successors(p)]),
                           ("in", [(q, p) for q in g.predecessors(p)])):
            if arcs:
                lp.add_row([j for a in arcs for j in occ[a][0]],
                           [c for a in arcs for c in occ[a][1]],
                           LE, 1, f"{name}[{p}]")


#: Constraint-name prefix of cross-stage coupling rows.  Part of the
#: composition contract: :mod:`repro.lp.presolve` never eliminates a row
#: carrying this prefix (see ``PROTECTED_ROW_PREFIXES`` there), so the
#: chaining structure survives into the reduced model and the postsolved
#: solution demonstrably satisfies every coupling row.
CHAIN_PREFIX = "chain["

#: Modes a :class:`CompositeCollectiveSpec` understands.
COMPOSITION_MODES = ("joint", "sequential", "pipelined")


@dataclass(frozen=True)
class ChainRow:
    """One cross-stage coupling row of a pipelined joint LP.

    ``terms`` are ``(stage index, stage-local variable name, coef)``
    triples (``"TP"`` addresses the shared throughput variable); the row
    reads ``sum(coef * var) <sense> rhs``.  ``name`` must carry
    :data:`CHAIN_PREFIX` so presolve protects it.  The canonical use is a
    precedence row *consumption rate <= production rate*: positive
    coefficients on the consuming stage's source outflow, ``-1`` on the
    producing stage's delivery expression, ``<= 0``.
    """

    name: str
    terms: Tuple[Tuple[int, str, object], ...]
    sense: str = LE
    rhs: object = 0


def compose_joint_lp(name: str, stage_lps: Sequence[LinearProgram],
                     chain_rows: Sequence[ChainRow] = ()) -> LinearProgram:
    """One LP running every stage concurrently at a common throughput.

    Each stage LP's variables are copied under a ``s{k}:`` prefix except
    ``TP``, which all stages share; per-stage structural constraints
    (conservation, throughput, content domination, ...) are copied with
    prefixed names, while the capacity rows named by
    :data:`CAPACITY_PREFIXES` — all of the normalized form
    ``occupation - 1 <= 0`` — are summed across stages, expressing that
    the stages compete for the same ports, edges and CPU time.  Stages
    must therefore be built over the same platform.

    Rows are copied as integer rows with a column offset; a summed
    capacity row adds the stages' numerators over the least common
    multiple of their denominators, its terms in first-seen order.

    ``chain_rows`` add cross-stage coupling (:class:`ChainRow`) on top of
    the shared capacities — the pipelined composition's inter-stage
    precedence/flow-balance rows.  Every row name must start with
    :data:`CHAIN_PREFIX` and may reference variables of any stage.
    """
    joint = LinearProgram(name)
    tp = joint.var("TP").index
    # capacity row name -> [den, {joint column: numerator over den}]
    shared: Dict[str, list] = {}
    exact = all(slp.is_rational() for slp in stage_lps)
    for k, slp in enumerate(stage_lps):
        mapping = [tp if v.name == "TP" else
                   joint.var(f"s{k}:{v.name}", lb=v.lb, ub=v.ub).index
                   for v in slp.variables]
        indptr = slp.indptr
        for i, cname in enumerate(slp.names):
            lo, hi = indptr[i], indptr[i + 1]
            cols = [mapping[j] for j in slp.cols[lo:hi]]
            if cname.startswith(CAPACITY_PREFIXES):
                if slp.senses[i] != LE or slp.row_rhs(i) != 1:
                    raise ValueError(
                        f"stage {k}: capacity row {cname!r} is not of "
                        "the normalized 'occupation <= 1' form")
                acc = shared.setdefault(cname, [1, {}])
                d = slp.dens[i]
                if acc[0] % d:          # widen the sum's denominator
                    scale = lcm(acc[0], d) // acc[0]
                    acc[0] *= scale
                    acc[1] = {j: c * scale for j, c in acc[1].items()}
                m, terms = acc[0] // d, acc[1]
                for j, c in zip(cols, slp.nums[lo:hi]):
                    terms[j] = terms.get(j, 0) + c * m
            elif exact:
                joint.add_int_row(cols, slp.nums[lo:hi], slp.dens[i],
                                  slp.rhs[i], slp.senses[i], f"s{k}:{cname}")
            else:
                joint.add_row(cols, [c for _, c in slp.row_items(i)],
                              slp.senses[i], slp.row_rhs(i), f"s{k}:{cname}")
    for cname, (den, terms) in shared.items():
        cols = [j for j, c in terms.items() if c]
        nums = [terms[j] for j in cols]
        if exact:
            g = gcd(den, *nums)
            joint.add_int_row(cols, [c // g for c in nums], den // g,
                              den // g, LE, cname)
        else:
            joint.add_row(cols, [c / den for c in nums], LE, 1, cname)
    for row in chain_rows:
        if not row.name.startswith(CHAIN_PREFIX):
            raise ValueError(f"chain row {row.name!r} must be named with "
                             f"the {CHAIN_PREFIX!r} prefix")
        expr = LinExpr()
        for k, vname, coef in row.terms:
            joint_name = "TP" if vname == "TP" else f"s{k}:{vname}"
            expr.add_term(joint.get(joint_name), coef)
        expr.constant = -row.rhs
        joint.add(Constraint(expr, row.sense), name=row.name)
    joint.maximize(joint.variables[tp])
    return joint


class _StageLPView:
    """:class:`~repro.lp.solution.LPSolution` façade exposing one stage's
    slice of a joint solve under the stage's own variable names."""

    def __init__(self, joint_sol: LPSolution, prefix: str,
                 stage_lp: LinearProgram) -> None:
        self._joint = joint_sol
        self._prefix = prefix
        self._lp = stage_lp
        self.exact = joint_sol.exact
        self.status = joint_sol.status
        self.backend = joint_sol.backend

    @property
    def optimal(self) -> bool:
        return self._joint.optimal

    def value(self, var):
        name = "TP" if var.name == "TP" else self._prefix + var.name
        try:
            return self._joint.by_name(name)
        except KeyError:
            return 0

    def by_name(self, name: str):
        return self.value(self._lp.get(name))


@dataclass
class CompositeSolution(CollectiveSolution):
    """Solved composite collective.

    ``stage_solutions[k]`` is stage ``k``'s full solution (its own type,
    verified by its own spec).  ``send[(i, j, k, *rest)]`` holds the
    composite view of stage ``k``'s rate keyed ``(i, j, *rest)`` — in
    sequential mode scaled by the stage's phase fraction ``TP / TP_k``,
    so :meth:`~CollectiveSolution.edge_occupation` is the long-run
    average and stays within the one-port budget in every mode.
    ``lp_solution`` is ``None`` for sequential composites (there is no
    single joint LP).  ``mode`` records which composition mode produced
    this solution (a spec can solve in several); empty means the spec's
    default — schedule reconstruction, reporting and verification all
    dispatch on it.
    """

    stage_solutions: Optional[List[CollectiveSolution]] = None
    mode: str = ""


class CompositeCollectiveSpec(CollectiveSpec):
    """A collective composed of registered stages over shared capacities.

    Subclasses set :attr:`mode` and implement :meth:`stages`; everything
    else — solving (joint LP or per-stage solves), extraction, verify,
    schedule (superposition or concatenation), simulation (chained stage
    semantics), rates table and CLI — is generic.  Any composite can be
    solved in a non-default mode per call
    (``solve_collective(problem, mode=...)``); ``"pipelined"`` behaves
    like ``"joint"`` plus whatever :meth:`chain_constraints` /
    :meth:`chain_links` the subclass declares (without them it degenerates
    to a plain joint solve).
    """

    solution_type = CompositeSolution
    #: Default composition mode: ``"joint"`` (stages share one period),
    #: ``"sequential"`` (stages are consecutive phases) or ``"pipelined"``
    #: (one period, chained stages overlapped).
    mode: str = "joint"
    delivery_mode = "sum"  # stage streams are independent TP-rate groups

    def stages(self, problem) -> Sequence[Tuple[str, object]]:
        """``[(registered stage collective name, stage problem), ...]``."""
        raise NotImplementedError

    def chain_constraints(self, problem,
                          stage_lps: Sequence[LinearProgram]) -> Sequence[ChainRow]:
        """Cross-stage coupling rows for the ``"pipelined"`` joint LP.

        Override to express that a stage's commodities source from
        another stage's sinks (e.g. all-reduce: each all-gather
        broadcast's source outflow is bounded by the reduce-scatter
        stage's delivery rate of that block).  Default: no coupling.
        """
        return ()

    def chain_links(self, solution: "CompositeSolution"):
        """Item-level precedence contracts for the pipelined schedule.

        Override to return :class:`repro.core.schedule.ChainLink`
        entries in the *composite* (stage-tagged) item namespace; the
        schedule is retimed around them and the simulator credit-gates
        the chained supplies.  Default: no links.
        """
        return ()

    def _mode_of(self, solution: CollectiveSolution) -> str:
        """The mode that produced ``solution`` (falls back to the spec
        default for solutions predating per-solve modes)."""
        return getattr(solution, "mode", "") or self.mode

    @staticmethod
    def _check_mode(mode: str) -> str:
        if mode not in COMPOSITION_MODES:
            raise ValueError(f"unknown composition mode {mode!r}; "
                             f"expected one of {COMPOSITION_MODES}")
        return mode

    def stage_specs(self, problem) -> List[Tuple["CollectiveSpec", object]]:
        """Resolved ``(stage spec, stage problem)`` pairs (memoized per
        problem instance — stage problems are rebuilt otherwise)."""
        memo = getattr(self, "_stage_memo", None)
        if memo is not None and memo[0] is problem:
            return memo[1]
        from repro.collectives.registry import get_collective

        resolved = [(get_collective(name), sub)
                    for name, sub in self.stages(problem)]
        self._stage_memo = (problem, resolved)
        return resolved

    def pricing_graphs(self, problem) -> Optional[tuple]:
        """Joint-LP pricing descriptors: every stage's own descriptors,
        of either kind, with the stage's ``s{k}:`` variable-name prefix
        applied (``TP`` never appears in them, so the prefix map is
        total)."""
        graphs = []
        for k, (spec, sub) in enumerate(self.stage_specs(problem)):
            for g in spec.pricing_graphs(sub) or ():
                g = dict(g)
                for key in ("arcs", "sends", "tasks"):
                    if key in g:
                        g[key] = tuple(item[:-1] + (f"s{k}:{item[-1]}",)
                                       for item in g[key])
                graphs.append(g)
        return tuple(graphs) if graphs else None

    def _stage_lps(self, problem) -> List[LinearProgram]:
        """Stage LPs, built once per problem instance — the joint solve
        needs them twice (composition, then per-stage extraction)."""
        memo = getattr(self, "_stage_lp_memo", None)
        if memo is not None and memo[0] is problem:
            return memo[1]
        lps = [spec.build_lp(sub) for spec, sub in self.stage_specs(problem)]
        self._stage_lp_memo = (problem, lps)
        return lps

    # ------------------------------------------------------- solving
    def build_lp(self, problem, mode: Optional[str] = None) -> LinearProgram:
        mode = self._check_mode(mode or self.mode)
        if mode == "sequential":
            raise NotImplementedError(
                f"{self.name} is a sequential composite: no single LP")
        stage_lps = self._stage_lps(problem)
        chain = self.chain_constraints(problem, stage_lps) \
            if mode == "pipelined" else ()
        return compose_joint_lp(f"{self.name}({problem.platform.name})",
                                stage_lps, chain_rows=chain)

    def solve(self, problem, backend: str = "auto", passes=None,
              mode: Optional[str] = None,
              **solve_kwargs) -> CompositeSolution:
        mode = self._check_mode(mode or self.mode)
        if mode in ("joint", "pipelined"):
            from repro.lp import solve as lp_solve

            lp = self.build_lp(problem, mode=mode)
            solve_kwargs.setdefault("pricing", self.pricing_graphs(problem))
            sol = lp_solve(lp, backend=backend, **solve_kwargs)
            if not sol.optimal:
                raise RuntimeError(f"LP solve failed: {sol.status}")
            tol = 0 if sol.exact else FLOAT_EPS
            # passes stay None by default so each stage applies its own
            out = self.extract(problem, lp, sol, tol, passes)
            out.mode = mode
            return out
        # sequential: each stage is an independent solve; the composed
        # steady state spends the phase fraction TP/TP_k inside stage k
        from repro.collectives.orchestrator import solve_collective

        subs = []
        for spec, sub in self.stage_specs(problem):
            subs.append(solve_collective(sub, collective=spec.name,
                                         backend=backend, passes=passes,
                                         **solve_kwargs))
        inv = sum((Fraction(1) / s.throughput if s.exact
                   else 1.0 / s.throughput for s in subs), 0)
        tp = (Fraction(1) if all(s.exact for s in subs) else 1.0) / inv
        send = {}
        for k, s in enumerate(subs):
            phase = tp / s.throughput
            for key, f in s.send.items():
                send[(key[0], key[1], k) + key[2:]] = f * phase
        return self.solution_type(problem=problem, throughput=tp, send=send,
                                  lp_solution=None,
                                  exact=all(s.exact for s in subs),
                                  collective=self.name, stage_solutions=subs,
                                  mode=mode)

    def extract(self, problem, lp: LinearProgram, sol, tol,
                passes) -> CompositeSolution:
        """Joint-mode extraction: run every stage's own extractor against
        its prefixed slice of the joint optimum."""
        subs = []
        send = {}
        stage_lps = self._stage_lps(problem)
        for k, (spec, sub) in enumerate(self.stage_specs(problem)):
            stage_lp = stage_lps[k]
            view = _StageLPView(sol, f"s{k}:", stage_lp)
            stage_passes = passes if passes is not None \
                else spec.default_passes()
            s = spec.extract(sub, stage_lp, view, tol, stage_passes)
            subs.append(s)
            for key, f in s.send.items():
                send[(key[0], key[1], k) + key[2:]] = f
        return self.solution_type(problem=problem,
                                  throughput=sol.by_name("TP"), send=send,
                                  lp_solution=sol, exact=sol.exact,
                                  collective=self.name, stage_solutions=subs)

    # ---------------------------------------------------------- codec
    def send_edge(self, key: tuple) -> EdgeKey:
        return (key[0], key[1])

    def send_unit_time(self, problem, key: tuple):
        spec, sub = self.stage_specs(problem)[key[2]]
        return spec.send_unit_time(sub, (key[0], key[1]) + key[3:])

    def rate_rows(self, solution: CollectiveSolution):
        specs = self.stage_specs(solution.problem)
        rows = []
        for key, v in sorted(solution.send.items(), key=str):
            spec, _sub = specs[key[2]]
            label = spec.format_commodity((key[0], key[1]) + key[3:])
            rows.append((f"{key[0]} -> {key[1]}",
                         f"s{key[2]}:{spec.name}:{label}", v))
        return ["edge", "type", "rate"], rows

    # ----------------------------------------------------- invariants
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        """Joint one-port check on the composite occupation (phase-scaled
        in sequential mode) plus every stage's own invariants; pipelined
        solutions additionally re-check every chain row on the cleaned
        joint optimum."""
        bad = self._port_violations(solution, tol)
        for k, sub in enumerate(solution.stage_solutions or ()):
            for msg in sub.verify(tol=tol):
                bad.append(f"s{k}[{sub.collective}]: {msg}")
        if self._mode_of(solution) == "pipelined" \
                and solution.lp_solution is not None:
            values = getattr(solution.lp_solution, "values", None)
            lp = getattr(solution.lp_solution, "lp", None)
            if values is not None and lp is not None:
                for i, name in enumerate(lp.names):
                    if not name.startswith(CHAIN_PREFIX):
                        continue
                    v = lp.row_violation(i, values)
                    if v > tol:
                        bad.append(f"{name} violated by {v}")
        return bad

    # ------------------------------------------------------- schedule
    def build_schedule(self, solution: CollectiveSolution):
        from repro.core.schedule import (
            concatenate_schedules,
            retag_schedule,
            superpose_schedules,
        )

        if not solution.exact:
            raise ValueError("schedule construction needs exact rational "
                             "rates; solve with backend='exact'")
        mode = self._mode_of(solution)
        specs = self.stage_specs(solution.problem)
        subs = solution.stage_solutions
        name = f"{self.name}({solution.problem.platform.name})"
        if mode in ("joint", "pipelined"):
            bundles = [spec.rate_bundle(s).tagged(k)
                       for k, ((spec, _sub), s) in enumerate(zip(specs, subs))]
            chain = self.chain_links(solution) if mode == "pipelined" else ()
            return superpose_schedules(bundles,
                                       throughput=solution.throughput,
                                       name=name,
                                       delivery_mode=self.delivery_mode,
                                       chain=chain)
        scheds = [retag_schedule(spec.build_schedule(s), k)
                  for k, ((spec, _sub), s) in enumerate(zip(specs, subs))]
        return concatenate_schedules(scheds, name=name,
                                     delivery_mode=self.delivery_mode)

    def rate_bundle(self, solution: CollectiveSolution):
        """Joint composites are themselves stageable: the merged bundle of
        their stages (items tagged), ready for further superposition.
        (Pipelined bundles merge too, but their chain links don't travel
        with the bundle — re-declare them on the outer composite.)"""
        if self._mode_of(solution) == "sequential":
            raise NotImplementedError(
                f"{self.name} is sequential: phases cannot merge into one "
                "period")
        from repro.core.schedule import RateBundle

        specs = self.stage_specs(solution.problem)
        return RateBundle.merge(
            [spec.rate_bundle(s).tagged(k)
             for k, ((spec, _sub), s) in
             enumerate(zip(specs, solution.stage_solutions))])

    # ------------------------------------------------------ simulator
    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        """Chained stage semantics: each stage derives its semantics from
        its own (un-tagged) view of the composite schedule, the
        :meth:`chain_stage` hook rewires payloads across the stage
        boundary, and :func:`repro.sim.executor.chain_semantics` merges
        the result back into the composite item namespace."""
        from repro.core.schedule import stage_view
        from repro.sim.executor import chain_semantics

        sems = []
        for k, (spec, sub) in enumerate(self.stage_specs(problem)):
            sem = spec.simulation(stage_view(schedule, k), sub, op=op)
            sems.append((k, self.chain_stage(k, sem, sub, op)))
        return chain_semantics(sems)

    def chain_stage(self, k: int, sem: SimSemantics, stage_problem,
                    op) -> SimSemantics:
        """Hook: rewrite stage ``k``'s semantics for value chaining (e.g.
        all-reduce feeds the reduced values into its all-gather stage).
        Default: stages keep their own payloads."""
        return sem

    def ops_bound_factor(self, problem) -> int:
        return sum(spec.ops_bound_factor(sub)
                   for spec, sub in self.stage_specs(problem))

    def tp_suffix(self, problem, solution: Optional[CollectiveSolution] = None) -> str:
        names = "+".join(name for name, _sub in self.stages(problem))
        mode = self._mode_of(solution) if solution is not None else self.mode
        return f" ({mode} composition: {names})"

    def report(self, solution: CollectiveSolution) -> str:
        from repro.viz.tables import composition_table, rates_table

        return "\n".join([composition_table(solution),
                          rates_table(solution)])
