"""Classical collective algorithms as registered ``CollectiveSpec`` plug-ins.

This module expresses the classical algorithms practitioners actually
deploy — fixed-route scatter, flat-tree and binary-tree reduce, ring
reduce-scatter / all-gather, recursive halving / doubling, and
Rabenseifner's all-reduce (reduce-scatter ∘ all-gather, Träff 2024) — as
*analytic steady-state solutions*: each algorithm is a fixed per-operation
plan of logical transfers and merge tasks, pipelined across operations, so
its throughput is exactly ``1 / max resource load per operation`` (the
most-loaded out-port, in-port or CPU).

Because every spec here emits a genuine :class:`CollectiveSolution`, the
whole existing machinery applies unchanged: shared ``verify()`` /
``edge_occupation()`` / ``alpha()``, ``schedule_collective`` (the plans
become real :class:`~repro.core.schedule.PeriodicSchedule`\\ s), both
simulation engines, the CLI, and the conformance matrix.  The optimality
gap against the LP optimum is then an exact rational — see
:mod:`repro.tune`.

Two algebraic constraints shape the plan constructions:

- the reduction operator is **non-commutative** (partials only merge
  adjacent rank intervals, in order), so the ring reduce-scatter is the
  order-preserving *bidirectional chain* variant (prefix partials flow
  right, suffix partials flow left, meeting at each block's target) and
  recursive halving runs **smallest distance first** so every partial
  stays an aligned contiguous rank interval;
- every logical transfer is routed along one canonical shortest path
  (multi-hop on sparse platforms), the classical fixed single-route
  discipline the LP is free to beat.

Both variants keep the classical cost profile: per operation each rank
sends/receives ``n - 1`` block-sized messages (ring) or ``log2 n``
messages of halving/doubling sizes, and performs ``n - 1`` merges.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from repro.collectives.base import CollectiveSolution, CollectiveSpec, SimSemantics
from repro.collectives.reduce import ReduceSpec
from repro.collectives.registry import register_collective
from repro.core.allgather import AllGatherProblem
from repro.core.allreduce import AllReduceProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.core.scatter import ScatterProblem
from repro.platform.graph import NodeId
from repro.platform.routing import dijkstra, tree_path

Item = tuple
RankTransfer = Tuple[Item, int, int, object, int]  # (item, src, dst, size, round)
RankTask = Tuple[int, Tuple[int, int, int]]


@dataclass(frozen=True)
class LogicalTransfer:
    """One per-operation message of an algorithm plan (node-level)."""

    item: Item
    src: NodeId
    dst: NodeId
    size: object
    round: int


@dataclass(frozen=True)
class AlgorithmPlan:
    """A classical algorithm's fixed per-operation work, routed on the
    platform: logical transfers (each with its canonical shortest path),
    merge-task counts/times per node, and the resulting analytic
    pipelined throughput ``1 / max per-operation resource load``."""

    transfers: Tuple[LogicalTransfer, ...]
    routes: Dict[Item, Tuple[NodeId, ...]]
    sizes: Dict[Item, object]
    task_counts: Dict[Tuple[NodeId, tuple], int]
    task_times: Dict[Tuple[NodeId, tuple], object]
    n_rounds: int
    throughput: object

    @property
    def max_hops(self) -> int:
        return max(len(p) - 1 for p in self.routes.values())


def _require_power_of_two(n: int, what: str) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"{what} needs a power-of-two participant count, "
                         f"got {n}")


def _assemble_plan(platform, transfers: List[LogicalTransfer],
                   tasks: List[Tuple[NodeId, tuple]], task_time_fn,
                   n_rounds: int) -> AlgorithmPlan:
    """Route every logical transfer, tally per-resource loads, and price
    the pipelined rate.  Routes come from one canonical Dijkstra tree per
    distinct source, grown until it settles that source's destinations,
    so they equal :func:`shortest_path` for every pair.  Raises
    ``ValueError`` when a hop is unroutable."""
    routes: Dict[Item, Tuple[NodeId, ...]] = {}
    sizes: Dict[Item, object] = {}
    path_memo: Dict[Tuple[NodeId, NodeId], Tuple[NodeId, ...]] = {}
    trees: Dict[NodeId, Dict[NodeId, Optional[NodeId]]] = {}  # per source
    out_load: Dict[NodeId, object] = {}
    in_load: Dict[NodeId, object] = {}
    dests: Dict[NodeId, Set[NodeId]] = {}
    for tr in transfers:
        dests.setdefault(tr.src, set()).add(tr.dst)
    for tr in transfers:
        if tr.item in routes:
            raise ValueError(f"duplicate plan item {tr.item!r}")
        pair = (tr.src, tr.dst)
        if pair not in path_memo:
            if tr.src not in trees:
                trees[tr.src] = dijkstra(platform, tr.src, dests[tr.src])[1]
            path = tree_path(trees[tr.src], tr.dst)
            if path is None:
                raise ValueError(f"{tr.src!r} cannot reach {tr.dst!r}")
            path_memo[pair] = tuple(path)
        routes[tr.item] = path_memo[pair]
        sizes[tr.item] = tr.size
        for u, v in zip(path_memo[pair], path_memo[pair][1:]):
            t = tr.size * platform.cost(u, v)
            out_load[u] = out_load.get(u, 0) + t
            in_load[v] = in_load.get(v, 0) + t
    task_counts: Dict[Tuple[NodeId, tuple], int] = {}
    task_times: Dict[Tuple[NodeId, tuple], object] = {}
    cpu_load: Dict[NodeId, object] = {}
    for node, task in tasks:
        key = (node, task)
        task_counts[key] = task_counts.get(key, 0) + 1
        if key not in task_times:
            task_times[key] = task_time_fn(node, task)
        cpu_load[node] = cpu_load.get(node, 0) + task_times[key]
    load = max([*out_load.values(), *in_load.values(), *cpu_load.values()])
    tp = Fraction(1) / load  # stays exact for int/Fraction loads
    return AlgorithmPlan(transfers=tuple(transfers), routes=routes,
                         sizes=sizes, task_counts=task_counts,
                         task_times=task_times, n_rounds=n_rounds,
                         throughput=tp)


def _to_nodes(nodes, rank_transfers: List[RankTransfer],
              rank_tasks: List[RankTask]):
    transfers = [LogicalTransfer(item, nodes[s], nodes[d], size, rnd)
                 for (item, s, d, size, rnd) in rank_transfers]
    tasks = [(nodes[r], task) for (r, task) in rank_tasks]
    return transfers, tasks


# ----------------------------------------------------------------------
# rank-level round constructions
# ----------------------------------------------------------------------
def ring_reduce_scatter_rounds(n: int, size) -> Tuple[List[RankTransfer], List[RankTask], int]:
    """Order-preserving bidirectional-chain ring reduce-scatter.

    For block ``b``, prefix partials ``v[0, r]`` flow rightward along the
    chain ``0 -> 1 -> ... -> b`` and suffix partials ``v[r, n-1]`` flow
    leftward along ``n-1 -> n-2 -> ... -> b``; both meet at the block's
    target, which performs the final adjacent merges.  Per operation each
    rank sends and receives exactly ``n - 1`` block-sized messages and
    performs ``n - 1`` merges — the classical ring cost — while every
    merge combines *adjacent* rank intervals, as the non-commutative
    operator requires.
    """
    xfers: List[RankTransfer] = []
    tasks: List[RankTask] = []
    for b in range(n):
        for r in range(b):  # prefix chain toward b
            xfers.append(((("rsL", b, r), r, r + 1, size((0, r)), r)))
        for r in range(b + 1, n):  # suffix chain toward b
            xfers.append(((("rsR", b, r), r, r - 1, size((r, n - 1)),
                           n - 1 - r)))
        for r in range(1, b):
            tasks.append((r, (0, r - 1, r)))
        for r in range(b + 1, n - 1):
            tasks.append((r, (r, r, n - 1)))
        if b == 0:
            tasks.append((0, (0, 0, n - 1)))
        elif b == n - 1:
            tasks.append((n - 1, (0, n - 2, n - 1)))
        else:
            tasks.append((b, (0, b - 1, b)))
            tasks.append((b, (0, b, n - 1)))
    return xfers, tasks, n - 1


def halving_reduce_scatter_rounds(n: int, size) -> Tuple[List[RankTransfer], List[RankTask], int]:
    """Recursive halving, smallest exchange distance first (``n = 2^q``).

    Before round ``t`` rank ``r`` holds, for every block ``b ≡ r (mod
    2^t)``, the partial over the aligned rank interval ``A_t(r)`` of
    length ``2^t`` containing ``r``.  In round ``t`` it ships the partials
    of the blocks its partner ``r XOR 2^t`` is responsible for — one
    message of ``n / 2^{t+1}`` interval-sized partials — and the partner
    merges each with its own half, doubling the interval.  Distance-
    doubling (rather than the classical distance-halving) order keeps
    every partial a contiguous aligned interval, which the
    non-commutative operator requires; the per-rank message-size profile
    is the classical one in reverse order (same total, ``n - 1`` blocks).
    """
    _require_power_of_two(n, "recursive halving")
    q = n.bit_length() - 1
    xfers: List[RankTransfer] = []
    tasks: List[RankTask] = []
    for t in range(q):
        d = 1 << t
        blocks_per_msg = n >> (t + 1)
        for r in range(n):
            p = r ^ d
            lo = (r >> t) << t
            part = (lo, lo + d - 1)
            xfers.append(((("rh", t, r), r, p,
                           blocks_per_msg * size(part), t)))
            lo2 = (p >> (t + 1)) << (t + 1)
            merged = (lo2, lo2 + d - 1, lo2 + (d << 1) - 1)
            for _ in range(blocks_per_msg):
                tasks.append((p, merged))
    return xfers, tasks, q


def ring_all_gather_rounds(n: int, block_size) -> Tuple[List[RankTransfer], List[RankTask], int]:
    """Classical ring all-gather: block ``b`` walks the ring from its
    owner, one neighbor per round, reaching everyone in ``n - 1`` hops."""
    xfers: List[RankTransfer] = []
    for b in range(n):
        for s in range(n - 1):
            xfers.append(((("ag", b, s), (b + s) % n, (b + s + 1) % n,
                           block_size(b), s)))
    return xfers, [], n - 1


def doubling_all_gather_rounds(n: int, block_size) -> Tuple[List[RankTransfer], List[RankTask], int]:
    """Recursive doubling all-gather (``n = 2^q``): in round ``t`` rank
    ``r`` exchanges its current aligned window of ``2^t`` blocks with
    rank ``r XOR 2^t``, doubling what everyone holds."""
    _require_power_of_two(n, "recursive doubling")
    q = n.bit_length() - 1
    xfers: List[RankTransfer] = []
    for t in range(q):
        d = 1 << t
        for r in range(n):
            lo = (r >> t) << t
            sz = sum(block_size(b) for b in range(lo, lo + d))
            xfers.append(((("rd", t, r), r, r ^ d, sz, t)))
    return xfers, [], q


# ----------------------------------------------------------------------
# the spec machinery shared by every classical algorithm
# ----------------------------------------------------------------------
class AlgorithmSpec(CollectiveSpec):
    """Analytic baseline spec: solve == price a fixed routed round plan.

    Subclasses implement :meth:`build_plan`; everything else — solution
    assembly, shared verification, schedule construction, simulator
    semantics, CLI — is common.  ``resolve_by_type`` is ``False``: the
    LP spec keeps owning each problem type, and the baselines are only
    reachable by name (``solve_collective(p, collective="ring-...")``).
    """

    resolve_by_type = False
    delivery_mode = "min"
    #: short human label for gap tables
    algorithm: str = ""

    _plan_memo: Optional[Tuple[object, AlgorithmPlan]] = None

    def build_plan(self, problem) -> AlgorithmPlan:
        raise NotImplementedError

    def plan(self, problem) -> AlgorithmPlan:
        memo = self._plan_memo
        if memo is None or memo[0] is not problem:
            memo = (problem, self.build_plan(problem))
            self._plan_memo = memo
        return memo[1]

    def applicable(self, problem) -> bool:
        """Whether this algorithm can run this instance at all (participant
        count shape, reachability of every fixed route)."""
        if not isinstance(problem, self.problem_type):
            return False
        try:
            self.plan(problem)
        except ValueError:
            return False
        return True

    def validate(self, problem) -> None:
        super().validate(problem)
        self.plan(problem)  # raises ValueError when inapplicable

    # ------------------------------------------------------------ solve
    def solve(self, problem, backend: str = "auto", passes=None,
              **solve_kwargs) -> CollectiveSolution:
        """Analytic solve: no LP — every backend returns the same exact
        rational plan rates (extra LP keywords are accepted and ignored
        so the orchestrator/conformance call sites work unchanged)."""
        plan = self.plan(problem)
        tp = plan.throughput
        send: Dict[tuple, object] = {}
        for tr in plan.transfers:
            path = plan.routes[tr.item]
            for u, v in zip(path, path[1:]):
                send[(u, v, tr.item)] = tp
        cons = {key: count * tp for key, count in plan.task_counts.items()}
        return CollectiveSolution(
            problem=problem, throughput=tp, send=send,
            cons=cons if cons else None, lp_solution=None,
            exact=isinstance(tp, Fraction), collective=self.name)

    # ------------------------------------------------------------ codec
    def send_unit_time(self, problem, key: tuple) -> object:
        plan = self.plan(problem)
        return plan.sizes[key[2]] * problem.platform.cost(key[0], key[1])

    def cons_unit_time(self, problem, key: tuple) -> object:
        return self.plan(problem).task_times[key]

    def format_commodity(self, send_key: tuple) -> str:
        return str(send_key[2])

    # ----------------------------------------------------- invariants
    def verify(self, solution: CollectiveSolution, tol=0) -> List[str]:
        """One-port/alpha budgets plus plan fidelity: the solution must
        carry exactly the plan's routed rates and merge-task rates."""
        problem = solution.problem
        plan = self.plan(problem)
        tp = solution.throughput
        off_plan = [key for key in solution.send if key[2] not in plan.sizes]
        if off_plan:
            # occupation is undefined for unknown items; report and stop
            return [f"off-plan rate {key}" for key in off_plan]
        bad = self._port_violations(solution, tol)
        for node in {key[0] for key in plan.task_counts}:
            a = solution.alpha(node)
            if a > 1 + tol:
                bad.append(f"alpha[{node}] {a} > 1")
        # at tol=0 a plain != skips a Fraction subtract and abs per hop
        differs = operator.ne if tol == 0 else \
            (lambda a, b: abs(a - b) > tol)
        expected: Dict[tuple, object] = {}
        for tr in plan.transfers:
            path = plan.routes[tr.item]
            for u, v in zip(path, path[1:]):
                expected[(u, v, tr.item)] = tp
        for key, f in solution.send.items():
            if key not in expected:
                bad.append(f"off-plan rate {key}")
            elif differs(f, expected[key]):
                bad.append(f"rate[{key}] {f} != {expected[key]}")
        for key in expected:
            if key not in solution.send:
                bad.append(f"missing plan hop {key}")
        expected_cons = {key: count * tp
                         for key, count in plan.task_counts.items()}
        cons = solution.cons or {}
        for key, r in cons.items():
            if key not in expected_cons:
                bad.append(f"off-plan task {key}")
            elif differs(r, expected_cons[key]):
                bad.append(f"task[{key}] {r} != {expected_cons[key]}")
        for key in expected_cons:
            if key not in cons:
                bad.append(f"missing plan task {key}")
        return bad

    # ------------------------------------------------------- schedule
    def rate_bundle(self, solution: CollectiveSolution):
        from repro.core.schedule import RateBundle

        rates = {key: (f, self.send_unit_time(solution.problem, key))
                 for key, f in solution.send.items()}
        plan = self.plan(solution.problem)
        deliveries = {item: route[-1] for item, route in plan.routes.items()}
        return RateBundle(rates=rates, deliveries=deliveries)

    def build_schedule(self, solution: CollectiveSolution):
        from repro.core.schedule import schedule_from_rates

        if not solution.exact:
            raise ValueError(
                "schedule construction needs exact rational rates; this "
                "platform's costs are not rational")
        bundle = self.rate_bundle(solution)
        # merge tasks are priced into the analytic rate (alpha <= 1) but
        # not replayed: the schedule is pure communication, so both sim
        # engines apply and op counting is min over delivery streams
        return schedule_from_rates(
            bundle.rates, throughput=solution.throughput,
            deliveries=bundle.deliveries, delivery_mode="min",
            name=f"{self.name}({solution.problem.platform.name})")

    # ------------------------------------------------------ simulator
    def simulation(self, schedule, problem, op=None) -> SimSemantics:
        plan = self.plan(problem)
        supplies = {}
        for item in schedule.deliveries:
            origin = plan.routes[item][0]
            supplies[(origin, item)] = \
                (lambda it: (lambda seq: (it, seq)))(item)
        return SimSemantics(supplies=supplies,
                            expected=lambda item, seq: (item, seq))

    # ------------------------------------------------------ reporting
    def tp_suffix(self, problem, solution=None) -> str:
        plan = self.plan(problem)
        return (f"  [{self.algorithm}; {plan.n_rounds} rounds/op, "
                f"<= {plan.max_hops} hops/route]")


class _ParticipantArgsMixin:
    """CLI arguments shared by the rank-based algorithm specs."""

    def add_arguments(self, parser) -> None:
        parser.add_argument("--participants", required=True,
                            help="comma-separated node ids (rank order)")
        parser.add_argument("--msg-size", dest="msg_size", type=int, default=1)

    def _participants(self, args):
        from repro.cli import parse_nodes

        return parse_nodes(args.participants)


class DirectScatterSpec(AlgorithmSpec):
    name = "direct-scatter"
    title = "Baseline: store-and-forward scatter along fixed shortest paths"
    problem_type = ScatterProblem
    algorithm = "fixed shortest-path routes"

    def build_plan(self, problem) -> AlgorithmPlan:
        transfers = [LogicalTransfer(("msg", k), problem.source, k, 1, 0)
                     for k in problem.targets]
        return _assemble_plan(problem.platform, transfers, [], None,
                              n_rounds=1)

    def add_arguments(self, parser) -> None:
        parser.add_argument("--source", required=True)
        parser.add_argument("--targets", required=True,
                            help="comma-separated node ids")

    def problem_from_args(self, platform, args):
        from repro.cli import parse_node, parse_nodes

        return ScatterProblem(platform, parse_node(args.source),
                              parse_nodes(args.targets))

    def conformance_problem(self, platform, hosts, rng):
        if len(hosts) < 2:
            return None
        problem = ScatterProblem(platform, hosts[0],
                                 [h for h in hosts[1:5] if h != hosts[0]])
        return problem if self.applicable(problem) else None


class _ReduceAlgorithmSpec(AlgorithmSpec):
    """Single-target reduce plans; CLI and conformance instances are the
    ``reduce`` spec's."""

    problem_type = ReduceProblem
    add_arguments = ReduceSpec.add_arguments
    problem_from_args = ReduceSpec.problem_from_args

    def conformance_problem(self, platform, hosts, rng):
        problem = ReduceSpec.conformance_problem(self, platform, hosts, rng)
        return problem if problem and self.applicable(problem) else None


class FlatTreeReduceSpec(_ReduceAlgorithmSpec):
    name = "flat-tree-reduce"
    title = "Baseline: flat-tree reduce (the target merges every value alone)"
    algorithm = "flat tree"

    def build_plan(self, problem) -> AlgorithmPlan:
        n, target = problem.n_values, problem.target
        transfers = [LogicalTransfer(("v", j, j), problem.owner(j), target,
                                     problem.size((j, j)), 0)
                     for j in range(n) if problem.owner(j) != target]
        tasks = [(target, (0, j - 1, j)) for j in range(1, n)]
        return _assemble_plan(problem.platform, transfers, tasks,
                              problem.task_time, n_rounds=1)


class BinaryTreeReduceSpec(_ReduceAlgorithmSpec):
    name = "binary-tree-reduce"
    title = "Baseline: order-preserving balanced binary-tree reduce"
    algorithm = "binary tree"

    def build_plan(self, problem) -> AlgorithmPlan:
        """``[k, m]`` splits at its midpoint; ``[mid+1, m]`` travels to
        the node holding the left half (owners are distinct, so it always
        travels), the merge runs there, and the root result is forwarded
        to the target."""
        transfers: List[LogicalTransfer] = []
        tasks: List[Tuple[NodeId, tuple]] = []

        def merge(k: int, m: int) -> Tuple[NodeId, int]:
            """Node holding ``v[k, m]`` and the round it is ready in."""
            if k == m:
                return problem.owner(k), 0
            mid = (k + m) // 2
            left, left_round = merge(k, mid)
            right, right_round = merge(mid + 1, m)
            rnd = max(left_round, right_round)
            transfers.append(LogicalTransfer(
                ("v", mid + 1, m), right, left,
                problem.size((mid + 1, m)), rnd))
            tasks.append((left, (k, mid, m)))
            return left, rnd + 1

        n = problem.n_values
        root, n_rounds = merge(0, n - 1)
        if root != problem.target:
            transfers.append(LogicalTransfer(
                ("v", 0, n - 1), root, problem.target,
                problem.size((0, n - 1)), n_rounds))
            n_rounds += 1
        return _assemble_plan(problem.platform, transfers, tasks,
                              problem.task_time, n_rounds)


class _ReduceScatterAlgorithmSpec(_ParticipantArgsMixin, AlgorithmSpec):
    problem_type = ReduceScatterProblem

    def rounds(self, problem):
        raise NotImplementedError

    def build_plan(self, problem) -> AlgorithmPlan:
        xfers, tasks, n_rounds = self.rounds(problem)
        transfers, node_tasks = _to_nodes(problem.participants, xfers, tasks)
        return _assemble_plan(problem.platform, transfers, node_tasks,
                              problem.task_time, n_rounds)

    def add_arguments(self, parser) -> None:
        super().add_arguments(parser)
        parser.add_argument("--task-work", dest="task_work", type=int,
                            default=1)

    def problem_from_args(self, platform, args):
        return ReduceScatterProblem(platform, self._participants(args),
                                    msg_size=args.msg_size,
                                    task_work=args.task_work)

    def _conformance_count(self, hosts) -> int:
        return min(len(hosts), 4)

    def conformance_problem(self, platform, hosts, rng):
        m = self._conformance_count(hosts)
        if m < 2:
            return None
        problem = self.problem_type(platform, list(hosts[:m]))
        return problem if self.applicable(problem) else None


class RingReduceScatterSpec(_ReduceScatterAlgorithmSpec):
    name = "ring-reduce-scatter"
    title = "Baseline: order-preserving bidirectional-chain ring reduce-scatter"
    algorithm = "bidirectional ring"

    def rounds(self, problem):
        return ring_reduce_scatter_rounds(problem.n_values, problem.size)


class HalvingReduceScatterSpec(_ReduceScatterAlgorithmSpec):
    name = "halving-reduce-scatter"
    title = "Baseline: recursive-halving reduce-scatter (power-of-two ranks)"
    algorithm = "recursive halving"

    def rounds(self, problem):
        return halving_reduce_scatter_rounds(problem.n_values, problem.size)

    def _conformance_count(self, hosts) -> int:
        m = min(len(hosts), 4)
        return 1 << (m.bit_length() - 1) if m else 0


class _AllGatherAlgorithmSpec(_ParticipantArgsMixin, AlgorithmSpec):
    problem_type = AllGatherProblem

    def problem_from_args(self, platform, args):
        return AllGatherProblem(platform, self._participants(args),
                                msg_size=args.msg_size)

    def _conformance_count(self, hosts) -> int:
        return min(len(hosts), 4)

    def conformance_problem(self, platform, hosts, rng):
        m = self._conformance_count(hosts)
        if m < 2:
            return None
        problem = AllGatherProblem(platform, list(hosts[:m]))
        return problem if self.applicable(problem) else None


class RingAllGatherSpec(_AllGatherAlgorithmSpec):
    name = "ring-all-gather"
    title = "Baseline: ring all-gather (each block walks the logical ring)"
    algorithm = "ring"

    def build_plan(self, problem) -> AlgorithmPlan:
        xfers, tasks, n_rounds = ring_all_gather_rounds(
            problem.n_values, lambda b: problem.msg_size)
        transfers, _ = _to_nodes(problem.participants, xfers, tasks)
        return _assemble_plan(problem.platform, transfers, [], None, n_rounds)


class DoublingAllGatherSpec(_AllGatherAlgorithmSpec):
    name = "doubling-all-gather"
    title = "Baseline: recursive-doubling all-gather (power-of-two ranks)"
    algorithm = "recursive doubling"

    def build_plan(self, problem) -> AlgorithmPlan:
        xfers, tasks, n_rounds = doubling_all_gather_rounds(
            problem.n_values, lambda b: problem.msg_size)
        transfers, _ = _to_nodes(problem.participants, xfers, tasks)
        return _assemble_plan(problem.platform, transfers, [], None, n_rounds)

    def _conformance_count(self, hosts) -> int:
        m = min(len(hosts), 4)
        return 1 << (m.bit_length() - 1) if m else 0


class _AllReduceAlgorithmSpec(_ParticipantArgsMixin, AlgorithmSpec):
    """Reduce-scatter phase followed by all-gather phase, pipelined across
    operations (phases of consecutive operations overlap, so the rate is
    still ``1 / max combined per-operation load``)."""

    problem_type = AllReduceProblem

    def phases(self, problem, rs_problem):
        raise NotImplementedError

    def build_plan(self, problem) -> AlgorithmPlan:
        if callable(problem.msg_size):
            raise ValueError(f"{self.name} needs a constant block size")
        rs_problem = ReduceScatterProblem(
            problem.platform, problem.participants,
            msg_size=problem.msg_size, task_work=problem.task_work,
            task_time_fn=problem.task_time_fn)
        (rs_x, rs_t, rs_rounds), (ag_x, ag_rounds) = \
            self.phases(problem, rs_problem)
        xfers = rs_x + [(item, s, d, size, rs_rounds + rnd)
                        for (item, s, d, size, rnd) in ag_x]
        transfers, node_tasks = _to_nodes(problem.participants, xfers, rs_t)
        return _assemble_plan(problem.platform, transfers, node_tasks,
                              rs_problem.task_time, rs_rounds + ag_rounds)

    def add_arguments(self, parser) -> None:
        super().add_arguments(parser)
        parser.add_argument("--task-work", dest="task_work", type=int,
                            default=1)

    def problem_from_args(self, platform, args):
        return AllReduceProblem(platform, self._participants(args),
                                msg_size=args.msg_size,
                                task_work=args.task_work)

    def _conformance_count(self, hosts) -> int:
        return min(len(hosts), 4)

    def conformance_problem(self, platform, hosts, rng):
        m = self._conformance_count(hosts)
        if m < 2:
            return None
        problem = AllReduceProblem(platform, list(hosts[:m]))
        return problem if self.applicable(problem) else None


class RingAllReduceSpec(_AllReduceAlgorithmSpec):
    name = "ring-all-reduce"
    title = "Baseline: ring all-reduce (ring reduce-scatter + ring all-gather)"
    algorithm = "ring RS + ring AG"

    def phases(self, problem, rs_problem):
        n = problem.n_values
        rs = ring_reduce_scatter_rounds(n, rs_problem.size)
        ag_x, _, ag_rounds = ring_all_gather_rounds(
            n, lambda b: problem.msg_size)
        return rs, (ag_x, ag_rounds)


class RabenseifnerAllReduceSpec(_AllReduceAlgorithmSpec):
    name = "rabenseifner-all-reduce"
    title = "Baseline: Rabenseifner all-reduce (recursive halving + doubling)"
    algorithm = "halving RS + doubling AG"

    def phases(self, problem, rs_problem):
        n = problem.n_values
        rs = halving_reduce_scatter_rounds(n, rs_problem.size)
        ag_x, _, ag_rounds = doubling_all_gather_rounds(
            n, lambda b: problem.msg_size)
        return rs, (ag_x, ag_rounds)

    def _conformance_count(self, hosts) -> int:
        m = min(len(hosts), 4)
        return 1 << (m.bit_length() - 1) if m else 0


DIRECT_SCATTER = register_collective(DirectScatterSpec())
FLAT_TREE_REDUCE = register_collective(FlatTreeReduceSpec())
BINARY_TREE_REDUCE = register_collective(BinaryTreeReduceSpec())
RING_REDUCE_SCATTER = register_collective(RingReduceScatterSpec())
HALVING_REDUCE_SCATTER = register_collective(HalvingReduceScatterSpec())
RING_ALL_GATHER = register_collective(RingAllGatherSpec())
DOUBLING_ALL_GATHER = register_collective(DoublingAllGatherSpec())
RING_ALL_REDUCE = register_collective(RingAllReduceSpec())
RABENSEIFNER_ALL_REDUCE = register_collective(RabenseifnerAllReduceSpec())
