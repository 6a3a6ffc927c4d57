"""Classical algorithm specs (PR 10): analytic solve, shared verification,
simulator round-trips, LP dominance, and the optimality-gap tuner.

The round-trip matrix is the ISSUE 10 satellite: every baseline spec, on
fig2 / fig6 / ring16 / fat-tree k=4, must replay on *both* engines with
the steady-window rate equal to the analytic per-operation rate
bit-exactly (multi-hop routes fill one pipeline stage per period, so the
window is measured after ``max_hops`` warm-up periods; whole-horizon
``measured_throughput`` can only fall short of the rate, never exceed it).
"""

from fractions import Fraction

import pytest

from repro.collectives import (
    get_collective, resolve_collective, schedule_collective, solve_collective,
)
from repro.core.allgather import AllGatherProblem
from repro.core.allreduce import AllReduceProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.core.scatter import ScatterProblem
from repro.platform.examples import (
    figure2_platform, figure2_targets, figure6_platform,
)
from repro.platform.generators import clustered, complete, fat_tree, ring
from repro.platform.graph import PlatformGraph
from repro.platform.routing import shortest_path
from repro.sim.executor import simulate_collective


def _fig2_scatter():
    return ScatterProblem(figure2_platform(), "Ps", figure2_targets())


def _fig6(cls):
    return cls(figure6_platform(), [0, 1, 2])


def _ring16(cls):
    return cls(ring(16), [f"p{i}" for i in range(16)])


def _fattree4_scatter():
    return ScatterProblem(fat_tree(4), "h0", [f"h{i}" for i in range(1, 7)])


def _fattree4(cls):
    return cls(fat_tree(4), [f"h{i}" for i in range(8)])


def _fig6_reduce():
    return ReduceProblem(figure6_platform(), [0, 1, 2], 0)


def _fattree4_reduce():
    # the binary tree's root (v_0's owner h0) is not the target
    return ReduceProblem(fat_tree(4), [f"h{i}" for i in range(8)], "h5")


ROUND_TRIPS = [
    ("fig2", "direct-scatter", _fig2_scatter),
    ("fig6", "ring-reduce-scatter", lambda: _fig6(ReduceScatterProblem)),
    ("fig6", "ring-all-gather", lambda: _fig6(AllGatherProblem)),
    ("fig6", "ring-all-reduce", lambda: _fig6(AllReduceProblem)),
    ("fig6", "flat-tree-reduce", _fig6_reduce),
    ("fig6", "binary-tree-reduce", _fig6_reduce),
    ("ring16", "ring-reduce-scatter", lambda: _ring16(ReduceScatterProblem)),
    ("ring16", "halving-reduce-scatter",
     lambda: _ring16(ReduceScatterProblem)),
    ("ring16", "ring-all-gather", lambda: _ring16(AllGatherProblem)),
    ("ring16", "doubling-all-gather", lambda: _ring16(AllGatherProblem)),
    ("fattree4", "direct-scatter", _fattree4_scatter),
    ("fattree4", "doubling-all-gather", lambda: _fattree4(AllGatherProblem)),
    ("fattree4", "rabenseifner-all-reduce",
     lambda: _fattree4(AllReduceProblem)),
    ("fattree4", "flat-tree-reduce", _fattree4_reduce),
    ("fattree4", "binary-tree-reduce", _fattree4_reduce),
]


@pytest.mark.parametrize(
    "name,build", [(n, b) for _l, n, b in ROUND_TRIPS],
    ids=[f"{label}-{n}" for label, n, _b in ROUND_TRIPS])
def test_round_trip_rate_is_bit_exact_on_both_engines(name, build):
    problem = build()
    sol = solve_collective(problem, collective=name)
    assert sol.exact
    assert isinstance(sol.throughput, Fraction)
    assert sol.verify() == []
    for occ in sol.edge_occupation().values():
        assert 0 <= occ <= 1

    spec = resolve_collective(problem, name)
    plan = spec.plan(problem)
    schedule = schedule_collective(sol)
    periods = plan.max_hops + 5
    results = {}
    for engine in ("reference", "compiled"):
        res = simulate_collective(schedule, problem, n_periods=periods,
                                  collective=name, record_trace=False,
                                  engine=engine)
        assert res.engine == engine
        # the analytic rate, bit-exact, once the pipeline is full
        assert res.steady_window_throughput(periods=3) == sol.throughput
        assert res.measured_throughput() <= sol.throughput
        if plan.max_hops == 1:
            assert res.measured_throughput() == sol.throughput
        results[engine] = res
    ref, fast = results["reference"], results["compiled"]
    assert fast.delivery_times == ref.delivery_times
    assert fast.completed_ops() == ref.completed_ops()
    assert fast.measured_throughput() == ref.measured_throughput()


def test_lp_dominates_every_baseline_plan():
    """Each classical plan is a feasible point of its LP (the all-reduce
    plans overlap phases, so they compare against the pipelined joint
    LP), hence dominance must hold as exact rationals."""
    cases = [
        (_fig6(ReduceScatterProblem), ["ring-reduce-scatter"], None),
        (_fig6(AllGatherProblem), ["ring-all-gather"], None),
        (_fig6(AllReduceProblem), ["ring-all-reduce"], "pipelined"),
        (ScatterProblem(figure2_platform(), "Ps", figure2_targets()),
         ["direct-scatter"], None),
    ]
    for problem, baselines, mode in cases:
        kwargs = {"mode": mode} if mode else {}
        lp = solve_collective(problem, backend="exact", **kwargs)
        for name in baselines:
            base = solve_collective(problem, collective=name)
            assert lp.throughput >= base.throughput, (name, problem)


def test_classical_message_counts():
    """The order-preserving variants keep the classical communication
    profile: ring reduce-scatter moves n(n-1) block messages per
    operation, recursive halving n*log2(n) messages totalling the same
    n-1 blocks per rank, ring all-gather n(n-1) block hops."""
    n = 4
    parts = [f"p{i}" for i in range(n)]
    g = complete(n)
    rs = resolve_collective(ReduceScatterProblem(g, parts),
                            "ring-reduce-scatter")
    plan = rs.plan(ReduceScatterProblem(g, parts))
    assert len(plan.transfers) == n * (n - 1)
    assert sum(plan.task_counts.values()) == n * (n - 1)

    hv = resolve_collective(ReduceScatterProblem(g, parts),
                            "halving-reduce-scatter")
    hplan = hv.plan(ReduceScatterProblem(g, parts))
    assert len(hplan.transfers) == n * 2  # n messages per round, log2(n) rounds
    assert sum(hplan.task_counts.values()) == n * (n - 1)
    # per-rank data sent matches the classical n-1 blocks
    per_rank = {}
    for tr in hplan.transfers:
        per_rank[tr.src] = per_rank.get(tr.src, 0) + tr.size
    assert set(per_rank.values()) == {n - 1}

    ag = resolve_collective(AllGatherProblem(g, parts), "ring-all-gather")
    aplan = ag.plan(AllGatherProblem(g, parts))
    assert len(aplan.transfers) == n * (n - 1)


def test_power_of_two_specs_reject_other_counts():
    g = complete(3)
    parts = [f"p{i}" for i in range(3)]
    for name, problem in [
            ("halving-reduce-scatter", ReduceScatterProblem(g, parts)),
            ("doubling-all-gather", AllGatherProblem(g, parts)),
            ("rabenseifner-all-reduce", AllReduceProblem(g, parts))]:
        spec = resolve_collective(problem, name)
        assert not spec.applicable(problem)
        with pytest.raises(ValueError, match="power-of-two"):
            solve_collective(problem, collective=name)


def _mixed_cost_ring(n: int = 12) -> PlatformGraph:
    """A ring of int and Fraction link costs with equal-cost detours, so
    the canonical tie-break picks many of the routes."""
    costs = [1, Fraction(1, 2), 2, Fraction(3, 2)]
    g = PlatformGraph("ring-mixed")
    for i in range(n):
        g.add_node(f"p{i}", 1)
    for i in range(n):
        g.add_link(f"p{i}", f"p{(i + 1) % n}", costs[i % len(costs)])
    return g


_CLUSTER = clustered(4, 4, seed=3)  # two levels: hosts behind a router ring
_HOSTS = _CLUSTER.compute_nodes()
_RING = _mixed_cost_ring()
_PARTS = _RING.nodes()
ROUTE_CASES = [
    ("cluster", "direct-scatter", ScatterProblem(_CLUSTER, _HOSTS[0],
                                                 _HOSTS[1:])),
    ("cluster", "ring-all-gather", AllGatherProblem(_CLUSTER, _HOSTS[::2])),
    ("cluster", "doubling-all-gather", AllGatherProblem(_CLUSTER, _HOSTS[:8])),
    ("cluster", "binary-tree-reduce", ReduceProblem(_CLUSTER, _HOSTS[:8],
                                                    _HOSTS[5])),
    ("ring", "direct-scatter", ScatterProblem(_RING, _PARTS[0], _PARTS[1:])),
    ("ring", "ring-reduce-scatter", ReduceScatterProblem(_RING, _PARTS)),
    ("ring", "halving-reduce-scatter", ReduceScatterProblem(_RING, _PARTS[:8])),
]


@pytest.mark.parametrize("name,problem", [(n, p) for _l, n, p in ROUTE_CASES],
                         ids=[f"{label}-{n}" for label, n, _p in ROUTE_CASES])
def test_plan_routes_equal_per_pair_shortest_paths(name, problem):
    """One Dijkstra tree per source routes every plan item exactly as a
    per-pair ``shortest_path`` call would, canonical tie-break included."""
    plan = resolve_collective(problem, name).plan(problem)
    for tr in plan.transfers:
        assert plan.routes[tr.item] == tuple(
            shortest_path(problem.platform, tr.src, tr.dst))


def test_unreachable_destination_raises_value_error():
    g = PlatformGraph("split")
    for node in "abc":
        g.add_node(node, 1)
    g.add_link("a", "b", 1)
    problem = ScatterProblem(g, "a", ["b", "c"])
    spec = get_collective("direct-scatter")
    with pytest.raises(ValueError, match="'a' cannot reach 'c'"):
        spec.build_plan(problem)
    assert not spec.applicable(problem)


def test_baselines_never_capture_type_resolution():
    """The LP specs keep owning their problem types; baselines are only
    reachable by name."""
    assert resolve_collective(_fig6(ReduceScatterProblem)).name \
        == "reduce-scatter"
    assert resolve_collective(_fig2_scatter()).name == "scatter"
    assert resolve_collective(_fig6(AllGatherProblem)).name == "all-gather"
    assert resolve_collective(_fig6(AllReduceProblem)).name == "all-reduce"


def test_verify_flags_off_plan_and_missing_rates():
    problem = _fig6(ReduceScatterProblem)
    sol = solve_collective(problem, collective="ring-reduce-scatter")
    spec = resolve_collective(problem, "ring-reduce-scatter")
    from dataclasses import replace

    key = next(iter(sol.send))
    with_bogus = dict(sol.send)
    with_bogus[("bogus", "edge", ("x",))] = with_bogus[key]
    errors = spec.verify(replace(sol, send=with_bogus))
    assert errors and all("off-plan" in e for e in errors)

    missing = dict(sol.send)
    missing.pop(key)
    errors = spec.verify(replace(sol, send=missing))
    assert any("missing plan hop" in e for e in errors)


# ----------------------------------------------------------------------
# seed-baseline bridges (ISSUE 10 satellite: shared verify path)
# ----------------------------------------------------------------------
def test_direct_scatter_run_passes_shared_verification(fig2_problem):
    sol = solve_collective(fig2_problem, collective="direct-scatter")
    assert sol.exact
    assert sol.verify() == []
    assert sol.throughput == Fraction(1, 2)
    # its schedule rides the same machinery as every LP solution
    sched = schedule_collective(sol)
    res = simulate_collective(sched, fig2_problem, n_periods=7,
                              collective="direct-scatter",
                              record_trace=False)
    assert res.steady_window_throughput(periods=3) == sol.throughput


def test_single_tree_solution_is_exact_and_verifies(fig6_problem,
                                                    fig6_solution):
    from repro.baselines import best_single_tree_throughput
    from repro.baselines.reduce_baselines import single_tree_solution

    trees = fig6_solution.extract()
    rate, tree = best_single_tree_throughput(trees, fig6_problem)
    assert isinstance(rate, Fraction)  # 1/worst must not decay to float
    assert rate <= fig6_solution.throughput
    sol = single_tree_solution(tree, fig6_problem)
    assert sol.exact
    assert sol.throughput == rate
    assert sol.verify() == []  # conservation + one-port + alpha, tol=0
    for occ in sol.edge_occupation().values():
        assert 0 <= occ <= 1


# ----------------------------------------------------------------------
# the optimality-gap tuner
# ----------------------------------------------------------------------
def test_tune_rows_are_exact_and_dominated():
    from repro.tune import applicable_baselines, tune

    problem = _fig6(ReduceScatterProblem)
    assert [s.name for s in applicable_baselines(problem)] \
        == ["ring-reduce-scatter"]
    rows = tune(problem, topology="fig6")
    assert len(rows) == 1
    row = rows[0]
    assert row.collective == "reduce-scatter"
    assert row.baseline == "ring-reduce-scatter"
    assert isinstance(row.gap, Fraction) and row.gap >= 1
    assert row.sim_matches
    assert row.gap == Fraction(row.lp_tp) / Fraction(row.baseline_tp)


def test_gap_table_renders_rows():
    from repro.tune import tune
    from repro.viz import gap_table

    rows = tune(_fig6(AllGatherProblem), topology="fig6")
    text = gap_table(rows)
    assert "ring-all-gather" in text
    assert "exact" in text and "MISMATCH" not in text


def test_zoo_covers_at_least_five_topologies():
    from repro.tune import zoo_instances

    labels = {label for label, _p, _m in zoo_instances()}
    assert len(labels) >= 5
    collectives = {resolve_collective(p).name for _l, p, _m in zoo_instances()}
    assert collectives >= {"scatter", "reduce-scatter", "all-gather",
                           "all-reduce"}
