"""Differential fuzz: compiled engine vs. reference executor.

The compiled engine's correctness story is *count-exactness*: on pure
communication schedules and on unchained reductions under the merge
certificate every observable (delivery times, per-item counts,
throughput, chain-credit gating, fault ledgers) must be bit-identical to
the per-instance reference executor.  The conformance suite pins the
solver-produced schedules; this file fuzzes the rest of the surface the
two implementations share:

- seeded random platforms x every scheduled collective, replayed over a
  randomized period count (replica fan-out rides along through
  broadcast/all-gather, compute tasks through the reductions);
- seeded random platforms x unchained reductions under two
  non-commutative operators, replayed through ``simulate_schedule`` on
  both engines;
- hand-built *chained* relay schedules exercising the credit gate, with
  both integral and fractional (multi-slot pipe) transfer units;
- fault/switch differentials: fail_link / fail_node mid-run, carry and
  restart schedule hand-offs, compared period by period.

Everything is seeded — a failure reproduces from the test id alone.
"""

import random
from fractions import Fraction as F

import pytest

np = pytest.importorskip("numpy")

from repro.collectives import available_collectives, solve_collective
from repro.collectives import schedule_collective
from repro.core.schedule import (
    ChainLink, PeriodicSchedule, Slot, Transfer, schedule_from_rates,
)
from repro.platform import generators as gen
from repro.sim.compiled import VectorizedExecutor, compile_unsupported
from repro.sim.executor import ScheduleExecutor, simulate_schedule
from repro.sim.operators import MatMul2x2Mod, SeqConcat

SEED = 20260809

pytest.importorskip("scipy", reason="collective solves route through scipy")


def _scheduled_specs():
    return [spec for spec in available_collectives() if spec.has_schedule]


def _pair(sched, supplies, combine=None, expected=None):
    ref = ScheduleExecutor(sched, supplies, combine=combine,
                           expected=expected, record_trace=False)
    fast = VectorizedExecutor(sched, supplies)
    return ref, fast


def _assert_identical(ref, fast):
    a, b = ref.result(), fast.result()
    assert a.errors == []
    assert b.delivery_times == a.delivery_times
    assert b.completed_ops() == a.completed_ops()
    assert b.measured_throughput() == a.measured_throughput()
    assert b.periods == a.periods and b.horizon == a.horizon
    assert len(fast.abandoned) == len(ref.abandoned)
    assert fast.blocked_last_period == ref.blocked_last_period


# -- random platforms x collectives -----------------------------------


@pytest.mark.parametrize("case", range(8))
def test_fuzz_random_platform_collective(case):
    rng = random.Random(SEED + case)
    plat = rng.choice([
        gen.random_connected(rng.randrange(3, 6),
                             extra_edges=rng.randrange(0, 4),
                             seed=SEED ^ case),
        gen.clustered(2, 2, seed=SEED ^ case),
        gen.heterogenize(gen.ring(rng.randrange(3, 6)), seed=SEED ^ case),
    ])
    spec = rng.choice(_scheduled_specs())
    problem = spec.conformance_problem(plat, plat.compute_nodes(), rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")
    sol = solve_collective(problem, collective=spec.name, backend="exact")
    sched = schedule_collective(sol)
    assert compile_unsupported(sched) is None
    sem = spec.simulation(sched, problem)

    periods = rng.randrange(2, 12)
    ref, fast = _pair(sched, sem.supplies, sem.combine, sem.expected)
    for _ in range(periods):
        assert fast.run_period() == ref.run_period()
    _assert_identical(ref, fast)


# -- unchained reductions under two operators -------------------------

#: the collectives whose schedules carry compute tasks (the classical
#: baseline reductions model their merges as communication)
_REDUCTIONS = ("reduce", "reduce-scatter", "all-reduce")


@pytest.mark.parametrize("op", [SeqConcat, MatMul2x2Mod],
                         ids=["seqconcat", "matmul"])
@pytest.mark.parametrize("case", range(6))
def test_fuzz_unchained_reduction(case, op):
    """Certified reductions replay bit-identically on both engines, and
    the reference executor's value checks find nothing to report."""
    rng = random.Random(SEED * 7 + case)
    plat = rng.choice([
        gen.random_connected(rng.randrange(3, 6),
                             extra_edges=rng.randrange(0, 4),
                             seed=SEED ^ case),
        gen.heterogenize(gen.complete(rng.randrange(3, 5)), seed=SEED ^ case),
        gen.heterogenize(gen.ring(rng.randrange(3, 6)), seed=SEED ^ case),
    ])
    specs = {s.name: s for s in available_collectives()}
    spec = specs[rng.choice(_REDUCTIONS)]
    problem = spec.conformance_problem(plat, plat.compute_nodes(), rng)
    if problem is None:
        pytest.skip(f"{spec.name} declines {plat.name}")
    sol = solve_collective(problem, collective=spec.name, backend="exact")
    sched = schedule_collective(sol)
    assert sched.compute and compile_unsupported(sched) is None
    sem = spec.simulation(sched, problem, op=op)

    periods = rng.randrange(4, 40)
    runs = [simulate_schedule(sched, sem.supplies, periods,
                              combine=sem.combine, expected=sem.expected,
                              record_trace=False, engine=engine)
            for engine in ("reference", "compiled")]
    ref, fast = runs
    assert fast.engine == "compiled"
    assert ref.errors == [] and ref.one_port_violations == []
    assert fast.errors == []
    assert fast.delivery_times == ref.delivery_times
    assert fast.completed_ops() == ref.completed_ops()
    assert fast.steady_window_throughput(periods=2) == \
        ref.steady_window_throughput(periods=2)
    assert fast.periods == ref.periods and fast.horizon == ref.horizon


# -- the compiled result's delivery times -----------------------------


@pytest.mark.parametrize("case", ["reduce", "scatter", "switch"])
def test_replay_times_behave_like_the_reference_lists(case):
    """``ReplayTimes`` keeps a compiled replay's times as period runs;
    element access, slices, equality and window counts must match the
    reference executor's plain lists, boundaries included."""
    if case in ("scatter", "switch"):
        sched, sem = _scatter_case(SEED)
        combine = expected = None
    else:
        from repro.core.reduce_op import ReduceProblem
        from repro.platform.examples import figure6_platform

        problem = ReduceProblem(figure6_platform(), [0, 1, 2], 0)
        sol = solve_collective(problem, backend="exact")
        sched = schedule_collective(sol)
        sem = sol.spec.simulation(sched, problem)
        combine, expected = sem.combine, sem.expected
    ref, fast = _pair(sched, sem.supplies, combine, expected)
    for _ in range(5):
        assert fast.run_period() == ref.run_period()
    if case == "switch":  # the log then spans two epochs and tick scales
        sched2, sem2 = _scatter_case(SEED + 1)
        for ex in (ref, fast):
            ex.switch_schedule(sched2, sem2.supplies, mode="carry")
    fast.run_periods(37)
    for _ in range(37):
        ref.run_period()
    a, b = ref.result(), fast.result()
    rng = random.Random(SEED)
    for item, want in a.delivery_times.items():
        got = b.delivery_times[item]
        assert got == want and want == got and list(got) == want
        assert len(got) == len(want)
        for i in list(range(min(len(want), 6))) + [-1, -2, len(want) // 2]:
            if -len(want) <= i < len(want):
                assert got[i] == want[i]
        assert got[3:9] == want[3:9]
        probes = want + [t + F(1, 7) for t in want[:5]] + [F(0), b.horizon]
        for _ in range(40):
            lo, hi = sorted(rng.sample(probes, 2)) if len(probes) > 1 \
                else (None, probes[0])
            lo = None if rng.random() < 0.2 else lo
            brute = sum(1 for t in want if (lo is None or lo < t) and t <= hi)
            assert got.count_between(lo, hi) == brute
    assert b.completed_ops() == a.completed_ops()
    assert b.steady_window_throughput(periods=3) == \
        a.steady_window_throughput(periods=3)


# -- chained relay schedules (credit gating) --------------------------


def _chained_relay(case):
    """A -> B stage feeding a gated B -> C stage through a ChainLink.

    ``case`` controls the first stage's slot decomposition: ``integral``
    ships the instance whole, ``fractional`` splits it across two slots so
    the compiled engine's micro-unit pipe accounting is on the hook too,
    and ``scaled`` splits it in thirds over 2/7-long slots ahead of a
    3/5-long consuming slot, so mint times and the gate's ``now`` meet
    (x lands exactly when y's slot opens) in ticks of 1/35.
    """
    if case == "integral":
        stage1 = [Slot(duration=1,
                       transfers=[Transfer("A", "B", "x", 1, 1)])]
        last = 1
    elif case == "fractional":
        stage1 = [Slot(duration=F(1, 2),
                       transfers=[Transfer("A", "B", "x", F(1, 2),
                                           F(1, 2))])] * 2
        last = 1
    else:
        stage1 = [Slot(duration=F(2, 7),
                       transfers=[Transfer("A", "B", "x", F(1, 3),
                                           F(2, 7))])] * 3
        last = F(3, 5)
    slots = stage1 + [Slot(duration=last,
                           transfers=[Transfer("B", "C", "y", 1, last)])]
    period = sum((sl.duration for sl in slots), 0)
    sched = PeriodicSchedule(
        name="chained-relay", period=period, throughput=1 / F(period),
        slots=slots, per_period={"x": 1, "y": 1},
        deliveries={"x": "B", "y": "C"},
        chain_links=(ChainLink(label="relay", produced=("x",),
                               consumer="B", consumed=(("y", "s0"),)),))
    supplies = {("A", "x"): lambda seq: ("x", seq),
                ("B", "y"): lambda seq: ("y", seq)}
    return sched, supplies


@pytest.mark.parametrize("case", ["integral", "fractional", "scaled"])
@pytest.mark.parametrize("periods", [1, 2, 5, 13])
def test_fuzz_chained_relay(case, periods):
    sched, supplies = _chained_relay(case)
    assert compile_unsupported(sched) is None
    ref, fast = _pair(sched, supplies)
    for _ in range(periods):
        assert fast.run_period() == ref.run_period()
    _assert_identical(ref, fast)
    # the gate really engaged: y's first emission waited for x to land
    times = ref.result().delivery_times
    assert times["y"], "the gated stage must eventually deliver"
    assert min(times["y"]) > min(times["x"])


# -- integer ticks ------------------------------------------------------


def _relay_schedule(t1, t2):
    """A -> B -> C relay of one item at rate 1/2, hop unit times t1, t2."""
    sched = schedule_from_rates(
        {("A", "B", "m"): (F(1, 2), t1), ("B", "C", "m"): (F(1, 2), t2)},
        F(1, 2), {"m": "C"})
    return sched, {("A", "m"): lambda seq: ("m", seq)}


def test_coprime_unit_times_replay_identically():
    """Unit times 1/999983 and 1/999979: the period falls back to
    counts-only, so slot durations and tick scales carry both primes."""
    sched = schedule_from_rates(
        {("a", "b", "m"): (F(1, 2), F(1, 999983)),
         ("a", "c", "m2"): (F(1, 3), F(1, 999979))},
        F(1, 3), {"m": "b", "m2": "c"})
    supplies = {("a", "m"): lambda seq: ("m", seq),
                ("a", "m2"): lambda seq: ("m2", seq)}
    ref, fast = _pair(sched, supplies)
    assert fast.tables.q % (999983 * 999979) == 0
    for _ in range(7):
        assert fast.run_period() == ref.run_period()
    _assert_identical(ref, fast)


@pytest.mark.parametrize("mode", ["carry", "restart"])
def test_switch_across_tick_scales(mode):
    """A switch recompiles with another tick scale; deliveries of both
    epochs keep their exact times."""
    sched, supplies = _relay_schedule(F(1, 3), F(1, 3))
    sched2, supplies2 = _relay_schedule(F(2, 7), F(3, 5))
    ref, fast = _pair(sched, supplies)
    for _ in range(3):
        assert fast.run_period() == ref.run_period()
    q1 = fast.tables.q
    assert ref.switch_schedule(sched2, supplies2, mode=mode) == \
        fast.switch_schedule(sched2, supplies2, mode=mode) == mode
    assert fast.tables.q != q1
    for _ in range(3):
        assert fast.run_period() == ref.run_period()
    _assert_identical(ref, fast)


# -- fault / switch differentials -------------------------------------


def _scatter_case(seed):
    plat = gen.clustered(2, 2, seed=seed)
    spec = {s.name: s for s in available_collectives()}["scatter"]
    rng = random.Random(seed)
    problem = spec.conformance_problem(plat, plat.compute_nodes(), rng)
    sol = solve_collective(problem, collective="scatter", backend="exact")
    sched = schedule_collective(sol)
    sem = spec.simulation(sched, problem)
    return sched, sem


@pytest.mark.parametrize("kill", ["link", "node"])
def test_fuzz_fault_differential(kill):
    sched, sem = _scatter_case(SEED)
    ref, fast = _pair(sched, sem.supplies)
    for _ in range(3):
        assert fast.run_period() == ref.run_period()
    # kill a resource the schedule actually uses, then keep running the
    # now-degraded schedule: both engines must block/abandon identically
    tr = next(t for s in sched.slots for t in s.transfers if t.units)
    if kill == "link":
        ref.fail_link(tr.src, tr.dst)
        fast.fail_link(tr.src, tr.dst)
    else:
        ref.fail_node(tr.dst)
        fast.fail_node(tr.dst)
    for _ in range(3):
        assert fast.run_period() == ref.run_period()
    assert fast.blocked_last_period == ref.blocked_last_period > 0
    _assert_identical(ref, fast)


@pytest.mark.parametrize("mode", ["carry", "restart"])
def test_fuzz_switch_differential(mode):
    sched, sem = _scatter_case(SEED)
    sched2, sem2 = _scatter_case(SEED + 1)  # same platform family, re-solve
    ref, fast = _pair(sched, sem.supplies)
    for _ in range(4):
        assert fast.run_period() == ref.run_period()
    m_ref = ref.switch_schedule(sched2, sem2.supplies, mode=mode)
    m_fast = fast.switch_schedule(sched2, sem2.supplies, mode=mode)
    assert m_ref == m_fast == mode
    for _ in range(4):
        assert fast.run_period() == ref.run_period()
    _assert_identical(ref, fast)
    assert len(ref.switches) == len(fast.switches) == 1


def test_switch_refuses_value_checked():
    sched, sem = _scatter_case(SEED)
    fast = VectorizedExecutor(sched, sem.supplies)
    with pytest.raises(ValueError, match="value-checked"):
        fast.switch_schedule(sched, sem.supplies,
                             combine=lambda a, b: a)
