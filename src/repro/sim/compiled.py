"""Compiled (vectorized) replay of periodic schedules.

:func:`compile_schedule` lowers a
:class:`~repro.core.schedule.PeriodicSchedule` into dense numpy tables —
flattened per-slot transfer arrays (draw key, pipe, landing target,
micro-unit budget), per-pipe prefix sums, CSR-style replica fan-out /
delivery / chain-credit maps, per-node task lists — and
:class:`VectorizedExecutor` replays them with array ops instead of
per-instance Python dicts.

The engine is **count-exact**: it tracks how many instances sit in each
``(node, item)`` buffer and how far each ``(src, dst, item)`` pipe has
progressed, in integer *micro-units* (messages scaled by the lcm of all
split denominators), instead of materializing stamped
:class:`~repro.sim.executor.Instance` objects.  Counting loses nothing
when payloads are fixed by the schedule:

- **Pure communication.**  Payloads are pure functions of their sequence
  stamp and never transformed in flight, so the reference executor's
  per-delivery value checks are vacuous by construction.
- **Unchained reductions** that pass :func:`merge_certificate`.  Every
  ``(node, item)`` key has one producer and one consumer and every task
  merges ``[k,l] ⊕ [l+1,m]`` in order, so with FIFO pipes each key's
  stream runs seq 0, 1, 2, … in order: a task pairs equal stamps,
  deliveries arrive in order, and by associativity each delivered value
  is the ordered fold of its interval's leaves.  A task is then a count
  transform — ``min(count, left, right)`` reps per period — and
  :func:`fold_errors` checks the leaf-supply convention by folding each
  delivery's provenance with the real operator at stamps 0 and 1.

On both, the two engines produce bit-identical delivery counts, delivery
times and chain-credit behaviour (the conformance suite and the
differential fuzz tests pit them against each other case by case).
Chained compute (credit-gated task inputs can race for one credit),
per-event traces and faulted replays of computing schedules stay on the
reference executor; :func:`repro.sim.engine.resolve_sim_engine` enforces
the split.

Three speed tiers, all exact:

1. **Vectorized period** — when no chain links exist and every draw
   provably succeeds (one ``bincount`` feasibility check against buffered
   counts), the whole period's transfers commit as array ops: completions
   per transfer are floor-differences of static micro-unit prefix sums,
   port accounting and landings are ``bincount`` scatter-adds.
2. **Scalar fallback** — warm-up periods (empty buffers) and chain-gated
   schedules run an integer loop over the flattened transfer table: no
   Fractions, no dicts in the hot path; the chain-credit ledger is a
   prefix-sum count (credits minted before a slot's start minus credits
   spent) instead of a sorted list of mint times.
3. **Transition memoization** — period dynamics are a pure function of
   the (relative) period-start state; once a state digest repeats, the
   recorded transition replays in O(buffers) without touching the
   transfer table at all.  A transition whose post-state digest equals
   its own pre-state digest is a *fixed point*: :meth:`run_periods`
   commits every remaining period of it in one step (supply and stream
   deltas times ``k``, one run-length entry in the replay log).  Steady
   state is exactly such a fixed point, so long replays cost warm-up
   plus bookkeeping.

Time is integer *ticks*: each compiled epoch picks one tick scale ``q``
that makes every slot start, every per-micro-unit occupation time and
every task's unit time integral, so chain-credit mint times, the gate's
``now`` and every pattern's delivery offsets are Python ints.  The
result keeps the replay log's shape: each delivery item's times are a
:class:`ReplayTimes` sequence of period runs, whose Fractions are built
only when read, straight from the period start and the offset in ticks
of its epoch — equal element for element to the reference executor's
list, with window counts (completed ops, steady-window throughput) taken
in closed form per run.

Faults and schedule switches recompile: :meth:`VectorizedExecutor.fail_link`,
:meth:`~VectorizedExecutor.fail_node` and
:meth:`~VectorizedExecutor.switch_schedule` rebuild the tables (dead
transfers drop out, carried buffers are remapped by ``(node, item)``
key) and invalidate the memoized transitions — the recompile-at-switch
path that keeps :func:`repro.sim.faults.run_with_faults` on the fast
engine end to end for pure-communication collectives.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.schedule import PeriodicSchedule, untag_item
from repro.lp.fastfrac import raw_fraction
from repro.sim.executor import SimulationResult

NodeId = Hashable
Item = Hashable

#: Micro-unit prefix sums must fit comfortably in int64.
_MU_LIMIT = 1 << 62


#: Exact time and count types; anything else (floats) is inexact.
_EXACT = (int, Fraction)


def _micro_units(schedule: PeriodicSchedule) -> Tuple[Optional[str], int]:
    """``(why the schedule cannot compile or None, micro-units per message
    instance)`` — integer math on the exact fields' numerators and
    denominators."""
    if not isinstance(schedule.period, _EXACT):
        return "float-timed schedule (inexact period)", 1
    for tasks in schedule.compute.values():
        for ct in tasks:
            if not isinstance(ct.unit_time, _EXACT):
                return "float-timed schedule (inexact task times)", 1
    mu = 1
    units = []
    for slot in schedule.slots:
        if not isinstance(slot.duration, _EXACT):
            return "float-timed schedule (inexact slot durations)", 1
        for tr in slot.transfers:
            u = tr.units
            if isinstance(u, _EXACT) and isinstance(tr.time, _EXACT):
                if u.numerator > 0:
                    mu = lcm(mu, u.denominator)
                    units.append(u)
            elif u > 0:
                return "float-timed schedule (inexact transfer data)", 1
    total = sum(u.numerator * (mu // u.denominator) for u in units)
    if total + mu >= _MU_LIMIT:
        return "micro-unit scale overflows int64", 1
    return None, mu


def compile_unsupported(schedule: PeriodicSchedule) -> Optional[str]:
    """Why :func:`compile_schedule` cannot lower this schedule (None == ok):
    inexact times, an overflowing micro-unit scale, or compute tasks
    without a :func:`merge_certificate`."""
    reason = _micro_units(schedule)[0]
    if reason is None and schedule.compute:
        reason = merge_certificate(schedule)[0]
    return reason


Key = Tuple[NodeId, Item]


def _value_item(item: Item) -> Optional[Tuple[tuple, Tuple[int, int], object]]:
    """``(stage tags, (k, m), stream)`` of a ``("val", (k, m), stream)``
    item under any number of stage tags, else None."""
    tags = []
    tagged = untag_item(item)
    while tagged is not None:
        tags.append(tagged[0])
        item = tagged[1]
        tagged = untag_item(item)
    if isinstance(item, tuple) and len(item) == 3 and item[0] == "val":
        return tuple(tags), item[1], item[2]
    return None


def _merge_shape(node: NodeId, ct) -> Optional[str]:
    """Why task ``ct`` is not an in-order merge ``[k,l] ⊕ [l+1,m] ->
    [k,m]`` of one stage's stream (None == it is)."""
    name = f"task {ct.output!r} at {node!r}"
    if len(ct.inputs) != 2:
        return f"{name} has {len(ct.inputs)} inputs, not two"
    out, left, right = (_value_item(it) for it in (ct.output, *ct.inputs))
    if out is None or left is None or right is None:
        return f"{name} does not merge value items"
    if not (out[0] == left[0] == right[0] and out[2] == left[2] == right[2]):
        return f"{name} mixes stages or streams"
    (k, m), (lk, ll), (rk, rm) = out[1], left[1], right[1]
    if rk == k and ll == m and lk == rm + 1:
        return f"{name} swaps its operands"
    if not (lk == k and rm == m and rk == ll + 1 and k <= ll < m):
        return f"{name} does not merge adjacent intervals [k,l] + [l+1,m]"
    return None


def merge_certificate(schedule: PeriodicSchedule) \
        -> Tuple[Optional[str], Dict[Key, Tuple[Key, ...]]]:
    """The static merge certificate of a computing schedule.

    Reads only the schedule and proves that counting its reductions loses
    nothing: no chain links; every ``(node, item)`` key has exactly one
    producer (an inbound pipe or a task; a consumed key with neither is a
    supply) and at most one consumer; every task merges
    ``("val", (k, l), t)`` then ``("val", (l+1, m), t)`` into
    ``("val", (k, m), t)`` under one stage tag; supplies sit only on leaf
    intervals.  With FIFO pipes each key's stream is then seq 0, 1, 2, …
    in order, so a task's k-th left and right inputs share a stamp and
    every delivered value is the ordered fold of its interval's leaves.

    Returns ``(why it fails or None, sources)``; ``sources`` maps each
    produced key to the key(s) it is made from — one for a pipe, ``(left,
    right)`` for a task — the provenance :func:`fold_errors` walks.
    """
    if schedule.chain_links:
        return ("chained compute (credit-gated task inputs) needs the "
                "reference executor"), {}
    sources: Dict[Key, Tuple[Key, ...]] = {}
    consumer: Dict[Key, object] = {}

    def produce(node, item, made_from) -> Optional[str]:
        delivered, buffered = schedule.resolve_landing(node, item)
        for key in buffered + tuple((node, it) for it in delivered):
            if sources.setdefault(key, made_from) != made_from:
                return f"{key!r} has two producers"
        return None

    def consume(key, who) -> Optional[str]:
        if consumer.setdefault(key, who) != who:
            return f"{key!r} has two consumers"
        return None

    for slot in schedule.slots:
        for tr in slot.transfers:
            if tr.units <= 0:
                continue
            key = (tr.src, tr.item)
            why = (produce(tr.dst, tr.item, (key,))
                   or consume(key, (tr.src, tr.dst)))
            if why:
                return why, {}
    for node, tasks in schedule.compute.items():
        for ti, ct in enumerate(tasks):
            why = _merge_shape(node, ct)
            if why:
                return why, {}
            left, right = (node, ct.inputs[0]), (node, ct.inputs[1])
            why = (produce(node, ct.output, (left, right))
                   or consume(left, (node, ti)) or consume(right, (node, ti)))
            if why:
                return why, {}
    for key in consumer:
        if key not in sources:
            val = _value_item(key[1])
            if val is not None and val[1][0] != val[1][1]:
                return f"supply {key!r} is not a leaf interval", {}
    return None, sources


def fold_errors(schedule: PeriodicSchedule, supplies, combine, expected,
                delivery_times) -> List[str]:
    """The seq sanity check of a certified computing schedule's replay.

    Folds each delivery item's provenance (:func:`merge_certificate`) with
    the real ``combine`` at stamps 0 and 1 and compares the value with
    ``expected`` — once per replay, for stamps the replay delivered.  This
    checks the spec's leaf-supply convention, which the certificate (it
    reads only the schedule) cannot see.  Messages match the reference
    executor's wrong-value errors."""
    if combine is None:
        raise ValueError("schedule has compute tasks but no combine "
                         "operator was given")
    sources = merge_certificate(schedule)[1]
    errors: List[str] = []

    def value(key, seq, seen):
        made_from = sources.get(key)
        if made_from is None:
            factory = supplies.get(key)
            return None if factory is None else factory(seq)
        if key in seen:
            return None  # a producer cycle never delivers
        seen.add(key)
        vals = [value(k, seq, seen) for k in made_from]
        if None in vals:
            return None
        return vals[0] if len(vals) == 1 else combine(*vals)

    for item, node in schedule.deliveries.items():
        for seq in (0, 1):
            if len(delivery_times.get(item, ())) <= seq:
                break
            got = value((node, item), seq, set())
            want = expected(item, seq) if expected is not None else None
            if want is not None and got != want:
                errors.append(f"delivery {item!r} seq {seq} has wrong "
                              f"value {got!r} != {want!r}")
    return errors


@dataclass
class CompiledSchedule:
    """Dense tables for one schedule under one fault epoch.

    All per-transfer arrays cover only *alive* transfers (positive units,
    not touching a dead link/node), in slot order — the order the
    reference executor processes them in.
    """

    schedule: PeriodicSchedule
    mu: int                      # micro-units per message instance
    q: int                       # ticks per time-unit
    blocked: int                 # dead slot-transfers hit per period
    # (node, item) buffer/draw keys
    keys: List[Tuple[NodeId, Item]]
    key_index: Dict[Tuple[NodeId, Item], int]
    key_supply: np.ndarray       # bool: an infinite supply sits here
    key_gate: List[Optional[Tuple[int, Hashable]]]  # (link, stream) or None
    gated_keys: np.ndarray       # key ids with a chain gate, sorted
    # (src, dst, item) pipes
    pipes: List[Tuple[NodeId, NodeId, Item]]
    pipe_index: Dict[Tuple[NodeId, NodeId, Item], int]
    pipe_total: np.ndarray       # summed alive budget (mu) per pipe/period
    # flattened transfers
    t_key: np.ndarray
    t_pipe: np.ndarray
    t_land: np.ndarray
    t_slot: np.ndarray
    t_budget: np.ndarray         # mu
    t_cum_excl: np.ndarray       # per-pipe mu prefix before this transfer
    t_cum_incl: np.ndarray
    t_pair: List[Tuple[NodeId, NodeId]]
    t_unit_time: List[int]       # occupation ticks per micro-unit
    # landing targets: transitive replica expansion, compiled to CSR
    lands: List[Tuple[NodeId, Item]]
    land_deliver: List[Tuple[Item, ...]]
    land_buffer_keys: List[Tuple[int, ...]]
    land_credits: List[Tuple[int, ...]]
    ld_land: np.ndarray          # delivery scatter: land id -> item id
    ld_item: np.ndarray
    lb_land: np.ndarray          # buffer scatter: land id -> key id
    lb_key: np.ndarray
    items: List[Item]            # delivery item id -> item
    item_index: Dict[Item, int]
    slot_start: List[int]        # tick offset of each slot in the period
    n_links: int
    # compute tasks per node, in schedule order:
    # (left key, right key, count, unit time in ticks, land id)
    tasks: List[List[Tuple[int, int, int, int, int]]]

    def state_digest(self, avail, pipe, credit_old, gate_gap) -> bytes:
        """Relative period-start state: everything the period's behaviour
        depends on (buffered counts, pipe progress, credit backlog, gate
        gaps) — absolute sequence counters drift monotonically and are
        deliberately excluded."""
        return b"".join((avail.tobytes(), pipe.tobytes(),
                         credit_old.tobytes(), gate_gap.tobytes()))


def compile_schedule(schedule: PeriodicSchedule,
                     supplies=(),
                     dead_links=frozenset(),
                     dead_nodes=frozenset(),
                     extra_keys=()) -> CompiledSchedule:
    """Lower ``schedule`` into :class:`CompiledSchedule` tables.

    ``supplies`` is the set (or mapping) of ``(node, item)`` supply keys;
    ``extra_keys`` forces additional buffer keys into the key table (used
    when carrying state across a recompile).  Raises :class:`ValueError`
    when the schedule is not compilable — callers should consult
    :func:`compile_unsupported` (or engine auto-dispatch) first.
    """
    reason, mu = _micro_units(schedule)
    sources: Dict[Key, Tuple[Key, ...]] = {}
    if reason is None and schedule.compute:
        reason, sources = merge_certificate(schedule)
    if reason is None:
        stray = next((key for key in supplies if key in sources), None)
        if stray is not None:
            reason = f"supply {stray!r} sits on a produced key"
    if reason is not None:
        raise ValueError(f"cannot compile {schedule.name!r}: {reason}")

    produced_link, consumed_link = schedule.chain_maps()
    n_links = len(schedule.chain_links or ())

    key_index: Dict[Tuple[NodeId, Item], int] = {}
    keys: List[Tuple[NodeId, Item]] = []

    def key_id(key) -> int:
        kid = key_index.get(key)
        if kid is None:
            kid = key_index[key] = len(keys)
            keys.append(key)
        return kid

    pipe_index: Dict[Tuple[NodeId, NodeId, Item], int] = {}
    pipes: List[Tuple[NodeId, NodeId, Item]] = []
    land_index: Dict[Tuple[NodeId, Item], int] = {}
    lands: List[Tuple[NodeId, Item]] = []
    land_deliver: List[Tuple[Item, ...]] = []
    land_buffer_keys: List[Tuple[int, ...]] = []
    land_credits: List[Tuple[int, ...]] = []
    item_index: Dict[Item, int] = {}
    items: List[Item] = []

    def land_id(node, item) -> int:
        lid = land_index.get((node, item))
        if lid is not None:
            return lid
        delivered, buffered = schedule.resolve_landing(node, item)
        lid = land_index[(node, item)] = len(lands)
        lands.append((node, item))
        land_deliver.append(delivered)
        land_buffer_keys.append(tuple(key_id(k) for k in buffered))
        credits = []
        for it in delivered:
            li = produced_link.get(it)
            if li is not None:
                credits.append(li)
            if it not in item_index:
                item_index[it] = len(items)
                items.append(it)
        land_credits.append(tuple(credits))
        return lid

    # delivery items that never land this epoch still need stable ids
    for it in schedule.deliveries:
        if it not in item_index:
            item_index[it] = len(items)
            items.append(it)

    t_key: List[int] = []
    t_pipe: List[int] = []
    t_land: List[int] = []
    t_slot: List[int] = []
    t_budget: List[int] = []
    t_pair: List[Tuple[NodeId, NodeId]] = []
    t_time: List[Tuple[int, int]] = []  # occupation per micro-unit, n/d
    q = 1
    for slot in schedule.slots:
        q = lcm(q, slot.duration.denominator)
    blocked = 0
    for si, slot in enumerate(schedule.slots):
        for tr in slot.transfers:
            if tr.units.numerator <= 0:
                continue
            if ((tr.src, tr.dst) in dead_links or tr.src in dead_nodes
                    or tr.dst in dead_nodes):
                blocked += 1
                continue
            pk = (tr.src, tr.dst, tr.item)
            pid = pipe_index.get(pk)
            if pid is None:
                pid = pipe_index[pk] = len(pipes)
                pipes.append(pk)
            t_key.append(key_id((tr.src, tr.item)))
            t_pipe.append(pid)
            t_land.append(land_id(tr.dst, tr.item))
            t_slot.append(si)
            un, ud = tr.units.numerator, tr.units.denominator
            t_budget.append(un * (mu // ud))
            t_pair.append((tr.src, tr.dst))
            num = tr.time.numerator * ud
            den = tr.time.denominator * un * mu
            g = gcd(num, den)
            num, den = num // g, den // g
            t_time.append((num, den))
            q = lcm(q, den)

    for cts in schedule.compute.values():
        for ct in cts:
            q = lcm(q, ct.unit_time.denominator)

    # integer ticks of 1/q: slot starts, per-micro-unit occupation times
    # and task unit times
    slot_start: List[int] = []
    tick = 0
    for slot in schedule.slots:
        slot_start.append(tick)
        tick += slot.duration.numerator * (q // slot.duration.denominator)
    t_unit_time = [num * (q // den) for num, den in t_time]
    tasks = [[(key_id((node, ct.inputs[0])), key_id((node, ct.inputs[1])),
               ct.count, ct.unit_time.numerator * (q // ct.unit_time.denominator),
               land_id(node, ct.output)) for ct in cts]
             for node, cts in schedule.compute.items()]

    for key in supplies:
        key_id(key)
    for key in extra_keys:
        key_id(key)

    n_keys, n_pipes = len(keys), len(pipes)

    def arr(xs):
        return np.asarray(xs, dtype=np.int64)

    t_key_a = arr(t_key)
    t_pipe_a = arr(t_pipe)
    t_land_a = arr(t_land)
    t_budget_a = arr(t_budget)
    # per-pipe running mu totals -> static prefix sums (completions per
    # transfer in a fully-moving period are floor-differences of these)
    cum_excl: List[int] = []
    pipe_running = [0] * n_pipes
    for pid, budget in zip(t_pipe, t_budget):
        cum_excl.append(pipe_running[pid])
        pipe_running[pid] += budget
    cum_excl_a = arr(cum_excl)

    key_supply = np.zeros(n_keys, dtype=bool)
    for key in supplies:
        key_supply[key_index[key]] = True
    key_gate: List[Optional[Tuple[int, Hashable]]] = [None] * n_keys
    for key, gate in consumed_link.items():
        if key in key_index:
            key_gate[key_index[key]] = gate
    gated = arr(sorted(k for k in range(n_keys) if key_gate[k] is not None))

    ld_land, ld_item, lb_land, lb_key = [], [], [], []
    for lid in range(len(lands)):
        for it in land_deliver[lid]:
            ld_land.append(lid)
            ld_item.append(item_index[it])
        for kid in land_buffer_keys[lid]:
            lb_land.append(lid)
            lb_key.append(kid)

    return CompiledSchedule(
        schedule=schedule, mu=mu, q=q, blocked=blocked,
        keys=keys, key_index=key_index, key_supply=key_supply,
        key_gate=key_gate, gated_keys=gated,
        pipes=pipes, pipe_index=pipe_index, pipe_total=arr(pipe_running),
        t_key=t_key_a, t_pipe=t_pipe_a, t_land=t_land_a, t_slot=arr(t_slot),
        t_budget=t_budget_a, t_cum_excl=cum_excl_a,
        t_cum_incl=cum_excl_a + t_budget_a,
        t_pair=t_pair, t_unit_time=t_unit_time,
        lands=lands, land_deliver=land_deliver,
        land_buffer_keys=land_buffer_keys, land_credits=land_credits,
        ld_land=arr(ld_land), ld_item=arr(ld_item),
        lb_land=arr(lb_land), lb_key=arr(lb_key),
        items=items, item_index=item_index,
        slot_start=slot_start, n_links=n_links, tasks=tasks)


class ReplayTimes(Sequence):
    """One delivery item's times in a compiled replay, kept as runs of
    identical periods: element for element the reference executor's list
    (``==`` compares the two), at memory linear in the runs rather than
    in the deliveries.

    A run ``(sn, sd, step, k, offsets)`` is ``k`` periods starting at
    ``sn / sd``, ``step / sd`` apart, each delivering at the normalized
    offsets ``offsets`` (``(num, den)`` pairs in event order, one per
    delivery).  Iteration builds each Fraction straight from integers —
    ``(sn * den + num * sd) / (sd * den)``, already in lowest terms when
    ``sd == 1``, else reduced by one gcd (:mod:`repro.lp.fastfrac`);
    :meth:`count_between` counts a window in closed form per run and
    offset, so completed-ops and steady-window metrics build no times.
    """

    __slots__ = ("_runs", "_len")

    def __init__(self) -> None:
        self._runs: List[Tuple[int, int, int, int, tuple]] = []
        self._len = 0

    def add_run(self, sn: int, sd: int, step: int, k: int,
                offsets: tuple) -> None:
        self._runs.append((sn, sd, step, k, offsets))
        self._len += k * len(offsets)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for sn, sd, step, k, offsets in self._runs:
            for _ in range(k):
                if sd == 1:  # an integral start keeps lowest terms
                    yield from [raw_fraction(sn * den + num, den)
                                for num, den in offsets]
                else:
                    for num, den in offsets:
                        num, den = sn * den + num * sd, sd * den
                        g = gcd(num, den)
                        yield raw_fraction(num // g, den // g)
                sn += step

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("delivery index out of range")
        for sn, sd, step, k, offsets in self._runs:
            if index < k * len(offsets):
                i, j = divmod(index, len(offsets))
                num, den = offsets[j]
                return Fraction(sn + i * step, sd) + Fraction(num, den)
            index -= k * len(offsets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, ReplayTimes)):
            return NotImplemented
        return len(self) == len(other) and \
            all(a == b for a, b in zip(self, other))

    __hash__ = None  # mutable, compares by value like a list

    def __repr__(self) -> str:
        return repr(list(self))

    def count_between(self, lo, hi) -> int:
        """Deliveries ``t`` with ``lo < t <= hi`` (``lo=None``: no lower
        bound): per run and offset, the periods ``i < k`` with ``lo <
        base + i * step <= hi``."""
        total = 0
        for sn, sd, step, k, offsets in self._runs:
            for (num, den), m in Counter(offsets).items():
                base = Fraction(sn * den + num * sd, sd * den)
                if k == 1:
                    total += m if (lo is None or lo < base) and base <= hi \
                        else 0
                    continue
                period = Fraction(step, sd)
                first = 0 if lo is None else max(0, floor((lo - base) / period)
                                                 + 1)
                last = min(k - 1, floor((hi - base) / period))
                total += m * max(0, last - first + 1)
        return total


@dataclass
class _Pattern:
    """One unique within-period movement pattern.

    ``events`` lists ``(item, end_offset, count)`` delivery events in the
    reference executor's land order (transfers in order — chronological,
    since a transfer always ends within its slot — then task reps node by
    node); every period
    that repeats the pattern lands the same deliveries at
    ``period_start + end_offset / q``, the offset in integer ticks of its
    epoch's tables.
    """

    events: List[Tuple[Item, int, int]]
    total: int
    q: int


@dataclass
class _Transition:
    """Memoized one-period state transition (valid within one epoch)."""

    pattern: int
    avail: np.ndarray
    arriving: np.ndarray
    pipe: np.ndarray
    credit_old: np.ndarray
    supply_delta: np.ndarray
    stream_delta: List[Dict[Hashable, int]]
    fixed: bool      # the post-state digest equals the pre-state digest


class VectorizedExecutor:
    """Drop-in count-exact replacement for
    :class:`~repro.sim.executor.ScheduleExecutor` on pure-communication
    schedules and certified unchained reductions: same ``run_period`` /
    ``fail_link`` / ``fail_node`` / ``switch_schedule`` / ``result``
    surface, numpy state inside (faults need pure communication)."""

    def __init__(self, schedule: PeriodicSchedule, supplies):
        self.dead_links: set = set()
        self.dead_nodes: set = set()
        self.blocked_last_period = 0
        self.time = 0
        self.periods_run = 0
        self.switches: List[Dict[str, object]] = []
        self.abandoned: List[str] = []
        # replay log: (start time, period, periods k, pattern id) runs of
        # k periods that repeat one pattern
        self._log: List[Tuple[object, object, int, int]] = []
        self._patterns: List[_Pattern] = []
        self._pattern_ids: Dict[Tuple[int, bytes, Tuple[int, ...]], int] = {}
        self._delivery_items: List[Item] = []   # every delivery item ever
        self._epoch = 0
        self._install(schedule, supplies)

    # -- installation / recompilation -----------------------------------

    def _install(self, schedule: PeriodicSchedule, supplies,
                 carry_state: Optional[Dict] = None) -> None:
        self.schedule = schedule
        self.supplies = dict(supplies)
        extra: set = set()
        if carry_state:
            extra |= carry_state["avail"].keys()
            extra |= carry_state.get("arriving", {}).keys()
        self.tables = compile_schedule(schedule, supplies=self.supplies,
                                       dead_links=self.dead_links,
                                       dead_nodes=self.dead_nodes,
                                       extra_keys=sorted(extra, key=repr))
        tb = self.tables
        n = len(tb.keys)
        self.avail = np.zeros(n, dtype=np.int64)
        self.arriving = np.zeros(n, dtype=np.int64)
        self.supply_seq = np.zeros(n, dtype=np.int64)
        self.pipe = np.zeros(len(tb.pipes), dtype=np.int64)
        self.credit_old = np.zeros(tb.n_links, dtype=np.int64)
        self.stream_next: List[Dict[Hashable, int]] = \
            [{} for _ in range(tb.n_links)]
        if carry_state:
            for key, count in carry_state["avail"].items():
                self.avail[tb.key_index[key]] = count
            for key, count in carry_state.get("arriving", {}).items():
                self.arriving[tb.key_index[key]] = count
            for key, seq in carry_state["supply_seq"].items():
                kid = tb.key_index.get(key)
                if kid is not None:
                    self.supply_seq[kid] = seq
        for it in schedule.deliveries:
            if it not in self._delivery_item_set:
                self._delivery_item_set.add(it)
                self._delivery_items.append(it)
        self._transitions: Dict[bytes, _Transition] = {}
        # scalar-path constants (plain lists: ~3x faster element access)
        self._l_key = tb.t_key.tolist()
        self._l_pipe = tb.t_pipe.tolist()
        self._l_land = tb.t_land.tolist()
        self._l_slot = tb.t_slot.tolist()
        self._l_budget = tb.t_budget.tolist()
        self._l_supply = tb.key_supply.tolist()

    # the delivery-item registry survives installs (items of pre-switch
    # schedules keep their result rows); created lazily because the first
    # _install runs from __init__
    @property
    def _delivery_item_set(self) -> set:
        s = getattr(self, "_delivery_seen_items", None)
        if s is None:
            s = self._delivery_seen_items = set()
        return s

    def _gate_gap(self) -> np.ndarray:
        tb = self.tables
        gap = np.zeros(len(tb.gated_keys), dtype=np.int64)
        for i, kid in enumerate(tb.gated_keys):
            li, stream = tb.key_gate[kid]
            gap[i] = self.stream_next[li].get(stream, 0) - self.supply_seq[kid]
        return gap

    # -- one period ------------------------------------------------------

    def run_period(self) -> int:
        return self._advance(1)[1]

    def run_periods(self, n_periods: int) -> None:
        while n_periods > 0:
            n_periods -= self._advance(n_periods)[0]

    def _advance(self, limit: int) -> Tuple[int, int]:
        """Run one period — or, on a memoized fixed point, ``limit`` of
        them in bulk.  Returns ``(periods run, deliveries per period)``."""
        tb = self.tables
        self.avail += self.arriving
        self.arriving[:] = 0
        digest = tb.state_digest(self.avail, self.pipe, self.credit_old,
                                 self._gate_gap())
        memo = self._transitions.get(digest)
        k = 1
        if memo is not None:
            if memo.fixed:
                k = limit
            self.avail = memo.avail.copy()
            self.arriving = memo.arriving.copy()
            self.pipe = memo.pipe.copy()
            self.credit_old = memo.credit_old.copy()
            self.supply_seq += memo.supply_delta * k
            for li, deltas in enumerate(memo.stream_delta):
                nxt = self.stream_next[li]
                for stream, d in deltas.items():
                    nxt[stream] = nxt.get(stream, 0) + d * k
            pattern = memo.pattern
        else:
            seq_before = self.supply_seq.copy()
            stream_before = [dict(nx) for nx in self.stream_next]
            if tb.n_links == 0 and self._vector_feasible():
                moved, comp = self._run_vectorized()
            else:
                moved, comp = self._run_scalar()
            pattern = self._pattern_id(moved, comp, self._run_tasks())
            after = tb.state_digest(self.avail + self.arriving, self.pipe,
                                    self.credit_old, self._gate_gap())
            self._transitions[digest] = _Transition(
                pattern=pattern, avail=self.avail.copy(),
                arriving=self.arriving.copy(), pipe=self.pipe.copy(),
                credit_old=self.credit_old.copy(),
                supply_delta=self.supply_seq - seq_before,
                stream_delta=[
                    {s: v - stream_before[li].get(s, 0)
                     for s, v in self.stream_next[li].items()
                     if v != stream_before[li].get(s, 0)}
                    for li in range(tb.n_links)],
                fixed=after == digest)
        self.blocked_last_period = tb.blocked
        self._log.append((self.time, self.schedule.period, k, pattern))
        self.time = self.time + k * self.schedule.period
        self.periods_run += k
        return k, self._patterns[pattern].total

    # -- vectorized period ----------------------------------------------

    def _vector_feasible(self) -> bool:
        """True when every draw of a full-budget period provably succeeds:
        per-key demand (a ceil-difference of the static pipe prefix sums)
        stays within buffered counts wherever no supply backs the key."""
        tb = self.tables
        if not len(tb.t_key):
            self._vec_demand = np.zeros(len(tb.keys), dtype=np.int64)
            return True
        d0 = self.pipe[tb.t_pipe]
        mu = tb.mu
        draws = (-(-(d0 + tb.t_cum_incl) // mu)) - (-(-(d0 + tb.t_cum_excl) // mu))
        demand = np.bincount(tb.t_key, weights=draws,
                             minlength=len(tb.keys)).astype(np.int64)
        short = (demand > self.avail) & ~tb.key_supply
        if short.any():
            return False
        self._vec_demand = demand
        return True

    def _run_vectorized(self) -> Tuple[np.ndarray, np.ndarray]:
        tb = self.tables
        mu = tb.mu
        d0 = self.pipe[tb.t_pipe]
        comp = (d0 + tb.t_cum_incl) // mu - (d0 + tb.t_cum_excl) // mu
        demand = self._vec_demand
        take = np.where(tb.key_supply, np.minimum(demand, self.avail), demand)
        self.avail -= take
        self.supply_seq += demand - take
        self.pipe = (self.pipe + tb.pipe_total) % mu
        comp_by_land = np.bincount(tb.t_land, weights=comp,
                                   minlength=len(tb.lands)).astype(np.int64)
        if len(tb.lb_key):
            self.arriving += np.bincount(
                tb.lb_key, weights=comp_by_land[tb.lb_land],
                minlength=len(tb.keys)).astype(np.int64)
        return tb.t_budget, comp.astype(np.int64)

    # -- scalar period ---------------------------------------------------

    def _run_scalar(self) -> Tuple[np.ndarray, np.ndarray]:
        """Integer transfer loop: exact draw order (pipe continuation,
        then buffered, then supply behind its chain gate); credit mint
        times and the gate's ``now`` are integer ticks."""
        tb = self.tables
        mu = tb.mu
        avail = self.avail.tolist()
        pipe = self.pipe.tolist()
        supply_seq = self.supply_seq.tolist()
        credit_old = self.credit_old.tolist()
        spent_old = [0] * tb.n_links
        mints: List[List[int]] = [[] for _ in range(tb.n_links)]
        spent_new = [0] * tb.n_links
        moved = [0] * len(self._l_key)
        comp = [0] * len(self._l_key)
        arriving = self.arriving
        cur_slot = -1
        pair_off: Dict[Tuple[NodeId, NodeId], int] = {}
        track_times = tb.n_links > 0  # mints gate later same-period slots
        for i, budget in enumerate(self._l_budget):
            pid = self._l_pipe[i]
            d = pipe[pid]
            moved_mu = 0
            done = 0
            if d > 0:
                step = mu - d if mu - d <= budget else budget
                budget -= step
                moved_mu += step
                if d + step >= mu:
                    done += 1
                    d = 0
                else:
                    d = d + step
            if budget > 0:
                want = -(-budget // mu)
                kid = self._l_key[i]
                got = avail[kid] if avail[kid] < want else want
                avail[kid] -= got
                if got < want and self._l_supply[kid]:
                    need = want - got
                    gate = tb.key_gate[kid]
                    if gate is None:
                        supply_seq[kid] += need
                        got = want
                    else:
                        li, stream = gate
                        seq = supply_seq[kid]
                        nxt = self.stream_next[li].get(stream, 0)
                        free = nxt - seq if nxt - seq > 0 else 0
                        free = free if free < need else need
                        credited = need - free
                        if credited:
                            now = tb.slot_start[self._l_slot[i]]
                            pool = (credit_old[li] - spent_old[li]
                                    + bisect_right(mints[li], now)
                                    - spent_new[li])
                            if credited > pool:
                                credited = pool
                            so = credit_old[li] - spent_old[li]
                            so = so if so < credited else credited
                            spent_old[li] += so
                            spent_new[li] += credited - so
                            self.stream_next[li][stream] = \
                                seq + free + credited
                        supply_seq[kid] = seq + free + credited
                        got += free + credited
                if got >= want:
                    done += budget // mu
                    if budget % mu:
                        d = budget % mu
                    moved_mu += budget
                else:
                    done += got
                    moved_mu += got * mu
            pipe[pid] = d
            moved[i] = moved_mu
            comp[i] = done
            if track_times and moved_mu > 0:
                si = self._l_slot[i]
                if si != cur_slot:
                    cur_slot = si
                    pair_off = {}
                pair = tb.t_pair[i]
                dur = tb.t_unit_time[i] * moved_mu
                before = pair_off.get(pair, 0)
                pair_off[pair] = before + dur
                if done:
                    links = tb.land_credits[self._l_land[i]]
                    if links:
                        end = tb.slot_start[si] + before + dur
                        for li in links:
                            for _ in range(done):
                                insort(mints[li], end)
        comp_a = np.asarray(comp, dtype=np.int64)
        comp_by_land = np.bincount(tb.t_land, weights=comp_a,
                                   minlength=len(tb.lands)).astype(np.int64) \
            if len(comp) else np.zeros(len(tb.lands), dtype=np.int64)
        if len(tb.lb_key):
            arriving += np.bincount(
                tb.lb_key, weights=comp_by_land[tb.lb_land],
                minlength=len(tb.keys)).astype(np.int64)
        self.avail = np.asarray(avail, dtype=np.int64)
        self.pipe = np.asarray(pipe, dtype=np.int64)
        self.supply_seq = np.asarray(supply_seq, dtype=np.int64)
        for li in range(tb.n_links):
            self.credit_old[li] = (credit_old[li] - spent_old[li]
                                   + len(mints[li]) - spent_new[li])
        return np.asarray(moved, dtype=np.int64), comp_a

    # -- compute tasks ---------------------------------------------------

    def _run_tasks(self) -> Tuple[int, ...]:
        """After the slots, each node runs its tasks in order: a task makes
        ``min(count, left buffered, right buffered)`` reps (supplies never
        run short) and its outputs land next period, or as deliveries.
        Returns the reps per task, flattened in node order."""
        tb = self.tables
        if not tb.tasks:
            return ()
        avail = self.avail
        supply = self._l_supply
        reps = []
        for row in tb.tasks:
            for left, right, count, _ticks, lid in row:
                n = count
                for kid in (left, right):
                    if not supply[kid] and avail[kid] < n:
                        n = int(avail[kid])
                if n:
                    for kid in (left, right):
                        take = min(n, int(avail[kid]))
                        avail[kid] -= take
                        self.supply_seq[kid] += n - take
                    for kid in tb.land_buffer_keys[lid]:
                        self.arriving[kid] += n
                reps.append(n)
        return tuple(reps)

    # -- movement patterns ----------------------------------------------

    def _pattern_id(self, moved: np.ndarray, comp: np.ndarray,
                    reps: Tuple[int, ...]) -> int:
        key = (self._epoch, moved.tobytes() + comp.tobytes(), reps)
        pid = self._pattern_ids.get(key)
        if pid is not None:
            return pid
        tb = self.tables
        events: List[Tuple[Item, int, int]] = []
        cur_slot = -1
        pair_off: Dict[Tuple[NodeId, NodeId], int] = {}
        moved_l = moved.tolist()
        for i in np.nonzero(moved)[0].tolist():
            si = self._l_slot[i]
            if si != cur_slot:
                cur_slot = si
                pair_off = {}
            pair = tb.t_pair[i]
            dur = tb.t_unit_time[i] * moved_l[i]
            before = pair_off.get(pair, 0)
            pair_off[pair] = before + dur
            n = int(comp[i])
            if n:
                targets = tb.land_deliver[self._l_land[i]]
                if targets:
                    end = tb.slot_start[si] + before + dur
                    for it in targets:
                        events.append((it, end, n))
        reps_left = iter(reps)
        for row in tb.tasks:
            cpu_off = 0
            for _left, _right, _count, ticks, lid in row:
                n = next(reps_left)
                targets = tb.land_deliver[lid]
                if not targets:
                    cpu_off += n * ticks
                    continue
                for _ in range(n):
                    cpu_off += ticks
                    for it in targets:
                        events.append((it, cpu_off, 1))
        pat = _Pattern(events=events, total=sum(e[2] for e in events),
                       q=tb.q)
        pid = len(self._patterns)
        self._patterns.append(pat)
        self._pattern_ids[key] = pid
        return pid

    def _item_offsets(self, pid: int, delivery_times) \
            -> List[Tuple[ReplayTimes, tuple]]:
        """Per delivery item of a pattern: its times and the pattern's
        normalized offsets ``(num, den)`` for it, in event order, one per
        delivery."""
        pat = self._patterns[pid]
        offsets: Dict[Item, List[Tuple[int, int]]] = {}
        for it, off, count in pat.events:
            g = gcd(off, pat.q)
            offsets.setdefault(it, []).extend([(off // g, pat.q // g)] * count)
        return [(delivery_times[it], tuple(offs))
                for it, offs in offsets.items()]

    # -- fault injection -------------------------------------------------

    def _recompile(self) -> None:
        """Rebuild tables after a platform change, carrying counted state
        across by ``(node, item)`` key; memoized transitions and the
        current epoch's patterns are invalidated."""
        tb = self.tables
        carry = {
            "avail": {tb.keys[k]: int(self.avail[k])
                      for k in np.nonzero(self.avail)[0]},
            "arriving": {tb.keys[k]: int(self.arriving[k])
                         for k in np.nonzero(self.arriving)[0]},
            "supply_seq": {tb.keys[k]: int(self.supply_seq[k])
                           for k in np.nonzero(self.supply_seq)[0]},
        }
        old_pipes = {tb.pipes[p]: int(self.pipe[p])
                     for p in np.nonzero(self.pipe)[0]}
        old_credit = self.credit_old.copy()
        old_streams = self.stream_next
        self._epoch += 1
        self._install(self.schedule, self.supplies, carry_state=carry)
        tb = self.tables
        for pk, done in old_pipes.items():
            # dead pipes were drained before the recompile, so every
            # surviving shipment's transfer is still in the new table
            self.pipe[tb.pipe_index[pk]] = done
        self.credit_old[:] = old_credit
        self.stream_next = old_streams

    def _check_faultable(self) -> None:
        # a dead resource abandons one input's instances and mis-pairs
        # stamps at the tasks downstream: only per-instance replay sees it
        if self.schedule.compute:
            raise ValueError("faulted replays of computing schedules need "
                             "the reference executor")

    def fail_link(self, src: NodeId, dst: NodeId) -> None:
        """Kill the directed link; in-flight partial instances return to
        the sender's buffer (drawn once, never double-delivered)."""
        self._check_faultable()
        self.dead_links.add((src, dst))
        tb = self.tables
        for p, pk in enumerate(tb.pipes):
            if pk[0] == src and pk[1] == dst and self.pipe[p] > 0:
                self.avail[tb.key_index[(src, pk[2])]] += 1
                self.pipe[p] = 0
        self._recompile()

    def fail_node(self, node: NodeId) -> None:
        """Kill a node: buffered/outbound-in-flight instances are written
        off into ``abandoned`` (one ledger line per instance, like the
        reference executor); inbound in-flight instances abort back to
        their senders."""
        self._check_faultable()
        self.dead_nodes.add(node)
        tb = self.tables
        for p, pk in enumerate(tb.pipes):
            if self.pipe[p] <= 0 or (pk[0] != node and pk[1] != node):
                continue
            if pk[1] == node:
                self.avail[tb.key_index[(pk[0], pk[2])]] += 1
            else:
                self.abandoned.append(
                    f"{pk[2]!r} in flight from dead {node!r}")
            self.pipe[p] = 0
        for store, kind in ((self.avail, "buffered"),
                            (self.arriving, "arriving")):
            for k in np.nonzero(store)[0]:
                n, item = tb.keys[k]
                if n == node:
                    for _ in range(int(store[k])):
                        self.abandoned.append(
                            f"{item!r} {kind} at dead {node!r}")
                    store[k] = 0
        for key in [key for key in self.supplies if key[0] == node]:
            del self.supplies[key]
        self._recompile()

    # -- schedule switch -------------------------------------------------

    def switch_schedule(self, schedule: PeriodicSchedule, supplies,
                        combine=None, expected=None,
                        mode: Optional[str] = None) -> str:
        """Swap in a re-solved schedule at the current period boundary and
        recompile.  Same contract as the reference executor's
        :meth:`~repro.sim.executor.ScheduleExecutor.switch_schedule`
        (``carry`` relocates counted buffers, ``restart`` writes them
        off); the new schedule must itself be compilable."""
        from repro.sim.executor import carry_compatible

        if combine is not None:
            raise ValueError("compiled engine cannot switch to a "
                             "value-checked schedule; use the reference "
                             "executor")
        tb = self.tables
        # drain partial shipments back to their senders
        for p in np.nonzero(self.pipe)[0]:
            src, _dst, item = tb.pipes[p]
            self.avail[tb.key_index[(src, item)]] += 1
            self.pipe[p] = 0
        self.avail += self.arriving
        self.arriving[:] = 0
        if mode is None:
            mode = "carry" if carry_compatible(self.schedule, schedule) \
                else "restart"
        elif mode not in ("carry", "restart"):
            raise ValueError(f"unknown switch mode {mode!r}")

        buffered = {tb.keys[k]: int(self.avail[k])
                    for k in np.nonzero(self.avail)[0]}
        seqs = {tb.keys[k]: int(self.supply_seq[k])
                for k in np.nonzero(self.supply_seq)[0]}
        self._epoch += 1
        if mode == "restart":
            for (node, item), count in buffered.items():
                for _ in range(count):
                    self.abandoned.append(
                        f"{item!r} written off at {node!r} "
                        f"(schedule restart)")
            self._install(schedule, supplies)
        else:
            # supply homes for relocating stranded buffers (reference
            # executor's _relocate_stranded, on counts)
            supply_node: Dict[Item, NodeId] = {}
            ambiguous = set()
            for (node, item) in supplies:
                if item in supply_node and supply_node[item] != node:
                    ambiguous.add(item)
                supply_node.setdefault(item, node)
            for item in ambiguous:
                supply_node.pop(item, None)
            sends = {(tr.src, tr.item) for slot in schedule.slots
                     for tr in slot.transfers if tr.units > 0}
            carried: Dict[Tuple[NodeId, Item], int] = {}
            for (node, item), count in buffered.items():
                key = (node, item)
                if key in sends or schedule.deliveries.get(item) == node:
                    carried[key] = carried.get(key, 0) + count
                    continue
                home = supply_node.get(item)
                if (home is not None and home != node
                        and (home, item) in sends
                        and home not in self.dead_nodes):
                    hk = (home, item)
                    carried[hk] = carried.get(hk, 0) + count
                else:
                    for _ in range(count):
                        self.abandoned.append(
                            f"{item!r} stranded at {node!r}")
            self._install(schedule, supplies,
                          carry_state={"avail": carried,
                                       "supply_seq": seqs})
        self.switches.append({"time": self.time, "mode": mode})
        return mode

    # -- results ---------------------------------------------------------

    def result(self) -> SimulationResult:
        """Wrap the replay in the reference result type.  Delivery times
        stay in the replay log's shape — one :class:`ReplayTimes` per
        delivery item, a run per log entry — so a result costs memory in
        the runs, not in the deliveries."""
        delivery_times = {it: ReplayTimes() for it in self._delivery_items}
        per_pattern: Dict[int, List[Tuple[ReplayTimes, tuple]]] = {}
        for start, period, k, pid in self._log:
            offsets = per_pattern.get(pid)
            if offsets is None:
                offsets = per_pattern[pid] = self._item_offsets(
                    pid, delivery_times)
            sn, sd = start.numerator, start.denominator
            step = 0
            if k > 1:  # k periods on one denominator: start + i * step
                d = lcm(sd, period.denominator)
                sn, sd = sn * (d // sd), d
                step = period.numerator * (d // period.denominator)
            for times, offs in offsets:
                times.add_run(sn, sd, step, k, offs)
        return SimulationResult(schedule=self.schedule,
                                periods=self.periods_run,
                                horizon=self.time,
                                delivery_times=delivery_times,
                                trace=None, errors=[],
                                one_port_violations=[],
                                switches=list(self.switches),
                                abandoned=list(self.abandoned),
                                engine="compiled")
