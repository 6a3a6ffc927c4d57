"""Periodic-schedule replay under the one-port model.

The executor runs a :class:`~repro.core.schedule.PeriodicSchedule` for a
number of periods with *store-and-forward buffers at period granularity*:
an item received (or computed) during period ``p`` becomes usable in period
``p + 1``.  Consequences, all intended:

- The Section 3.4 **initialization phase** emerges by itself: in the first
  periods, downstream edges find empty buffers and ship less; after roughly
  the platform diameter (in periods) every buffer holds one period's worth
  and the execution is exactly periodic — the steady state.
- Every send happens inside its matching slot, so the one-port invariants
  hold **by construction**; the trace validator re-proves it after the fact.
- Message *instances* are tracked individually (FIFO per node and item) with
  real payload values, so reduction results are checked against a
  non-commutative reference — not just counted.

Split messages (Figure 4a) are supported: a transfer may move a fractional
number of messages; an instance completes its hop once cumulative shipped
fraction reaches 1, and partially-shipped instances stay in the pipe.

Pipelined compositions add **chain-credit gating**: when the schedule
carries :class:`repro.core.schedule.ChainLink` contracts, a chained supply
item (e.g. the all-gather sources of a pipelined all-reduce) can only
start a new operation after a matching produced delivery (the
reduce-scatter stage's reduced block) has landed — precedence holds *by
construction*, the pipeline fills during warm-up, and the steady state
sustains the joint LP's common ``TP`` only if the overlap really is
schedulable.  Combined with the per-delivery payload checks this
validates reduced-value correctness under overlap, not just per stage.

The executor is a long-lived object (:class:`ScheduleExecutor`) so that
**fault injection** (:mod:`repro.sim.faults`) can reach into a running
replay: links and nodes can die between periods (:meth:`fail_link`,
:meth:`fail_node` — in-flight transfers on the dead resource abort back
to the sender's retry queue or are written off), the broken schedule is
detectable (:attr:`blocked_last_period` counts slot transfers that hit a
dead resource), and a re-solved schedule can be swapped in at a period
boundary (:meth:`switch_schedule`) with an exactly-once hand-off of all
buffered instances.  :func:`simulate_schedule` remains the thin
fault-free wrapper with the historical behaviour.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.schedule import PeriodicSchedule
from repro.sim.trace import Trace, TraceEvent, validate_one_port

NodeId = Hashable
Item = Hashable


@dataclass
class Instance:
    """A concrete message/value instance flowing through the platform."""

    item: Item
    seq: int
    value: object


@dataclass
class SimulationResult:
    """Outcome of replaying a schedule.

    ``delivery_times[item]`` lists completion times of successive instances
    of that delivery item (seq order).  ``errors`` collects correctness
    problems (wrong value, out-of-order sequence); ``one_port_violations``
    must be empty for any schedule this library produced.  Faulted runs
    additionally report ``switches`` (schedule swaps, with their absolute
    time and hand-off mode) and ``abandoned`` (instances written off when a
    node died or a restart-mode switch discarded a broken pipeline's
    in-flight state — every lost instance is accounted for by name).
    """

    schedule: PeriodicSchedule
    periods: int
    horizon: object
    delivery_times: Dict[Item, List[object]]
    trace: Optional[Trace]
    errors: List[str] = field(default_factory=list)
    one_port_violations: List[str] = field(default_factory=list)
    switches: List[Dict[str, object]] = field(default_factory=list)
    abandoned: List[str] = field(default_factory=list)
    #: Which executor produced this result ("reference" or "compiled").
    engine: str = "reference"

    @property
    def correct(self) -> bool:
        return not self.errors and not self.one_port_violations

    def completed_ops(self, within=None) -> int:
        """Operations fully completed (scatter: every target served).

        For schedules with several delivery items (scatter targets, reduce
        trees with round-robin stamps), an operation is complete when each
        delivery item has produced one more instance — for scatter this is
        exactly "all targets received message #s"; for reduce the deliveries
        of distinct trees are independent operations and are summed.  The
        schedule can pin the mode explicitly via
        ``PeriodicSchedule.delivery_mode`` (broadcast slices are summed like
        reduce trees even though no compute tasks exist).
        """
        if within is None:
            within = self.horizon
        counts = {item: sum(1 for t in ts if t <= within)
                  for item, ts in self.delivery_times.items()}
        if not counts:
            return 0
        mode = self.schedule.delivery_mode
        if mode is None:  # legacy inference: compute => independent streams
            mode = "sum" if self.schedule.compute else "min"
        if mode == "sum":
            return sum(counts.values())
        return min(counts.values())  # scatter/gossip: all items per op

    def measured_throughput(self):
        """Completed operations per time-unit over the whole horizon.

        Exact (a :class:`~fractions.Fraction`) whenever the schedule's
        times are exact, so steady-state assertions can compare ``==``
        against rational LP optima instead of round-tripping through
        float.  Float-timed schedules still yield a float.
        """
        if not self.horizon:
            return Fraction(0)
        ops = self.completed_ops()
        if isinstance(self.horizon, float):
            return ops / self.horizon
        return Fraction(ops) / Fraction(self.horizon)

    def steady_window_throughput(self, periods: int = 8):
        """Exact sustained rate over the trailing ``periods`` periods.

        Counts deliveries with ``start < t <= end`` (a landing exactly on
        a period boundary belongs to the window that ends there), applies
        the schedule's ``delivery_mode``, and divides by the window length
        — all in Fractions for exact-timed schedules.
        """
        if periods <= 0 or self.periods == 0:
            raise ValueError("need a positive window and a non-empty run")
        T = self.schedule.period
        end = self.horizon
        start = end - periods * T
        counts = {item: sum(1 for t in self.delivery_times.get(item, ())
                            if start < t <= end)
                  for item in self.schedule.deliveries}
        if not counts:
            return Fraction(0)
        mode = self.schedule.delivery_mode
        if mode is None:
            mode = "sum" if self.schedule.compute else "min"
        ops = sum(counts.values()) if mode == "sum" else min(counts.values())
        if isinstance(T, float):
            return ops / (periods * T)
        return Fraction(ops) / (Fraction(periods) * Fraction(T))


def carry_compatible(old: PeriodicSchedule, new: PeriodicSchedule) -> bool:
    """Whether buffered state may be carried across ``old -> new``.

    Both executors use the same rule at a schedule switch: carry only
    between pure-communication schedules (no compute, no chain links, no
    replica fan-out) whose shared delivery items keep their destination —
    else carried seq bookkeeping would count deliveries at the wrong node.
    """
    for s in (old, new):
        if s.compute or s.chain_links or s.replicas:
            return False
    for item, node in new.deliveries.items():
        if item in old.deliveries and old.deliveries[item] != node:
            return False
    return True


class ScheduleExecutor:
    """Stateful periodic replay: one period at a time, faults welcome.

    All buffer state lives on the instance so that callers (the fault
    harness, tests) can advance the clock period by period, kill links
    or nodes in between, observe whether the current schedule is still
    making progress, and hot-swap a re-solved schedule.

    Instance draws are strictly ordered **retry -> buffered -> supply**:
    an instance that was drawn but could not be used (credit race on a
    chain-gated pair, aborted transfer on a dead link, drained pipe at a
    schedule switch) goes to the explicit FIFO ``retry`` queue and is
    re-issued before anything else — deterministically, and without
    minting a duplicate from the supply.  ``peek_count`` follows the
    same order, so a node with a parked instance is never reported
    starved just because its supply gate is shut.
    """

    def __init__(self, schedule: PeriodicSchedule,
                 supplies: Dict[Tuple[NodeId, Item], Callable[[int], object]],
                 combine: Optional[Callable[[object, object], object]] = None,
                 expected: Optional[Callable[[Item, int], object]] = None,
                 record_trace: bool = True):
        self.avail: Dict[Tuple[NodeId, Item], deque] = {}
        self.retry: Dict[Tuple[NodeId, Item], deque] = {}
        self.arriving: Dict[Tuple[NodeId, Item], List[Instance]] = {}
        self.supply_seq: Dict[Tuple[NodeId, Item], int] = {}
        # per (src, dst, item): instance partially shipped and fraction done
        self.pipe: Dict[Tuple[NodeId, NodeId, Item],
                        Tuple[Instance, object]] = {}
        self.delivery_times: Dict[Item, List[object]] = {}
        self.delivery_seen: Dict[Item, set] = {}
        self.trace: Optional[Trace] = Trace() if record_trace else None
        self.errors: List[str] = []
        self.abandoned: List[str] = []
        self.switches: List[Dict[str, object]] = []
        self.dead_links: set = set()
        self.dead_nodes: set = set()
        #: Slot transfers that hit a dead link/node in the last completed
        #: period — nonzero means the current schedule references a dead
        #: resource, i.e. it is broken and a replan is due.
        self.blocked_last_period: int = 0
        self.time = 0          # absolute clock: start of the next period
        self.periods_run = 0
        self._install(schedule, supplies, combine, expected)

    # -- schedule installation ------------------------------------------

    def _install(self, schedule: PeriodicSchedule, supplies, combine,
                 expected) -> None:
        self.schedule = schedule
        self.supplies = dict(supplies)
        self.combine = combine
        self.expected = expected
        # chained-supply credit gating (pipelined compositions): a supply
        # item listed in a ChainLink may only start a new operation once a
        # matching produced delivery has landed — one credit per operation,
        # spent on the first draw of each op index per consumption stream.
        # Credits carry their mint time: a draw during a slot starting at
        # time `s` can only spend credits minted at or before `s`, so a
        # chained value physically lands before its re-emission departs
        # (retimed schedules achieve the hand-off within one period).
        self.links = tuple(schedule.chain_links or ())
        self.credit: List[List[object]] = [[] for _ in self.links]
        self.stream_next: List[Dict[Hashable, int]] = [{} for _ in self.links]
        self.produced_link, self.consumed_link = schedule.chain_maps()
        # Reduce dataflows are per-tree FIFO chains, so arrivals must be in
        # seq order; scatter/gossip commodities may split across routes with
        # different latencies, which legally reorders distinct messages.
        self.strict_order = bool(schedule.compute)
        for item in schedule.deliveries:
            self.delivery_times.setdefault(item, [])
            self.delivery_seen.setdefault(item, set())
        # where each item's fresh instances enter the platform (for
        # relocating stranded buffers at a carry-mode switch); ambiguous
        # items (several supply nodes) are left unmapped
        self._supply_node: Dict[Item, NodeId] = {}
        ambiguous = set()
        for (node, item) in self.supplies:
            if item in self._supply_node and self._supply_node[item] != node:
                ambiguous.add(item)
            self._supply_node.setdefault(item, node)
        for item in ambiguous:
            self._supply_node.pop(item, None)

    # -- instance plumbing ----------------------------------------------

    def _spendable(self, li: int, now) -> int:
        """Index of the earliest credit already minted by ``now``; -1 if
        none (credit lists are kept in mint order)."""
        times = self.credit[li]
        if times and times[0] <= now:
            return 0
        return -1

    def take(self, node: NodeId, item: Item, now=0) -> Optional[Instance]:
        """Pop the oldest available instance (drawing from supply if any).

        ``now`` is the draw time (slot start for transfers, task start
        for computations) — chain-gated supplies only spend credits
        minted at or before it.  Parked retry instances go out first
        (they already spent their credit / supply draw)."""
        key = (node, item)
        q = self.retry.get(key)
        if q:
            return q.popleft()
        q = self.avail.get(key)
        if q:
            return q.popleft()
        factory = self.supplies.get(key)
        if factory is not None:
            seq = self.supply_seq.get(key, 0)
            gate = self.consumed_link.get(key)
            if gate is not None:
                li, stream = gate
                if seq >= self.stream_next[li].get(stream, 0):
                    # first draw of operation `seq` on this stream: needs
                    # a landed production (later draws of the same op —
                    # sibling root edges of one arborescence — are free)
                    idx = self._spendable(li, now)
                    if idx < 0:
                        return None
                    self.credit[li].pop(idx)
                    self.stream_next[li][stream] = seq + 1
            self.supply_seq[key] = seq + 1
            return Instance(item=item, seq=seq, value=factory(seq))
        return None

    def peek_count(self, node: NodeId, item: Item, now=0) -> bool:
        """True when :meth:`take` would succeed — checked in the same
        retry -> buffered -> supply order, so buffered instances satisfy
        the peek even when the supply's chain gate is currently shut."""
        key = (node, item)
        if self.retry.get(key) or self.avail.get(key):
            return True
        if self.supplies.get(key) is not None:
            gate = self.consumed_link.get(key)
            if gate is None:
                return True
            li, stream = gate
            return (self.supply_seq.get(key, 0)
                    < self.stream_next[li].get(stream, 0)
                    or self._spendable(li, now) >= 0)
        return False

    def park(self, node: NodeId, item: Item, inst: Instance) -> None:
        """Return a drawn-but-unused instance to the head of the line."""
        self.retry.setdefault((node, item), deque()).append(inst)

    def land(self, node: NodeId, inst: Instance, time) -> None:
        """Instance arrives at ``node`` (usable next period); count
        deliveries."""
        item = inst.item
        schedule = self.schedule
        reps = schedule.replicas.get((node, item)) if schedule.replicas \
            else None
        if reps is not None:
            # content-divisible fan-out (broadcast arborescences): the
            # landed instance re-materializes as the mapped items — copies
            # for each child edge plus this node's own delivery token
            for rep in reps:
                self.land(node,
                          Instance(item=rep, seq=inst.seq, value=inst.value),
                          time)
            return
        if schedule.deliveries.get(item) == node:
            li = self.produced_link.get(item)
            if li is not None:
                # one more chained operation available from `time` on
                insort(self.credit[li], time)
            seen = self.delivery_seen[item]
            if inst.seq in seen:
                self.errors.append(
                    f"delivery {item!r} seq {inst.seq} duplicated")
            if self.strict_order and inst.seq != len(seen):
                self.errors.append(
                    f"delivery {item!r} out of order: got seq "
                    f"{inst.seq}, expected {len(seen)}")
            seen.add(inst.seq)
            if self.expected is not None:
                exp = self.expected(item, inst.seq)
                if exp is not None and inst.value != exp:
                    self.errors.append(
                        f"delivery {item!r} seq {inst.seq} has wrong "
                        f"value {inst.value!r} != {exp!r}")
            self.delivery_times[item].append(time)
            return  # absorbed
        self.arriving.setdefault((node, item), []).append(inst)

    # -- one period ------------------------------------------------------

    def run_period(self) -> int:
        """Advance one period; returns the number of deliveries landed."""
        schedule = self.schedule
        p0 = self.time
        delivered_before = sum(len(ts) for ts in self.delivery_times.values())
        blocked = 0
        # promote last period's arrivals
        for key, lst in self.arriving.items():
            self.avail.setdefault(key, deque()).extend(lst)
        self.arriving = {}

        # --- communications: slots in order ---
        offset = 0
        for slot in schedule.slots:
            slot_start = p0 + offset
            pair_off: Dict[Tuple[NodeId, NodeId], object] = {}
            for tr in slot.transfers:
                if tr.units <= 0:
                    continue
                if ((tr.src, tr.dst) in self.dead_links
                        or tr.src in self.dead_nodes
                        or tr.dst in self.dead_nodes):
                    blocked += 1
                    continue
                unit_time = Fraction(tr.time) / Fraction(tr.units) \
                    if not isinstance(tr.time, float) else tr.time / tr.units
                pk = (tr.src, tr.dst, tr.item)
                inflight = self.pipe.get(pk)
                moved = 0
                budget = tr.units
                completed: List[Instance] = []
                if inflight is not None:
                    inst, done = inflight
                    need = 1 - done
                    step = need if need <= budget else budget
                    done = done + step
                    budget = budget - step
                    moved = moved + step
                    if done >= 1:
                        completed.append(inst)
                        self.pipe.pop(pk)
                    else:
                        self.pipe[pk] = (inst, done)
                while budget > 0:
                    inst = self.take(tr.src, tr.item, now=slot_start)
                    if inst is None:
                        break
                    if budget >= 1:
                        completed.append(inst)
                        budget = budget - 1
                        moved = moved + 1
                    else:
                        self.pipe[pk] = (inst, budget)
                        moved = moved + budget
                        budget = 0
                if moved > 0:
                    start = p0 + offset + pair_off.get((tr.src, tr.dst), 0)
                    dur = moved * unit_time
                    end = start + dur
                    pair_off[(tr.src, tr.dst)] = \
                        pair_off.get((tr.src, tr.dst), 0) + dur
                    if self.trace is not None:
                        self.trace.add(TraceEvent(kind="send", node=tr.src,
                                                  peer=tr.dst, start=start,
                                                  end=end, item=tr.item))
                    for inst in completed:
                        self.land(tr.dst, inst, end)
            offset = offset + slot.duration

        # --- computations: sequential per node, overlapping comms ---
        for node, tasks in schedule.compute.items():
            if node in self.dead_nodes:
                blocked += sum(ct.count for ct in tasks)
                continue
            cpu_off = 0
            for ct in tasks:
                for _rep in range(ct.count):
                    left_item, right_item = ct.inputs
                    task_start = p0 + cpu_off
                    if not (self.peek_count(node, left_item, now=task_start)
                            and self.peek_count(node, right_item,
                                                now=task_start)):
                        break  # warm-up: inputs not buffered yet
                    left = self.take(node, left_item, now=task_start)
                    if left is None:
                        break
                    right = self.take(node, right_item, now=task_start)
                    if right is None:
                        # two chain-gated inputs can race for one credit:
                        # peek saw it, the left take() spent it — park the
                        # drawn instance and retry next period
                        self.park(node, left_item, left)
                        break
                    if left.seq != right.seq:
                        self.errors.append(
                            f"task at {node!r} pairing seq {left.seq} with "
                            f"{right.seq} for {ct.output!r}")
                    if self.combine is None:
                        raise ValueError("schedule has compute tasks but no "
                                         "combine operator was given")
                    out = Instance(item=ct.output, seq=left.seq,
                                   value=self.combine(left.value, right.value))
                    start = p0 + cpu_off
                    end = start + ct.unit_time
                    cpu_off = cpu_off + ct.unit_time
                    if self.trace is not None:
                        self.trace.add(TraceEvent(kind="compute", node=node,
                                                  start=start, end=end,
                                                  item=ct.output))
                    self.land(node, out, end)

        self.blocked_last_period = blocked
        self.time = p0 + schedule.period
        self.periods_run += 1
        return (sum(len(ts) for ts in self.delivery_times.values())
                - delivered_before)

    # -- fault injection -------------------------------------------------

    def fail_link(self, src: NodeId, dst: NodeId) -> None:
        """Kill the directed link; the in-flight transfer (if any) aborts
        and its instance returns to the sender's retry queue — nothing is
        lost, nothing is double-delivered (only completed hops land)."""
        self.dead_links.add((src, dst))
        for pk in [pk for pk in self.pipe if pk[0] == src and pk[1] == dst]:
            inst, _done = self.pipe.pop(pk)
            self.park(src, pk[2], inst)

    def fail_node(self, node: NodeId) -> None:
        """Kill a node: its buffered and in-flight outbound instances are
        written off (accounted in ``abandoned``); inbound in-flight
        instances abort back to their senders' retry queues."""
        self.dead_nodes.add(node)
        for pk in [pk for pk in self.pipe
                   if pk[0] == node or pk[1] == node]:
            inst, _done = self.pipe.pop(pk)
            if pk[1] == node:  # inbound: sender still holds the instance
                self.park(pk[0], pk[2], inst)
            else:
                self.abandoned.append(
                    f"{pk[2]!r} seq {inst.seq} in flight from dead "
                    f"{node!r}")
        for store in (self.avail, self.retry):
            for key in [k for k in store if k[0] == node]:
                for inst in store.pop(key):
                    self.abandoned.append(
                        f"{key[1]!r} seq {inst.seq} buffered at dead "
                        f"{node!r}")
        for key in [k for k in self.arriving if k[0] == node]:
            for inst in self.arriving.pop(key):
                self.abandoned.append(
                    f"{key[1]!r} seq {inst.seq} arriving at dead {node!r}")
        for key in [k for k in self.supplies if k[0] == node]:
            del self.supplies[key]
            self._supply_node.pop(key[1], None)

    # -- schedule switch -------------------------------------------------

    def _carry_compatible(self, new: PeriodicSchedule) -> bool:
        return carry_compatible(self.schedule, new)

    def _relocate_stranded(self) -> None:
        """Carry-mode hand-off: any buffered instance at a node the new
        schedule never sends from (for that item) is walked back to the
        item's supply node for re-routing; items with no surviving route
        (sacrificed targets) are written off explicitly."""
        sends = {(tr.src, tr.item) for slot in self.schedule.slots
                 for tr in slot.transfers if tr.units > 0}
        for store in (self.avail, self.retry):
            for key in list(store):
                q = store.get(key)
                if not q or key in sends:
                    continue
                node, item = key
                if self.schedule.deliveries.get(item) == node:
                    continue  # already home (shouldn't buffer, but safe)
                home = self._supply_node.get(item)
                if (home is not None and home != node
                        and (home, item) in sends
                        and home not in self.dead_nodes):
                    dest = self.retry.setdefault((home, item), deque())
                    while q:
                        dest.append(q.popleft())
                else:
                    while q:
                        inst = q.popleft()
                        self.abandoned.append(
                            f"{item!r} seq {inst.seq} stranded at {node!r}")

    def switch_schedule(self, schedule: PeriodicSchedule, supplies,
                        combine=None, expected=None,
                        mode: Optional[str] = None) -> str:
        """Swap in a re-solved schedule at the current period boundary.

        Two hand-off modes:

        - ``"carry"`` (pure-communication schedules, e.g. scatter): all
          buffered instances and sequence bookkeeping survive; in-flight
          partial shipments drain back to their senders and stranded
          buffers are relocated to their supply node — every instance is
          delivered exactly once across the transition (re-ordering is
          fine: these schedules don't require strict delivery order).
        - ``"restart"`` (computing/chained schedules): a broken pipeline's
          half-reduced state cannot be grafted onto a different tree
          shape, so buffered instances are *written off explicitly* into
          ``abandoned`` and the new schedule starts a fresh operation
          epoch (sequence numbers restart; nothing is silently lost —
          the abandonment ledger accounts for every instance).

        ``mode=None`` picks ``"carry"`` exactly when both schedules are
        carry-compatible (no compute, no chain links, no replica fan-out,
        shared delivery items keep their destination).  Returns the mode
        used.
        """
        # drain in-flight partial shipments back to their senders: only a
        # completed hop ever lands, so re-sending from scratch cannot
        # double-deliver
        for pk in list(self.pipe):
            inst, _done = self.pipe.pop(pk)
            self.park(pk[0], pk[2], inst)
        # promote arrivals so the hand-off sees every live instance
        for key, lst in self.arriving.items():
            self.avail.setdefault(key, deque()).extend(lst)
        self.arriving = {}

        if mode is None:
            mode = "carry" if self._carry_compatible(schedule) else "restart"
        elif mode not in ("carry", "restart"):
            raise ValueError(f"unknown switch mode {mode!r}")

        if mode == "restart":
            for store in (self.avail, self.retry):
                for (node, item), q in store.items():
                    for inst in q:
                        self.abandoned.append(
                            f"{item!r} seq {inst.seq} written off at "
                            f"{node!r} (schedule restart)")
            self.avail = {}
            self.retry = {}
            self.supply_seq = {}
            self._install(schedule, supplies, combine, expected)
            # fresh operation epoch: the new schedule's streams restart at
            # seq 0, so per-item dedup/order state must restart with them
            for item in schedule.deliveries:
                self.delivery_seen[item] = set()
        else:
            self._install(schedule, supplies, combine, expected)
            self._relocate_stranded()
        self.switches.append({"time": self.time, "mode": mode})
        return mode

    # -- results ---------------------------------------------------------

    def result(self) -> SimulationResult:
        violations = validate_one_port(self.trace) \
            if self.trace is not None else []
        if self.trace is not None:
            for item, times in self.delivery_times.items():
                node = self.schedule.deliveries.get(item)
                if node is None:
                    continue  # delivery item of a pre-switch schedule
                for t in times:
                    self.trace.add(TraceEvent(kind="delivery", node=node,
                                              start=t, end=t, item=item))
        return SimulationResult(schedule=self.schedule,
                                periods=self.periods_run,
                                horizon=self.time,
                                delivery_times=self.delivery_times,
                                trace=self.trace, errors=self.errors,
                                one_port_violations=violations,
                                switches=list(self.switches),
                                abandoned=list(self.abandoned))


def simulate_schedule(schedule: PeriodicSchedule,
                      supplies: Dict[Tuple[NodeId, Item], Callable[[int], object]],
                      n_periods: int,
                      combine: Optional[Callable[[object, object], object]] = None,
                      expected: Optional[Callable[[Item, int], object]] = None,
                      record_trace: bool = True,
                      engine: str = "auto") -> SimulationResult:
    """Replay ``schedule`` for ``n_periods`` (fault-free).

    Parameters
    ----------
    supplies:
        ``(node, item) -> factory(seq)``: infinite stamped supply of
        ``item`` at ``node`` (scatter source messages, reduce leaf values).
    combine:
        Binary operator for compute tasks (left, right) — required when the
        schedule has compute tasks.
    expected:
        ``(delivery item, seq) -> expected value``; mismatches are recorded
        in ``errors``.
    engine:
        ``"reference"`` (this module's per-instance executor),
        ``"compiled"`` (:mod:`repro.sim.compiled`'s vectorized replay), or
        ``"auto"`` — compiled whenever the schedule qualifies (pure
        communication, exact rational times, no trace requested), else
        reference.  See :func:`repro.sim.engine.resolve_sim_engine`.
    """
    from repro.sim.engine import resolve_sim_engine

    resolved = resolve_sim_engine(engine, schedule, combine=combine,
                                  record_trace=record_trace)
    if resolved == "compiled":
        from repro.sim.compiled import VectorizedExecutor

        vex = VectorizedExecutor(schedule, supplies)
        vex.run_periods(n_periods)
        return vex.result()
    ex = ScheduleExecutor(schedule, supplies, combine=combine,
                          expected=expected, record_trace=record_trace)
    for _ in range(n_periods):
        ex.run_period()
    return ex.result()


# ----------------------------------------------------------------------
# registry dispatch
# ----------------------------------------------------------------------

def simulate_collective(schedule: PeriodicSchedule, problem, n_periods: int,
                        collective: Optional[str] = None, op=None,
                        record_trace: bool = True,
                        engine: str = "auto") -> SimulationResult:
    """Replay any registered collective's schedule.

    The spec (resolved from the problem type, or named explicitly via
    ``collective``) supplies the item semantics: where stamped instances
    enter the platform, what each delivery must contain, and the combine
    operator for compute tasks.  ``op`` overrides the reduction operator
    for computing collectives (default
    :class:`repro.sim.operators.SeqConcat`).  ``engine`` picks the replay
    implementation (``"auto"``/``"compiled"``/``"reference"``) —
    value-checked semantics (a combine operator) always run on the
    reference executor.
    """
    from repro.collectives import resolve_collective

    spec = resolve_collective(problem, collective)
    sem = spec.simulation(schedule, problem, op=op)
    return simulate_schedule(schedule, sem.supplies, n_periods,
                             combine=sem.combine, expected=sem.expected,
                             record_trace=record_trace, engine=engine)


def chain_semantics(stage_semantics):
    """Merge per-stage item semantics into one composite ``SimSemantics``.

    ``stage_semantics`` is a sequence of ``(stage, SimSemantics)`` pairs
    whose items live in the *un-tagged* per-stage namespace (see
    :func:`repro.core.schedule.stage_view`); the merged semantics address
    the composite schedule's tagged items
    (:func:`repro.core.schedule.tag_item`).  At most one stage may carry a
    combine operator — composing two different reduction operators in one
    schedule has no defined payload algebra.

    For *pipelined* composites the merged ``expected`` checks run under
    genuine overlap: the chained stage's supplies are credit-gated by the
    schedule's :attr:`~repro.core.schedule.PeriodicSchedule.chain_links`
    (see :func:`simulate_schedule`), so every delivered payload that the
    per-stage ``expected`` validates was emitted only after the producing
    stage actually landed the corresponding value.
    """
    from repro.collectives.base import SimSemantics
    from repro.core.schedule import tag_item, untag_item

    supplies = {}
    expected_by_stage = {}
    combine = None
    for stage, sem in stage_semantics:
        for (node, item), factory in sem.supplies.items():
            supplies[(node, tag_item(stage, item))] = factory
        if sem.expected is not None:
            expected_by_stage[stage] = sem.expected
        if sem.combine is not None:
            if combine is not None and combine is not sem.combine:
                raise ValueError("cannot chain two stages with different "
                                 "combine operators")
            combine = sem.combine

    def expected(item, seq):
        tagged = untag_item(item)
        if tagged is None:
            return None
        fn = expected_by_stage.get(tagged[0])
        return fn(tagged[1], seq) if fn is not None else None

    return SimSemantics(supplies=supplies,
                        expected=expected if expected_by_stage else None,
                        combine=combine)
