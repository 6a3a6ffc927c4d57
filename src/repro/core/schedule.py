"""Periodic schedule construction (Sections 3.3 and 4.3).

From exact rational steady-state rates we build a
:class:`PeriodicSchedule`: a period ``T`` (the lcm of all rate denominators,
so per-period message counts are integers) divided into *slots*.  Each slot
is one matching of the bipartite communication graph: a set of transfers
that run simultaneously without violating the one-port model, each busy for
the whole slot duration.  Messages may split across slot boundaries
(Figure 4a); :meth:`PeriodicSchedule.without_splits` rescales the period so
every transfer moves an integer number of messages (Figure 4b).

For reduce schedules the per-node computation load (``α(Pi) ≤ 1``) is packed
sequentially inside the period; computations overlap communications freely
(full-overlap assumption of Section 2).

Schedule **superposition** is the shared machinery behind composed
collectives: every collective (or every stage of a composite) describes its
steady-state traffic as a :class:`RateBundle` — rates, deliveries, compute
rates, and item replications — and

- :func:`superpose_schedules` merges several bundles that share one
  period/one-port budget (a *joint* composition: reduce-scatter's
  per-block reduces, all-gather's per-block broadcasts) into a single
  matching decomposition, while
- :func:`concatenate_schedules` chains fully built stage schedules
  back-to-back (a *sequential* composition: all-reduce as reduce-scatter
  followed by all-gather), rescaling each stage so all stages perform the
  same number of operations per super-period.

``replicas`` extend the item model for content-divisible flows (broadcast,
Section 5 discussion): when an instance of a replicated item lands at a
node it is immediately re-materialized as the mapped items there — this is
how one received message slice fans out to several children of a broadcast
arborescence (and to the node's own delivery) without violating one-port.

``chain_links`` extend the model for *pipelined* compositions (the joint
all-reduce that overlaps reduce-scatter with all-gather): a
:class:`ChainLink` declares that a group of delivery items *produces* the
value that a group of supply items at one node *consumes*, so the
simulator can enforce that no chained value departs before one has
landed (:func:`repro.sim.executor.simulate_schedule` spends one credit
per consumed operation, minted by each produced delivery).
:func:`retime_for_chaining` additionally reorders the period's slots —
producing slots first, consuming slots last — so in the steady state a
chained value lands in the same period it is re-emitted, keeping the
standing buffer at one period's worth of operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.matching import decompose_matchings
from repro.lp.fastfrac import raw_fraction
from repro.platform.graph import NodeId

Item = Hashable  # message-type token, e.g. ("msg", k) or ("val", (k, m), tree)


@dataclass
class Transfer:
    """``units`` messages of ``item`` from ``src`` to ``dst`` taking ``time``."""

    src: NodeId
    dst: NodeId
    item: Item
    units: object  # fractional message count within this slot
    time: object   # occupation time within this slot (= units * unit_time)


@dataclass
class ComputeTask:
    """``count`` executions per period of a task producing ``output`` from
    ``inputs`` on ``node``, each taking ``unit_time``."""

    node: NodeId
    output: Item
    inputs: Tuple[Item, ...]
    count: object
    unit_time: object


@dataclass
class Slot:
    """One matching: simultaneous transfers for ``duration`` time-units."""

    duration: object
    transfers: List[Transfer] = field(default_factory=list)


@dataclass(frozen=True)
class ChainLink:
    """A producer/consumer precedence contract between composition stages.

    ``produced`` lists delivery items each of whose completions makes one
    more chained operation available (mints one credit); ``consumed``
    lists ``(supply item, operation-stream id)`` pairs drawn at
    ``consumer`` — the first draw of a new operation index on a stream
    spends one credit (further draws of the same index, e.g. the other
    root edges of one broadcast arborescence, are free).  The simulator
    refuses a supply draw with no credit, so a chained item can never
    depart before one has landed; schedules whose production and
    consumption rates match (a joint LP at one common ``TP`` guarantees
    it) sustain full throughput after the pipeline fills.
    """

    label: str
    produced: Tuple[Item, ...]
    consumer: NodeId
    consumed: Tuple[Tuple[Item, Hashable], ...]


@dataclass
class PeriodicSchedule:
    """A steady-state periodic schedule.

    Attributes
    ----------
    period:
        ``T`` — slot durations sum to exactly ``T``.
    throughput:
        Operations initiated per time-unit (= ``ops_per_period / period``).
    slots:
        The ordered sequence of matchings.
    per_period:
        Integer number of messages of each item shipped per period
        (summed over all edges).
    compute:
        Per-node compute tasks per period (empty for scatter/gossip).
    deliveries:
        ``item -> destination node`` for items whose arrival completes an
        operation (used by the simulator to count throughput).
    replicas:
        ``(node, item) -> replacement items``: an instance of the item
        *landing at that node* is re-materialized as the mapped items
        (same payload/stamp) — content-divisible fan-out for broadcast
        arborescences.  Keyed by node so a copy buffered elsewhere (e.g.
        awaiting its own hop) is left alone.  An empty tuple absorbs the
        instance.
    delivery_mode:
        How the simulator counts completed operations: ``"min"`` (every
        delivery stream per op — scatter/gossip), ``"sum"`` (independent
        TP-rate streams are summed — reduce trees, broadcast slices), or
        ``None`` for the legacy inference (``"sum"`` iff compute tasks
        exist).
    chain_links:
        Cross-stage precedence contracts (:class:`ChainLink`) the
        simulator enforces: a chained supply item may only be drawn after
        a matching delivery has landed.  Empty for non-pipelined
        schedules.
    """

    name: str
    period: object
    throughput: object
    slots: List[Slot]
    per_period: Dict[Item, int]
    deliveries: Dict[Item, NodeId]
    compute: Dict[NodeId, List[ComputeTask]] = field(default_factory=dict)
    replicas: Dict[Tuple[NodeId, Item], Tuple[Item, ...]] = field(default_factory=dict)
    delivery_mode: Optional[str] = None
    chain_links: Tuple[ChainLink, ...] = ()
    # lazy one-pass caches; never compare/serialize these
    _busy_cache: Optional[Tuple[Dict[NodeId, object], Dict[NodeId, object]]] = \
        field(default=None, init=False, repr=False, compare=False)
    _compute_cache: Optional[Dict[NodeId, object]] = \
        field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    def ops_per_period(self) -> object:
        return self.throughput * self.period

    def _port_busy(self) -> Tuple[Dict[NodeId, object], Dict[NodeId, object]]:
        """All nodes' (send, recv) busy times in one slots×transfers pass."""
        if self._busy_cache is None:
            snd: Dict[NodeId, object] = {}
            rcv: Dict[NodeId, object] = {}
            for slot in self.slots:
                dur = slot.duration
                # several message types on the same (src, dst) pair
                # serialize inside the slot (see validate()); the port is
                # occupied for the slot duration once, not once per type
                for i, j in {(t.src, t.dst) for t in slot.transfers}:
                    snd[i] = snd.get(i, 0) + dur
                    rcv[j] = rcv.get(j, 0) + dur
            self._busy_cache = (snd, rcv)
        return self._busy_cache

    def busy_time(self, node: NodeId) -> Tuple[object, object]:
        """(send-port, recv-port) busy time of ``node`` per period."""
        snd, rcv = self._port_busy()
        return snd.get(node, 0), rcv.get(node, 0)

    def compute_time(self, node: NodeId) -> object:
        if self._compute_cache is None:
            self._compute_cache = {
                n: sum((ct.count * ct.unit_time for ct in tasks), 0)
                for n, tasks in self.compute.items()}
        return self._compute_cache.get(node, 0)

    def validate(self) -> List[str]:
        """One-port / period invariants; empty list == valid."""
        bad: List[str] = []
        total = sum((s.duration for s in self.slots), 0)
        if total > self.period:
            bad.append(f"slot durations {total} exceed period {self.period}")
        for slot in self.slots:
            # a slot is a matching over (sender, receiver) pairs; several
            # message types on the SAME pair serialize inside the slot
            partner_of_src: Dict[object, object] = {}
            partner_of_dst: Dict[object, object] = {}
            pair_time: Dict[Tuple[object, object], object] = {}
            for t in slot.transfers:
                if partner_of_src.setdefault(t.src, t.dst) != t.dst:
                    bad.append(f"{t.src!r} sends to two receivers in one slot")
                if partner_of_dst.setdefault(t.dst, t.src) != t.src:
                    bad.append(f"{t.dst!r} receives from two senders in one slot")
                pair_time[(t.src, t.dst)] = pair_time.get((t.src, t.dst), 0) + t.time
            for (i, j), tt in pair_time.items():
                if tt > slot.duration:
                    bad.append(f"pair ({i!r},{j!r}) time {tt} exceeds slot "
                               f"{slot.duration}")
        for node, tasks in self.compute.items():
            ct = self.compute_time(node)
            if ct > self.period:
                bad.append(f"compute time {ct} at {node!r} exceeds period")
        return bad

    # ------------------------------------------------------------------
    def without_splits(self) -> "PeriodicSchedule":
        """Rescale so no message is split across slots (Figure 4b).

        Multiplies the period by the lcm of the denominators of all per-slot
        unit counts; every transfer then carries an integer message count.
        """
        den = 1
        for slot in self.slots:
            for t in slot.transfers:
                den = _lcm(den, _denominator(t.units))
        if den == 1:
            return self
        return self.scaled(den)

    def scaled(self, factor: int) -> "PeriodicSchedule":
        """Schedule with every duration/count multiplied by ``factor``."""
        slots = [Slot(duration=s.duration * factor,
                      transfers=[Transfer(t.src, t.dst, t.item,
                                          t.units * factor, t.time * factor)
                                 for t in s.transfers])
                 for s in self.slots]
        compute = {n: [ComputeTask(ct.node, ct.output, ct.inputs,
                                   ct.count * factor, ct.unit_time)
                       for ct in tasks]
                   for n, tasks in self.compute.items()}
        return PeriodicSchedule(
            name=self.name, period=self.period * factor,
            throughput=self.throughput, slots=slots,
            per_period={k: v * factor for k, v in self.per_period.items()},
            deliveries=dict(self.deliveries), compute=compute,
            replicas=dict(self.replicas), delivery_mode=self.delivery_mode,
            chain_links=self.chain_links)

    # ------------------------------------------------- simulator exports
    def chain_maps(self) -> Tuple[Dict[Item, int],
                                  Dict[Tuple[NodeId, Item], Tuple[int, Hashable]]]:
        """Chain-link lookup tables for executors.

        Returns ``(produced_link, consumed_link)``: ``produced_link`` maps a
        delivery item to the index of the link whose credit its landing
        mints; ``consumed_link`` maps a gated ``(consumer, supply item)``
        key to its ``(link index, operation-stream id)``.
        """
        produced: Dict[Item, int] = {}
        consumed: Dict[Tuple[NodeId, Item], Tuple[int, Hashable]] = {}
        for li, ln in enumerate(self.chain_links or ()):
            for it in ln.produced:
                produced[it] = li
            for it, stream in ln.consumed:
                consumed[(ln.consumer, it)] = (li, stream)
        return produced, consumed

    def resolve_landing(self, node: NodeId, item: Item) \
            -> Tuple[Tuple[Item, ...], Tuple[Tuple[NodeId, Item], ...]]:
        """Static effect of an instance of ``item`` landing at ``node``.

        Expands replica fan-out transitively and splits the result into
        ``(delivered items, buffered (node, item) keys)`` — the landing
        re-materializes as one delivery count per listed item plus one
        buffered instance per listed key.  This is the compile-time view of
        :meth:`repro.sim.executor.ScheduleExecutor.land`, used by the
        vectorized engine to turn landings into pure count updates.
        """
        delivered: List[Item] = []
        buffered: List[Tuple[NodeId, Item]] = []
        stack = [item]
        guard = 0
        while stack:
            it = stack.pop()
            guard += 1
            if guard > 10000:
                raise ValueError(
                    f"replica fan-out at ({node!r}, {item!r}) does not "
                    f"terminate")
            reps = self.replicas.get((node, it)) if self.replicas else None
            if reps is not None:
                stack.extend(reversed(reps))  # left-to-right DFS like land()
            elif self.deliveries.get(it) == node:
                delivered.append(it)
            else:
                buffered.append((node, it))
        return tuple(delivered), tuple(buffered)


def _denominator(x) -> int:
    if isinstance(x, int):
        return 1
    if isinstance(x, Fraction):
        return x.denominator
    raise TypeError(f"need exact rational, got {type(x).__name__}")


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def lcm_period(rates: Sequence[object]) -> int:
    """Smallest integer ``T`` making every ``rate * T`` an integer."""
    den = 1
    for r in rates:
        den = _lcm(den, _denominator(r))
    return den


def schedule_from_rates(
        rates: Dict[Tuple[NodeId, NodeId, Item], Tuple[object, object]],
        throughput: object,
        deliveries: Dict[Item, NodeId],
        name: str = "schedule",
        compute_rates: Optional[Dict[Tuple[NodeId, Item], Tuple[object, Tuple[Item, ...], object]]] = None,
        replicas: Optional[Dict[Item, Tuple[Item, ...]]] = None,
        delivery_mode: Optional[str] = None,
) -> PeriodicSchedule:
    """Build a periodic schedule from steady-state rates.

    The period ``T`` is the lcm of all rate denominators (including compute
    and throughput), so per-period message counts are integers.  The paper
    also makes every communication time integral — the per-period
    occupation times ``rate * unit_time * T`` — and so does this builder,
    unless that would make ``T`` more than ``10**6`` times the counts-only
    period (many coprime link costs); the exact pipeline does not need it.

    The build runs on integers: occupation times are counted in
    *micro-units* of ``1/S``, ``S`` the lcm of the unit-time denominators,
    through the port-load checks, the matching decomposition and the
    per-slot item allocation.  Only the stored slot durations and transfer
    ``units``/``time`` become (normalized) Fractions.

    Parameters
    ----------
    rates:
        ``(src, dst, item) -> (rate, unit_time)``: ``rate`` messages of
        ``item`` per time-unit on edge ``(src, dst)``, each occupying the
        edge for ``unit_time``.  All values must be exact rationals.
    throughput:
        Operations per time-unit (defines ``ops_per_period``).
    deliveries:
        ``item -> node`` completing an operation on arrival.
    compute_rates:
        ``(node, output item) -> (rate, input items, unit_time)`` for reduce
        schedules.
    replicas / delivery_mode:
        Forwarded to :class:`PeriodicSchedule` (item fan-out on landing and
        the simulator's op-counting mode).
    """
    compute_rates = compute_rates or {}
    count_rates = [r for (r, _t) in rates.values()] + [throughput]
    count_rates += [r for (r, _i, _t) in compute_rates.values()]
    T_counts = lcm_period(count_rates)
    T_full = T_counts
    for r, t in [*rates.values(),
                 *((r, t) for (r, _i, t) in compute_rates.values())]:
        num, den = r.numerator * t.numerator, r.denominator * _denominator(t)
        T_full = _lcm(T_full, den // math.gcd(num, den))
    T = T_full if T_full <= 10**6 * T_counts else T_counts

    # integer per-period message counts; S makes every unit time integral
    counts: Dict[Tuple[NodeId, NodeId, Item], int] = {}
    per_period: Dict[Item, int] = {}
    S = 1
    for (i, j, item), (rate, unit_time) in rates.items():
        n = rate.numerator * T // rate.denominator
        if n == 0:
            continue
        counts[(i, j, item)] = n
        per_period[item] = per_period.get(item, 0) + n
        S = _lcm(S, unit_time.denominator)

    # edge occupation times in micro-units of 1/S
    unit_mu: Dict[Tuple[NodeId, NodeId, Item], int] = {}
    edge_time: Dict[Tuple[NodeId, NodeId], int] = {}
    for (i, j, item), n in counts.items():
        unit_time = rates[(i, j, item)][1]
        u = unit_mu[(i, j, item)] = \
            unit_time.numerator * (S // unit_time.denominator)
        edge_time[(i, j)] = edge_time.get((i, j), 0) + n * u

    # one-port sanity: port loads must fit in the period
    TS = T * S
    for (i, j), w in edge_time.items():
        if w > TS:
            raise ValueError(f"edge ({i!r},{j!r}) load {Fraction(w, S)} "
                             f"exceeds period {T}")
    send_load: Dict[NodeId, int] = {}
    recv_load: Dict[NodeId, int] = {}
    for (i, j), w in edge_time.items():
        send_load[i] = send_load.get(i, 0) + w
        recv_load[j] = recv_load.get(j, 0) + w
    for n_, w in list(send_load.items()) + list(recv_load.items()):
        if w > TS:
            raise ValueError(f"port load {Fraction(w, S)} at {n_!r} exceeds "
                             f"period {T}")

    # matching decomposition over send/recv ports: durations θ, in 1/S
    port_edges = [(("S", i), ("R", j), w) for (i, j), w in edge_time.items()]
    matchings = decompose_matchings(port_edges, cap=TS)

    # allocate item occupation to this edge's slots, in slot order; each
    # queue holds [item, micro-units left, micro-units per message], head
    # last
    remaining: Dict[Tuple[NodeId, NodeId], List[List]] = {}
    for (i, j, item), n in sorted(counts.items(), key=lambda kv: str(kv[0])):
        u = unit_mu[(i, j, item)]
        remaining.setdefault((i, j), []).append([item, n * u, u])
    for queue in remaining.values():
        queue.reverse()

    slots: List[Slot] = []
    for m in matchings:
        theta = m.duration
        transfers: List[Transfer] = []
        for (su, rv) in m.pairs:
            i, j = su[1], rv[1]
            queue = remaining.get((i, j))
            room = theta
            while room and queue:
                head = queue[-1]
                item, left, u = head
                take = left if left <= room else room
                gu, gt = math.gcd(take, u), math.gcd(take, S)
                transfers.append(Transfer(
                    src=i, dst=j, item=item,
                    units=raw_fraction(take // gu, u // gu),
                    time=raw_fraction(take // gt, S // gt)))
                room -= take
                if take == left:
                    queue.pop()
                else:
                    head[1] = left - take
        g = math.gcd(theta, S)
        slots.append(Slot(duration=raw_fraction(theta // g, S // g),
                          transfers=transfers))
    for (i, j), queue in remaining.items():
        if queue:
            raise RuntimeError(
                f"unallocated transfer time on edge ({i!r}, {j!r}): "
                f"{sum(q[1] for q in queue)} micro-units of 1/{S} left "
                f"after the matching decomposition")

    compute: Dict[NodeId, List[ComputeTask]] = {}
    for (node, output), (rate, inputs, unit_time) in compute_rates.items():
        n = rate.numerator * T // rate.denominator
        if n == 0:
            continue
        compute.setdefault(node, []).append(
            ComputeTask(node=node, output=output, inputs=tuple(inputs),
                        count=n, unit_time=unit_time))
    for node, tasks in compute.items():
        load = sum((ct.count * ct.unit_time for ct in tasks), 0)
        if load > T:
            raise ValueError(f"compute load {load} at {node!r} exceeds period {T}")

    return PeriodicSchedule(name=name, period=Fraction(T),
                            throughput=throughput, slots=slots,
                            per_period=per_period, deliveries=dict(deliveries),
                            compute=compute, replicas=dict(replicas or {}),
                            delivery_mode=delivery_mode)


# ----------------------------------------------------------------------
# rate bundles and schedule superposition (shared by composed collectives)
# ----------------------------------------------------------------------

#: Wrapper tag for per-stage item namespacing in composed schedules.
STAGE_TAG = "stg"


def tag_item(stage: object, item: Item) -> Item:
    """Namespace ``item`` under a composition stage."""
    return (STAGE_TAG, stage, item)


def untag_item(item: Item) -> Optional[Tuple[object, Item]]:
    """``(stage, inner item)`` if ``item`` is stage-tagged, else ``None``."""
    if isinstance(item, tuple) and len(item) == 3 and item[0] == STAGE_TAG:
        return item[1], item[2]
    return None


@dataclass
class RateBundle:
    """One schedule layer's steady-state description, pre-decomposition.

    The inputs of :func:`schedule_from_rates` as data: transfer ``rates``
    (``(src, dst, item) -> (rate, unit_time)``), ``deliveries``
    (``item -> completing node``), optional ``compute_rates`` and
    ``replicas``.  Bundles are what composed collectives superpose: each
    stage contributes one bundle, items namespaced via :meth:`tagged`.
    """

    rates: Dict[Tuple[NodeId, NodeId, Item], Tuple[object, object]]
    deliveries: Dict[Item, NodeId]
    compute_rates: Dict[Tuple[NodeId, Item], Tuple[object, Tuple[Item, ...], object]] = \
        field(default_factory=dict)
    replicas: Dict[Tuple[NodeId, Item], Tuple[Item, ...]] = field(default_factory=dict)

    def tagged(self, stage: object) -> "RateBundle":
        """The same bundle with every item namespaced under ``stage``."""
        t = lambda it: tag_item(stage, it)  # noqa: E731
        return RateBundle(
            rates={(i, j, t(it)): rt for (i, j, it), rt in self.rates.items()},
            deliveries={t(it): n for it, n in self.deliveries.items()},
            compute_rates={(n, t(out)): (r, tuple(t(x) for x in ins), u)
                           for (n, out), (r, ins, u) in self.compute_rates.items()},
            replicas={(n, t(it)): tuple(t(x) for x in reps)
                      for (n, it), reps in self.replicas.items()})

    @staticmethod
    def merge(bundles: Sequence["RateBundle"]) -> "RateBundle":
        """One bundle superposing several; item keys must be disjoint
        (raises otherwise — namespace stage items via :meth:`tagged`)."""
        return RateBundle(
            rates=_merge_disjoint((b.rates for b in bundles), "rate"),
            deliveries=_merge_disjoint((b.deliveries for b in bundles),
                                       "delivery"),
            compute_rates=_merge_disjoint((b.compute_rates for b in bundles),
                                          "compute"),
            replicas=_merge_disjoint((b.replicas for b in bundles),
                                     "replica"))


def _merge_disjoint(dicts, what: str) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            if k in out:
                raise ValueError(f"superposition: duplicate {what} key {k!r}; "
                                 "namespace stage items via RateBundle.tagged")
            out[k] = v
    return out


def superpose_schedules(bundles: Sequence[RateBundle], throughput: object,
                        name: str = "superposed",
                        delivery_mode: Optional[str] = None,
                        chain: Sequence[ChainLink] = ()) -> PeriodicSchedule:
    """One periodic schedule for several rate bundles sharing the period.

    This is the *joint* composition: every bundle's traffic runs
    concurrently inside one period, so the merged rates must jointly
    respect the one-port capacities (which is exactly what a joint LP over
    shared capacities guarantees).  Item keys must be disjoint across
    bundles — stages of a composite tag theirs via
    :meth:`RateBundle.tagged`; reduce-scatter's per-block bundles carry the
    block id inside the item already.

    ``chain`` declares cross-stage precedence (*pipelined* composition):
    the links are recorded on the schedule for the simulator's credit
    enforcement, and the slots are retimed via
    :func:`retime_for_chaining` so chained items land before they depart
    within each steady-state period.
    """
    merged = RateBundle.merge(bundles)
    sched = schedule_from_rates(merged.rates, throughput=throughput,
                                deliveries=merged.deliveries, name=name,
                                compute_rates=merged.compute_rates or None,
                                replicas=merged.replicas or None,
                                delivery_mode=delivery_mode)
    if chain:
        sched = retime_for_chaining(sched, chain)
    return sched


def retime_for_chaining(schedule: PeriodicSchedule,
                        chain: Sequence[ChainLink]) -> PeriodicSchedule:
    """Stage-offset retiming: producing slots early, consuming slots late.

    Slot order within a period is free — every slot is an independent
    matching — so reordering never changes the period, the per-port busy
    times or the per-period message counts.  This pass stably partitions
    the slots into three classes:

    1. slots that complete a chained *production* (a transfer whose item
       is a ``produced`` delivery of some link) and start no consumption,
    2. neutral slots,
    3. slots that *depart* a chained value (a transfer leaving a link's
       ``consumer`` with a ``consumed`` item) — these run last, so by the
       time they depart, this period's productions have already landed.

    A slot that both produces and consumes is conservatively placed in
    the consuming class; the simulator's credit gate (not this ordering)
    is what guarantees correctness — retiming only keeps the steady-state
    chain latency at one period instead of two.

    The returned schedule carries ``chain`` in
    :attr:`PeriodicSchedule.chain_links`.
    """
    produced = {it for ln in chain for it in ln.produced}
    departs = {(ln.consumer, it) for ln in chain for (it, _stream) in ln.consumed}

    def klass(slot: Slot) -> int:
        consume = any((t.src, t.item) in departs for t in slot.transfers)
        if consume:
            return 2
        produce = any(t.item in produced for t in slot.transfers)
        return 0 if produce else 1

    slots = sorted(schedule.slots, key=klass)  # stable: ties keep order
    # dataclasses.replace so a future PeriodicSchedule field can never be
    # silently dropped by the retiming copy
    return replace(schedule, slots=slots, chain_links=tuple(chain))


def concatenate_schedules(schedules: Sequence[PeriodicSchedule],
                          name: str = "sequential",
                          delivery_mode: Optional[str] = "sum") -> PeriodicSchedule:
    """Chain stage schedules back-to-back into one super-period.

    This is the *sequential* composition: stage ``k+1``'s phase starts when
    stage ``k``'s phase ends, so the one-port constraints hold per phase
    with no joint capacity coupling.  Each stage is rescaled so all stages
    perform the same number ``N`` of operations per super-period (``N`` =
    lcm of the per-period op counts); the composed throughput is therefore
    ``N / sum(T_k)  ==  1 / sum(1 / TP_k)`` — the harmonic composition of
    the stage throughputs.

    Stage item sets must be disjoint (tag them via :func:`retag_schedule`).
    """
    if not schedules:
        raise ValueError("need at least one schedule to concatenate")
    ops: List[int] = []
    for s in schedules:
        o = s.ops_per_period()
        if o != int(o) or o <= 0:
            raise ValueError(f"{s.name}: ops per period {o} not a positive "
                             "integer")
        ops.append(int(o))
    n_ops = 1
    for o in ops:
        n_ops = _lcm(n_ops, o)
    scaled = [s if n_ops == o else s.scaled(n_ops // o)
              for s, o in zip(schedules, ops)]
    period = sum((s.period for s in scaled), Fraction(0))
    slots = [slot for s in scaled for slot in s.slots]
    per_period = _merge_disjoint((s.per_period for s in scaled), "per-period")
    deliveries = _merge_disjoint((s.deliveries for s in scaled), "delivery")
    replicas = _merge_disjoint((s.replicas for s in scaled), "replica")
    compute: Dict[NodeId, List[ComputeTask]] = {}
    for s in scaled:
        for node, tasks in s.compute.items():
            compute.setdefault(node, []).extend(tasks)
    return PeriodicSchedule(name=name, period=period,
                            throughput=Fraction(n_ops) / period, slots=slots,
                            per_period=per_period, deliveries=deliveries,
                            compute=compute, replicas=replicas,
                            delivery_mode=delivery_mode)


def retag_schedule(schedule: PeriodicSchedule, stage: object) -> PeriodicSchedule:
    """A copy of ``schedule`` with every item namespaced under ``stage``."""
    t = lambda it: tag_item(stage, it)  # noqa: E731
    slots = [Slot(duration=s.duration,
                  transfers=[Transfer(tr.src, tr.dst, t(tr.item), tr.units,
                                      tr.time)
                             for tr in s.transfers])
             for s in schedule.slots]
    compute = {n: [ComputeTask(ct.node, t(ct.output),
                               tuple(t(x) for x in ct.inputs), ct.count,
                               ct.unit_time)
                   for ct in tasks]
               for n, tasks in schedule.compute.items()}
    return PeriodicSchedule(
        name=schedule.name, period=schedule.period,
        throughput=schedule.throughput, slots=slots,
        per_period={t(it): v for it, v in schedule.per_period.items()},
        deliveries={t(it): n for it, n in schedule.deliveries.items()},
        compute=compute,
        replicas={(n, t(it)): tuple(t(x) for x in reps)
                  for (n, it), reps in schedule.replicas.items()},
        delivery_mode=schedule.delivery_mode)


def stage_view(schedule: PeriodicSchedule, stage: object) -> PeriodicSchedule:
    """One stage's slice of a composed schedule, with items un-tagged.

    The inverse of :func:`retag_schedule` restricted to ``stage``: slots
    keep their durations but only carry the stage's transfers.  Collective
    specs use the view to derive per-stage simulator semantics from the
    composite schedule alone.
    """
    def keep(item):
        tagged = untag_item(item)
        return tagged[1] if tagged is not None and tagged[0] == stage else None

    slots = []
    for s in schedule.slots:
        transfers = []
        for tr in s.transfers:
            inner = keep(tr.item)
            if inner is not None:
                transfers.append(Transfer(tr.src, tr.dst, inner, tr.units,
                                          tr.time))
        slots.append(Slot(duration=s.duration, transfers=transfers))
    compute: Dict[NodeId, List[ComputeTask]] = {}
    for n, tasks in schedule.compute.items():
        kept = [ComputeTask(ct.node, keep(ct.output),
                            tuple(keep(x) for x in ct.inputs), ct.count,
                            ct.unit_time)
                for ct in tasks if keep(ct.output) is not None]
        if kept:
            compute[n] = kept
    return PeriodicSchedule(
        name=f"{schedule.name}#{stage}", period=schedule.period,
        throughput=schedule.throughput, slots=slots,
        per_period={inner: v for it, v in schedule.per_period.items()
                    if (inner := keep(it)) is not None},
        deliveries={inner: n for it, n in schedule.deliveries.items()
                    if (inner := keep(it)) is not None},
        compute=compute,
        replicas={(n, inner): tuple(keep(x) for x in reps)
                  for (n, it), reps in schedule.replicas.items()
                  if (inner := keep(it)) is not None},
        delivery_mode=schedule.delivery_mode)


def tree_rate_bundle(problem, trees, target: NodeId,
                     stream=lambda r: r) -> RateBundle:
    """Rate bundle of a family of weighted reduction trees.

    ``stream(r)`` is the item namespace of tree ``r`` (plain reduce uses
    the tree index; reduce-scatter wraps it as ``(block, r)``), ``target``
    receives the full interval.  ``problem`` provides ``size``,
    ``task_time``, ``platform`` and ``n_values`` — both
    :class:`~repro.core.reduce_op.ReduceProblem` and
    :class:`~repro.core.reduce_scatter.ReduceScatterProblem` qualify.
    """
    g = problem.platform
    rates: Dict[Tuple[NodeId, NodeId, Item], Tuple[object, object]] = {}
    compute_rates: Dict[Tuple[NodeId, Item], Tuple[object, Tuple[Item, ...], object]] = {}
    deliveries: Dict[Item, NodeId] = {}
    full = (0, problem.n_values - 1)
    for r, tree in enumerate(trees):
        w = tree.weight
        sid = stream(r)
        for tr in tree.transfers:
            i, j, (k, m) = tr.src, tr.dst, tr.interval
            item = ("val", (k, m), sid)
            unit_time = problem.size((k, m)) * g.cost(i, j)
            old = rates.get((i, j, item), (0, unit_time))
            rates[(i, j, item)] = (old[0] + w, unit_time)
        for tk in tree.tasks:
            node, (k, l, m) = tk.node, tk.task
            out_item = ("val", (k, m), sid)
            in_items = (("val", (k, l), sid), ("val", (l + 1, m), sid))
            unit_time = problem.task_time(node, (k, l, m))
            old = compute_rates.get((node, out_item))
            if old is None:
                compute_rates[(node, out_item)] = (w, in_items, unit_time)
            else:
                compute_rates[(node, out_item)] = \
                    (old[0] + w, in_items, unit_time)
        deliveries[("val", full, sid)] = target
    return RateBundle(rates=rates, deliveries=deliveries,
                      compute_rates=compute_rates)


def build_reduce_schedule(solution, trees=None):
    """Periodic schedule for a Series of Reduces from extracted trees.

    ``solution`` is a :class:`repro.core.reduce_op.ReduceSolution`; ``trees``
    (weighted reduction trees) default to ``solution.trees`` (extracting them
    if needed).  Requires exact rational tree weights; float solutions go
    through :func:`repro.core.fixed_period.fixed_period_approximation`.
    """
    if trees is None:
        trees = solution.trees if solution.trees is not None else solution.extract()
    problem = solution.problem
    bundle = tree_rate_bundle(problem, trees, target=problem.target)
    tp = sum((t.weight for t in trees), 0)
    return schedule_from_rates(bundle.rates, throughput=tp,
                               deliveries=bundle.deliveries,
                               name=f"reduce({problem.platform.name})",
                               compute_rates=bundle.compute_rates)
