"""Typed platform perturbations.

The steady-state LPs assume a fixed platform; this module makes the
platform *dynamic*.  A perturbation is a sequence of typed, composable
events — :class:`LinkFailure`, :class:`LinkDegradation`,
:class:`NodeFailure`, :class:`NodeJoin` — and :func:`perturb` maps
``(platform, events)`` to a perturbed platform plus a
:class:`PerturbationDelta` recording the events, whether any of them
can only shrink the feasible region (``tightened``) and a stable
``fingerprint`` of the sequence.  :func:`repro.lp.resolve.replan`
re-solves a collective on the perturbed platform.

:func:`failure_trace` is the seeded scenario generator behind the
degraded conformance axis (``tests/conformance/test_degraded.py``): it
draws events that keep the platform strongly connected, so every
registered collective's ``conformance_problem`` stays solvable on the
perturbed platform.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, List, Optional, Tuple

from repro.platform.graph import PlatformGraph

NodeId = Hashable


class PerturbationError(ValueError):
    """An event does not apply to the platform (missing edge/node, ...)."""


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkFailure:
    """The directed link ``src -> dst`` disappears.

    A physically bidirectional link failing is two events, one per
    direction — the LPs treat the directions as independent resources.
    """

    src: NodeId
    dst: NodeId

    def describe(self) -> str:
        return f"fail link {self.src!r}->{self.dst!r}"


@dataclass(frozen=True)
class LinkDegradation:
    """The link ``src -> dst`` slows down: cost is multiplied by ``factor``.

    ``factor > 1`` tightens the capacity rows (the usual degradation);
    ``0 < factor < 1`` models a link speed-up (capacity loosening).
    Integer or :class:`~fractions.Fraction` factors keep the exact
    pipeline exact.
    """

    src: NodeId
    dst: NodeId
    factor: object = 2

    def describe(self) -> str:
        return f"degrade link {self.src!r}->{self.dst!r} by {self.factor}x"


@dataclass(frozen=True)
class NodeFailure:
    """``node`` leaves: every incident link dies with it."""

    node: NodeId

    def describe(self) -> str:
        return f"fail node {self.node!r}"


@dataclass(frozen=True)
class NodeJoin:
    """A new node joins with symmetric links to existing peers.

    ``links`` is a tuple of ``(peer, cost)`` pairs; each adds both
    directed edges at that cost.  ``speed=None`` joins a pure router.
    """

    node: NodeId
    speed: Optional[object] = None
    links: Tuple[Tuple[NodeId, object], ...] = ()

    def describe(self) -> str:
        peers = ", ".join(repr(p) for p, _c in self.links)
        kind = "compute node" if self.speed else "router"
        return f"join {kind} {self.node!r} (links: {peers or 'none'})"


Event = object  # LinkFailure | LinkDegradation | NodeFailure | NodeJoin


# ----------------------------------------------------------------------
# the delta
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationDelta:
    """What a perturbation did, as the CLI and the replan report show it."""

    events: Tuple[Event, ...]
    #: True when any event can only shrink the feasible region (link or
    #: node loss, slowdown factor > 1).
    tightened: bool = False

    @property
    def fingerprint(self) -> str:
        """Stable short hash of the event sequence."""
        h = hashlib.blake2b(digest_size=8)
        for ev in self.events:
            h.update(repr(ev).encode())
        return h.hexdigest()

    def describe(self) -> str:
        return "; ".join(ev.describe() for ev in self.events) or "no events"


def _apply(g: PlatformGraph, ev: Event) -> None:
    """Apply one event to ``g`` in place."""
    if isinstance(ev, LinkFailure):
        if not g.has_edge(ev.src, ev.dst):
            raise PerturbationError(
                f"cannot fail missing link {ev.src!r}->{ev.dst!r}")
        g.remove_edge(ev.src, ev.dst)
    elif isinstance(ev, LinkDegradation):
        if not g.has_edge(ev.src, ev.dst):
            raise PerturbationError(
                f"cannot degrade missing link {ev.src!r}->{ev.dst!r}")
        f = ev.factor
        try:
            positive = f > 0
        except TypeError:
            positive = False
        if not positive:
            raise PerturbationError(f"degradation factor must be > 0, "
                                    f"got {f!r}")
        # overwrite in place: re-adding an existing edge keeps its position
        # in the adjacency order, so LPs rebuilt from the perturbed platform
        # index their variables exactly like the original
        g.add_edge(ev.src, ev.dst, g.cost(ev.src, ev.dst) * f)
    elif isinstance(ev, NodeFailure):
        if ev.node not in g:
            raise PerturbationError(f"cannot fail missing node {ev.node!r}")
        g.remove_node(ev.node)
    elif isinstance(ev, NodeJoin):
        if ev.node in g:
            raise PerturbationError(f"node {ev.node!r} already exists")
        g.add_node(ev.node, ev.speed)
        for peer, cost in ev.links:
            if peer not in g:
                raise PerturbationError(
                    f"join peer {peer!r} is not in the platform")
            g.add_link(ev.node, peer, cost)
    else:
        raise PerturbationError(f"unknown perturbation event {ev!r}")


def _tightens(ev: Event) -> bool:
    if isinstance(ev, (LinkFailure, NodeFailure)):
        return True
    if isinstance(ev, LinkDegradation):
        try:
            return ev.factor > 1
        except TypeError:
            return True
    return False


def perturb(platform: PlatformGraph, events: Iterable[Event],
            ) -> Tuple[PlatformGraph, PerturbationDelta]:
    """Apply ``events`` in order; return the new platform and its delta.

    The input platform is never mutated.  Events compose left to right:
    a later event sees the platform as shaped by the earlier ones (so a
    ``NodeJoin`` followed by a ``LinkFailure`` on one of its fresh links
    is legal).
    """
    events = tuple(events)
    g = platform.copy()
    g.name = f"{platform.name}~{'+'.join(type(e).__name__ for e in events)}" \
        if events else platform.name
    for ev in events:
        _apply(g, ev)
    return g, PerturbationDelta(events=events,
                                tightened=any(_tightens(e) for e in events))


# ----------------------------------------------------------------------
# seeded scenario generation
# ----------------------------------------------------------------------

#: Integer slowdown factors drawn by :func:`failure_trace` — integers keep
#: perturbed costs exactly rational whatever the original costs are.
TRACE_FACTORS = (2, 3, 4)


def failure_trace(platform: PlatformGraph, seed: int, n_events: int = 1,
                  allow_failures: bool = True) -> Tuple[Event, ...]:
    """Draw a deterministic degradation scenario for ``platform``.

    Events are link-level only (``LinkFailure``/``LinkDegradation``) so
    the collective's participant set survives.  A link failure is only
    drawn when removing the edge keeps the platform strongly connected —
    otherwise the trace degrades that link instead of cutting it — so
    every ``conformance_problem`` stays solvable on the perturbed
    platform.  Same ``(platform, seed)`` -> same trace, always.
    """
    rng = random.Random(seed)
    g = platform.copy()
    events: List[Event] = []
    for _ in range(n_events):
        edges = [(e.src, e.dst) for e in g.edges()]
        if not edges:
            break
        src, dst = rng.choice(edges)
        cut_ok = False
        if allow_failures and rng.random() < 0.5:
            trial = g.copy()
            trial.remove_edge(src, dst)
            cut_ok = trial.is_strongly_connected()
        if cut_ok:
            ev: Event = LinkFailure(src, dst)
        else:
            ev = LinkDegradation(src, dst, factor=rng.choice(TRACE_FACTORS))
        _apply(g, ev)
        events.append(ev)
    return tuple(events)


# ----------------------------------------------------------------------
# CLI event-spec parsing
# ----------------------------------------------------------------------

def _parse_id(token: str) -> NodeId:
    try:
        return int(token)
    except ValueError:
        return token


def parse_event(spec: str) -> Event:
    """Parse one CLI event spec.

    - ``fail:SRC:DST`` — :class:`LinkFailure`
    - ``slow:SRC:DST:FACTOR`` — :class:`LinkDegradation` (factor may be
      an integer or ``p/q``)
    - ``down:NODE`` — :class:`NodeFailure`
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind == "fail" and len(parts) == 3:
        return LinkFailure(_parse_id(parts[1]), _parse_id(parts[2]))
    if kind == "slow" and len(parts) == 4:
        return LinkDegradation(_parse_id(parts[1]), _parse_id(parts[2]),
                               factor=Fraction(parts[3]))
    if kind == "down" and len(parts) == 2:
        return NodeFailure(_parse_id(parts[1]))
    raise PerturbationError(
        f"bad event spec {spec!r} (want fail:SRC:DST, slow:SRC:DST:FACTOR "
        f"or down:NODE)")


def parse_events(text: str) -> Tuple[Event, ...]:
    """Parse a comma-separated CLI event list."""
    return tuple(parse_event(t) for t in text.split(",") if t)
