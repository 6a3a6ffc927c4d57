"""Bipartite weighted matching decomposition (Section 3.3).

The paper builds, from the LP solution, a bipartite graph with one *send
port* and one *receive port* per processor and one weighted edge per
transfer; the one-port constraints say every port's weighted degree is at
most the period ``T``.  The weighted edge-coloring algorithm of Schrijver
[23, vol. A ch. 20] then splits the graph into weighted matchings with total
weight at most ``T`` — each matching is a set of transfers that may run
simultaneously, and the sequence of matchings is the periodic schedule.

We implement the classical Birkhoff–von-Neumann-style constructive proof:

1. pad with dummy nodes/edges until every port's weighted degree is exactly
   ``T`` (possible because total sender weight equals total receiver weight),
2. work in integer *micro-units*: every weight and ``T`` is multiplied by
   the lcm of their denominators, so the rest is exact integer arithmetic
   (integer weights and ``T`` — what the schedule builder passes — are
   taken as they are).
   The padded multigraph is weighted-regular, so by Hall's theorem its
   support contains a perfect matching; find one with Kuhn's augmenting
   paths, searched by an iterative DFS over integer edge ids (no recursion,
   so long augmenting paths cannot hit the interpreter's recursion limit),
3. peel off the minimum weight ``θ`` along that matching — regularity is
   preserved and at least one edge disappears, so at most ``|E| + |U| + |V|``
   matchings are produced (polynomially many, as Theorem 1 requires).  The
   one matching is *repaired* rather than rebuilt: only the senders whose
   matched edge reached zero re-augment, over the edges still alive, which
   by regularity always succeeds,
4. report each matching restricted to its real (non-dummy) edges with its
   duration ``Fraction(θ, scale)`` (``θ`` itself for integer input);
   durations sum to exactly ``T``.

Weights and ``T`` must be exact rationals (ints or Fractions): a float
would be silently truncated by the integer scaling, so it is rejected.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Sequence, Tuple

PortId = Hashable


@dataclass
class Matching:
    """One color class: transfers that run simultaneously for ``duration``."""

    duration: object
    pairs: List[Tuple[PortId, PortId]]

    def __iter__(self):
        return iter(self.pairs)


def weighted_degrees(edges: Sequence[Tuple[PortId, PortId, object]]):
    """(sender degree map, receiver degree map) of a weighted edge list."""
    du: Dict[PortId, object] = {}
    dv: Dict[PortId, object] = {}
    for u, v, w in edges:
        du[u] = du.get(u, 0) + w
        dv[v] = dv.get(v, 0) + w
    return du, dv


def _rational(x, what: str) -> Fraction:
    if not isinstance(x, numbers.Rational):
        raise ValueError(f"{what} is {x!r} ({type(x).__name__}); matching "
                         f"weights must be exact rationals (int or Fraction)")
    return Fraction(x)


def decompose_matchings(edges: Sequence[Tuple[PortId, PortId, object]],
                        cap=None) -> List[Matching]:
    """Decompose ``{(sender, receiver): weight}`` into weighted matchings.

    ``cap`` is the period ``T``; it must dominate every port's weighted
    degree.  Defaults to the maximum weighted degree.  Returned durations sum
    to ``cap`` (idle time shows up as matchings with an empty ``pairs`` list
    when every remaining edge is a dummy).  Integer weights with an integer
    (or absent) ``cap`` are decomposed as given and each duration is the
    integer ``θ``; otherwise every weight is scaled to integer micro-units
    first and durations are ``Fraction(θ, scale)``.  Raises ``ValueError``
    for a weight or ``cap`` that is not an exact rational.
    """
    integral = (all(type(w) is int for _, _, w in edges)
                and (cap is None or type(cap) is int))
    if integral:
        ints = [e for e in edges if e[2] > 0]
        scale, top = 1, cap
    else:
        fr = [_rational(w, f"weight of edge ({u!r}, {v!r})")
              for u, v, w in edges]
        cap_fr = None if cap is None else _rational(cap, "cap")
        edges = [(u, v, f) for (u, v, _), f in zip(edges, fr) if f > 0]
        scale = math.lcm(*(f.denominator for _, _, f in edges),
                         1 if cap_fr is None else cap_fr.denominator)
        ints = [(u, v, int(f * scale)) for u, v, f in edges]
        top = None if cap_fr is None else int(cap_fr * scale)
    if not ints:
        return []
    du, dv = weighted_degrees(ints)
    maxdeg = max(list(du.values()) + list(dv.values()))
    if top is None:
        top = maxdeg
    elif maxdeg > top:
        raise ValueError(f"port degree {Fraction(maxdeg, scale)} exceeds "
                         f"cap {cap}")
    return [Matching(duration=theta if integral else Fraction(theta, scale),
                     pairs=pairs)
            for theta, pairs in _peel(ints, du, dv, top)]


def _peel(ints: List[Tuple[PortId, PortId, int]], du: Dict[PortId, int],
          dv: Dict[PortId, int], top: int) -> List[Tuple[int, list]]:
    """The integer core: ``(θ, real pairs)`` per matching of the positive
    integer-weighted ``ints`` whose port degrees ``du``/``dv`` are at most
    ``top``; the ``θ`` sum to exactly ``top``."""
    # --- pad to a weighted-regular bipartite multigraph of degree `top` ---
    n = max(len(du), len(dv))
    senders = list(du) + [("__dummy_sender__", i) for i in range(n - len(du))]
    receivers = list(dv) + [("__dummy_receiver__", i)
                            for i in range(n - len(dv))]
    sid = {u: k for k, u in enumerate(senders)}
    rid = {v: k for k, v in enumerate(receivers)}
    eu = [sid[u] for u, _, _ in ints]
    ev = [rid[v] for _, v, _ in ints]
    ew = [w for _, _, w in ints]
    pair = [(u, v) for u, v, _ in ints]
    n_real = len(ints)
    deficit_u = [top - du.get(u, 0) for u in senders]
    deficit_v = [top - dv.get(v, 0) for v in receivers]
    su = [k for k in range(n) if deficit_u[k] > 0]
    sv = [k for k in range(n) if deficit_v[k] > 0]
    iu = iv = 0
    while iu < len(su) and iv < len(sv):
        u, v = su[iu], sv[iv]
        w = min(deficit_u[u], deficit_v[v])
        eu.append(u)
        ev.append(v)
        ew.append(w)
        deficit_u[u] -= w
        deficit_v[v] -= w
        if deficit_u[u] == 0:
            iu += 1
        if deficit_v[v] == 0:
            iv += 1
    if any(deficit_u) or any(deficit_v):
        raise RuntimeError("padding failed — unbalanced deficits")

    # --- one perfect matching, peeled and repaired in place ---
    adj: List[List[int]] = [[] for _ in range(n)]
    for e, u in enumerate(eu):
        adj[u].append(e)
    match_u = [-1] * n
    match_v = [-1] * n
    seen = [0] * n  # receiver visit stamps: one fresh stamp per search
    stamp = 0
    free = range(n)
    left = top
    out: List[Tuple[int, list]] = []
    while left:
        for u in free:
            stamp += 1
            if not _augment(u, adj, eu, ev, match_u, match_v, seen, stamp):
                raise RuntimeError("no perfect matching — graph not "
                                   f"regular? stuck at {senders[u]!r}")
        theta = min(map(ew.__getitem__, match_u))
        out.append((theta, [pair[e] for e in match_u if e < n_real]))
        left -= theta
        free = []
        for u, e in enumerate(match_u):
            ew[e] -= theta
            if ew[e] == 0:
                adj[u].remove(e)
                match_u[u] = match_v[ev[e]] = -1
                free.append(u)
    return out


def _augment(root: int, adj: List[List[int]], eu: List[int], ev: List[int],
             match_u: List[int], match_v: List[int], seen: List[int],
             stamp: int) -> bool:
    """Kuhn's augmenting-path search from the free sender ``root``.

    An iterative DFS: ``stack[k]`` is the sender at depth ``k`` and the next
    position in its adjacency list, ``via[k]`` the edge taken out of it.  On
    reaching a free receiver the path is flipped into the matching.
    """
    stack = [[root, 0]]
    via: List[int] = []
    while stack:
        frame = stack[-1]
        out_edges = adj[frame[0]]
        for i in range(frame[1], len(out_edges)):
            e = out_edges[i]
            v = ev[e]
            if seen[v] == stamp:
                continue
            seen[v] = stamp
            via.append(e)
            if match_v[v] < 0:
                for f in via:
                    match_u[eu[f]] = match_v[ev[f]] = f
                return True
            frame[1] = i + 1
            stack.append([eu[match_v[v]], 0])
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False
