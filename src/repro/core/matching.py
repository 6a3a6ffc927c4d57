"""Bipartite weighted matching decomposition (Section 3.3).

The paper builds, from the LP solution, a bipartite graph with one *send
port* and one *receive port* per processor and one weighted edge per
transfer; the one-port constraints say every port's weighted degree is at
most the period ``T``.  The weighted edge-coloring algorithm of Schrijver
[23, vol. A ch. 20] then splits the graph into weighted matchings with total
weight at most ``T`` — each matching is a set of transfers that may run
simultaneously, and the sequence of matchings is the periodic schedule.

We implement the constructive König/Schrijver argument, without padding
the graph to a regular one:

1. work in integer *micro-units*: every weight and ``T`` is multiplied by
   the lcm of their denominators, so the rest is exact integer arithmetic
   (integer weights and ``T`` — what the schedule builder passes — are
   taken as they are),
2. a port is *tight* when its remaining degree equals the remaining time
   ``left``; each matching covers every tight port and need not cover
   anything else (one exists: pad to a ``left``-regular graph and take
   a perfect matching),
3. an uncovered tight port is covered by an alternating-path search, an
   iterative DFS over integer edge ids (no recursion limit to hit).  It
   ends at a free port on the other side, or at a matched edge whose
   same-side endpoint is not tight, which is then uncovered; ``M ⊕ M*``
   (Mendelsohn–Dulmage) shows one is always reachable.  The matching
   carries over between rounds,
4. peel ``θ = min(smallest matched weight, left − largest uncovered
   degree)``, the uncovered ports kept in a max-heap by degree.  Tight
   ports stay tight and each round empties a matched edge or makes a
   port tight, so at most ``|E| + |U| + |V|`` matchings are produced
   (polynomially many, as Theorem 1 requires), each with duration
   ``Fraction(θ, scale)`` (``θ`` for integer input).  Durations sum to
   exactly ``T``; idle time leads when no port starts tight.

Weights and ``T`` must be exact rationals (ints or Fractions): a float
would be silently truncated by the integer scaling, so it is rejected.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

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
    to ``cap`` (idle time shows up as a leading matching with an empty
    ``pairs`` list).  Integer weights with an integer (or absent) ``cap``
    are decomposed as given and each duration is the integer ``θ``;
    otherwise every weight is scaled to integer micro-units first and
    durations are ``Fraction(θ, scale)``.  Raises ``ValueError`` for a
    weight or ``cap`` that is not an exact rational.
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
    """The integer core: ``(θ, pairs)`` per matching of the positive
    integer-weighted ``ints`` whose port degrees ``du``/``dv`` are at most
    ``top``; the ``θ`` sum to exactly ``top``."""
    # ports are ints, senders first; edge e joins eu[e] and ends[e] - eu[e],
    # so its far end seen from port x is ends[e] - x
    sid = {u: k for k, u in enumerate(du)}
    rid = {v: len(du) + k for k, v in enumerate(dv)}
    names = [*du, *dv]
    deg = [*du.values(), *dv.values()]
    eu = [sid[u] for u, _, _ in ints]
    ends = [x + rid[v] for x, (_, v, _) in zip(eu, ints)]
    ew = [w for _, _, w in ints]
    adj: List[List[int]] = [[] for _ in names]
    for e, x in enumerate(eu):
        adj[x].append(e)
        adj[ends[e] - x].append(e)
    mate = [-1] * len(names)  # matched edge per port, -1 when uncovered
    live: Set[int] = set()    # the matched edges
    heap = [(-d, x) for x, d in enumerate(deg)]  # uncovered ports by degree
    heapq.heapify(heap)
    left = top
    tight = [x for x, d in enumerate(deg) if d == left]
    out: List[Tuple[int, list]] = []
    while left:
        for x in tight:
            if mate[x] >= 0:
                continue
            freed = _cover(x, adj, ends, mate, deg, left, live)
            if freed is None:
                raise RuntimeError(f"no matching covers the tight port "
                                   f"{names[x]!r}")
            if freed >= 0:
                heapq.heappush(heap, (-deg[freed], freed))
        while heap and (mate[heap[0][1]] >= 0
                        or deg[heap[0][1]] != -heap[0][0]):
            heapq.heappop(heap)  # stale: covered, or peeled, since pushed
        theta = left + heap[0][0] if heap else left
        for e in live:
            if ew[e] < theta:
                theta = ew[e]
        matched = sorted(live)
        out.append((theta, [ints[e][:2] for e in matched]))
        left -= theta
        tight = []
        for e in matched:
            ew[e] -= theta
            ports = (eu[e], ends[e] - eu[e])
            for x in ports:
                deg[x] -= theta
            if ew[e]:
                continue
            live.remove(e)
            for x in ports:
                adj[x].remove(e)
                mate[x] = -1
                if deg[x] == left:
                    tight.append(x)
                elif deg[x]:
                    heapq.heappush(heap, (-deg[x], x))
        while heap and -heap[0][0] >= left:
            d, x = heapq.heappop(heap)
            if mate[x] < 0 and deg[x] == -d:
                tight.append(x)  # uncovered, and now as loaded as time left
    return out


def _cover(root: int, adj: List[List[int]], ends: List[int],
           mate: List[int], deg: List[int], left: int,
           live: Set[int]) -> Optional[int]:
    """Cover the uncovered tight port ``root`` along an alternating path.

    An iterative DFS: ``stack[k]`` is the near-side port at depth ``k``
    and the next position in its adjacency list, ``via[k]`` the edge taken
    out of it.  Returns the non-tight port the flip uncovers (``-1`` if
    none), or ``None`` when no path exists.
    """
    stack = [[root, 0]]
    via: List[int] = []
    seen: Set[int] = set()
    while stack:
        frame = stack[-1]
        x = frame[0]
        out_edges = adj[x]
        for i in range(frame[1], len(out_edges)):
            e = out_edges[i]
            y = ends[e] - x
            if y in seen:
                continue
            seen.add(y)
            via.append(e)
            f = mate[y]
            if f < 0 or deg[ends[f] - y] < left:
                x = root
                for g in via:
                    y = ends[g] - x
                    f, mate[x], mate[y] = mate[y], g, g
                    live.add(g)
                    if f >= 0:
                        live.remove(f)
                        x = ends[f] - y
                        mate[x] = -1
                return x if f >= 0 else -1
            frame[1] = i + 1
            stack.append([ends[f] - y, 0])
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return None
