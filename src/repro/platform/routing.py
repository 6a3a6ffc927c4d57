"""Shortest-path routing on platform graphs.

Used by the store-and-forward baselines (which fix one route per message,
unlike the LP which is free to split traffic across routes — that freedom is
precisely what the paper's Figure 2 exploits) and by the schedule
initialization bound of Section 3.4 (graph "width" I).
"""

from __future__ import annotations

import heapq
from typing import Collection, Dict, List, Optional, Tuple

from repro.platform.graph import NodeId, PlatformGraph


def dijkstra(g: PlatformGraph, source: NodeId,
             targets: Optional[Collection[NodeId]] = None,
             ) -> Tuple[Dict[NodeId, object], Dict[NodeId, Optional[NodeId]]]:
    """Single-source shortest path by edge cost.

    Returns ``(dist, parent)`` where ``dist[v]`` is the minimal total cost of
    a path ``source -> v`` and ``parent[v]`` the predecessor of ``v`` on one
    such path (``None`` for the source and unreachable nodes).

    Costs may be ints, Fractions or floats; they only need to support ``+``
    and ``<`` (which all three do, including mixed int/Fraction).

    Equal-cost ties are broken canonically: among all shortest-path
    predecessors of ``v``, the one with the smallest ``str()`` wins, so
    the returned tree (and every route the baselines fix from it) is a
    pure function of the platform — independent of edge insertion order.

    With ``targets`` the search stops once every one of them is settled;
    entries of settled nodes (every reachable target among them) are the
    full search's, the rest are tentative.  Costs are ``> 0``
    (:meth:`PlatformGraph.add_edge` enforces it), so a node that could
    still repoint a settled node's parent at equal distance is nearer to
    the source and was settled first.
    """
    if source not in g:
        raise KeyError(f"unknown source {source!r}")
    pending = None if targets is None else set(targets)
    dist: Dict[NodeId, object] = {source: 0}
    parent: Dict[NodeId, Optional[NodeId]] = {source: None}
    # heap entries carry an insertion counter so unorderable node ids are fine
    counter = 0
    heap: List[Tuple[object, int, NodeId]] = [(0, counter, source)]
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if pending is not None:
            pending.discard(u)
            if not pending:
                break
        for e in sorted(g.out_edges(u), key=lambda e: str(e.dst)):
            nd = d + e.cost
            if e.dst not in dist or nd < dist[e.dst]:
                dist[e.dst] = nd
                parent[e.dst] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, e.dst))
            elif nd == dist[e.dst] and parent[e.dst] is not None \
                    and str(u) < str(parent[e.dst]):
                # same distance, canonically smaller predecessor: keep the
                # distance (no re-push needed) but repoint the parent, so
                # the tie never falls back to relaxation order
                parent[e.dst] = u
    return dist, parent


def shortest_path(g: PlatformGraph, source: NodeId, target: NodeId) -> Optional[List[NodeId]]:
    """Minimum-cost node path ``source -> ... -> target``; ``None`` if unreachable."""
    return tree_path(dijkstra(g, source, (target,))[1], target)


def tree_path(parent: Dict[NodeId, Optional[NodeId]],
              target: NodeId) -> Optional[List[NodeId]]:
    """The root-to-``target`` path of a :func:`dijkstra` parent map
    (``None`` if ``target`` is unreachable).  One Dijkstra run thus routes
    every destination of a source, on the same canonical tree."""
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def path_cost(g: PlatformGraph, path: List[NodeId]) -> object:
    """Total cost of a node path (sum of its edge costs)."""
    total = 0
    for u, v in zip(path, path[1:]):
        total = total + g.cost(u, v)
    return total


def shortest_path_tree(g: PlatformGraph, source: NodeId) -> PlatformGraph:
    """Subgraph keeping, for every reachable node, only its shortest-path
    parent edge.  This is the single-route topology the tree baselines use.
    """
    dist, parent = dijkstra(g, source)
    t = PlatformGraph(f"{g.name}-spt")
    for n in g.nodes():
        if n in dist:
            t.add_node(n, g.speed(n))
    for v, u in parent.items():
        if u is not None:
            t.add_edge(u, v, g.cost(u, v))
    return t


def graph_width(g: PlatformGraph, source: NodeId) -> object:
    """Maximal shortest-path latency from ``source`` to any reachable node.

    Section 3.4 calls this the maximal "width" of the graph; it bounds the
    duration of the initialization phase of the periodic schedule.
    """
    dist, _ = dijkstra(g, source)
    return max(dist.values())


def eccentricity_bound(g: PlatformGraph) -> object:
    """Upper bound on the width over all sources (max over compute nodes)."""
    best = 0
    for n in g.nodes():
        dist, _ = dijkstra(g, n)
        m = max(dist.values())
        if m > best:
            best = m
    return best
