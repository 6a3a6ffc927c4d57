"""Seeded instance generation and the three request streams.

Every platform is built here through ``PlatformGraph.add_node`` /
``add_link`` from the benchmark's own ``random.Random``, and the paper's
platforms are read from ``data/paper_platforms.json``; nothing comes from
``repro.platform.generators`` or ``repro.platform.examples``, so an edit
to those modules cannot change a workload.

A stream is an infinite, deterministic sequence of requests: request
``i`` depends only on ``(workload, seed, i)``.  It runs in cycles of
``CYCLE[workload]`` requests that fill the same slots in the same order.
Requests hold recipes, not problem objects: each execution builds a
fresh problem, so no per-problem memo inside the library (baseline
plans, composite stage lists) can carry work from one request to the
next.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.platform.graph import PlatformGraph

DATA = Path(__file__).resolve().parent / "data" / "paper_platforms.json"

WORKLOADS = ("paper_mix", "datacenter_scale", "baseline_scale")

#: Seed for confirming a claimed gain; never used while tuning a change.
HELD_OUT_SEED = 9001


@dataclass
class Request:
    """One closed-loop request: a cold plan or a replan of an earlier one."""

    kind: str                      # "plan" | "replan"
    label: str                     # instance name, printed with failures
    #: the cycle slot this request fills, named the same in every cycle
    #: and for every seed
    slot: str = ""
    build: Optional[Callable[[], object]] = None   # fresh problem per call
    collective: Optional[str] = None
    mode: Optional[str] = None
    #: reference for the TP check: a pinned exact rational, "highs" (the
    #: float optimum of the same instance), or "sim" (LP-free baselines:
    #: the simulator's steady-window rate is the reference)
    expect: object = "highs"
    replay: bool = True
    #: the replay runs to this many times ``pipeline.TARGET`` past fill
    replay_work: int = 1
    #: times the plan is replayed, each replay timed on its own
    replay_repeats: int = 1
    #: replans may target this plan, so the client keeps it
    keep: bool = False
    #: replans: index of the earlier plan in the stream, and the fault
    target: Optional[int] = None
    event: object = None
    #: canonical description hashed into the instance digest
    recipe: Tuple = field(default_factory=tuple)


# ----------------------------------------------------------------------
# platforms
# ----------------------------------------------------------------------

def paper_platform(key: str):
    """A frozen paper platform (``fig2`` / ``fig6`` / ``fig9``)."""
    spec = json.loads(DATA.read_text())[key]
    g = PlatformGraph(spec["name"])
    for node, speed in spec["nodes"]:
        g.add_node(node, speed)
    for src, dst, cost in spec["edges"]:
        g.add_edge(src, dst, Fraction(cost))
    return g


def random_platform(rng: random.Random, n: int, name: str):
    """Heterogeneous connected platform: random spanning tree plus about
    n/2 extra links; speeds in {1,2,4,8}, symmetric costs in {1..4}."""
    g = PlatformGraph(name)
    for i in range(n):
        g.add_node(f"n{i}", rng.choice((1, 2, 4, 8)))
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        g.add_link(f"n{a}", f"n{b}", rng.choice((1, 2, 3, 4)))
    added = 0
    while added < n // 2:
        a, b = rng.sample(range(n), 2)
        if not g.has_edge(f"n{a}", f"n{b}"):
            g.add_link(f"n{a}", f"n{b}", rng.choice((1, 2, 3, 4)))
            added += 1
    return g


def ring_platform(n: int, costs: List[int], name: str):
    g = PlatformGraph(name)
    for i in range(n):
        g.add_node(f"p{i}", 1)
    for i in range(n):
        g.add_link(f"p{i}", f"p{(i + 1) % n}", costs[i])
    return g


def complete_platform(n: int, name: str):
    g = PlatformGraph(name)
    for i in range(n):
        g.add_node(f"p{i}", 1)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_link(f"p{i}", f"p{j}", 1)
    return g


def fat_tree_platform(k: int, speeds: List[int], name: str):
    """k-ary fat-tree, unit links; ``speeds`` lists the k^3/4 host speeds."""
    g = PlatformGraph(name)
    half = k // 2
    for i in range(half):
        for j in range(half):
            g.add_node(f"c{i}_{j}", None)
    host = 0
    for p in range(k):
        for a in range(half):
            g.add_node(f"a{p}_{a}", None)
            for j in range(half):
                g.add_link(f"a{p}_{a}", f"c{a}_{j}", 1)
        for e in range(half):
            g.add_node(f"e{p}_{e}", None)
            for a in range(half):
                g.add_link(f"e{p}_{e}", f"a{p}_{a}", 1)
            for _ in range(half):
                g.add_node(f"h{host}", speeds[host])
                g.add_link(f"e{p}_{e}", f"h{host}", 1)
                host += 1
    return g


def cluster_platform(rng: random.Random, clusters: int, hosts: int, name: str):
    """Two-level cluster: gateway routers on a ring of cost-5 links, hosts
    on unit links, seeded host speeds."""
    g = PlatformGraph(name)
    for c in range(clusters):
        g.add_node(f"r{c}", None)
        for h in range(hosts):
            g.add_node(f"c{c}h{h}", rng.choice((1, 2, 4, 8)))
            g.add_link(f"r{c}", f"c{c}h{h}", 1)
    for c in range(clusters):
        g.add_link(f"r{c}", f"r{(c + 1) % clusters}", 5)
    return g


def platform_recipe(g) -> Tuple:
    """Canonical, hashable description of a platform."""
    nodes = tuple((repr(n), repr(g.speed(n))) for n in g.nodes())
    edges = tuple(sorted((repr(e.src), repr(e.dst), str(e.cost))
                         for e in g.edges()))
    return (g.name, nodes, edges)


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------

def _problem(kind: str, g, nodes: Tuple, **kw):
    """Fresh problem of ``kind`` on a private copy of ``g``."""
    g = g.copy()
    if kind == "scatter":
        from repro.core.scatter import ScatterProblem
        return ScatterProblem(g, nodes[0], list(nodes[1:]))
    if kind == "reduce":
        from repro.core.reduce_op import ReduceProblem
        return ReduceProblem(g, list(nodes[1:]), nodes[0], **kw)
    if kind == "gossip":
        from repro.core.gossip import GossipProblem
        half = len(nodes) // 2
        return GossipProblem(g, list(nodes[:half]), list(nodes[half:]))
    if kind == "broadcast":
        from repro.core.broadcast import BroadcastProblem
        return BroadcastProblem(g, nodes[0], list(nodes[1:]))
    if kind == "all-gather":
        from repro.core.allgather import AllGatherProblem
        return AllGatherProblem(g, list(nodes))
    if kind == "reduce-scatter":
        from repro.core.reduce_scatter import ReduceScatterProblem
        return ReduceScatterProblem(g, list(nodes), **kw)
    if kind == "all-reduce":
        from repro.core.allreduce import AllReduceProblem
        return AllReduceProblem(g, list(nodes), **kw)
    raise ValueError(f"unknown problem kind {kind!r}")


def plan_request(label: str, kind: str, g, nodes, collective=None,
                 mode=None, expect="highs", replay=True, replay_work=1,
                 replay_repeats=1, keep=False, slot=None, **kw) -> Request:
    nodes = tuple(nodes)
    recipe = (label, kind, collective, mode, repr(nodes),
              tuple(sorted((k, repr(v)) for k, v in kw.items())),
              platform_recipe(g), replay_work, replay_repeats)
    return Request(kind="plan", label=label, slot=slot or label,
                   build=lambda: _problem(kind, g, nodes, **kw),
                   collective=collective, mode=mode, expect=expect,
                   replay=replay, replay_work=replay_work,
                   replay_repeats=replay_repeats, keep=keep, recipe=recipe)


# ----------------------------------------------------------------------
# paper_mix
# ----------------------------------------------------------------------

#: One cycle of the paper_mix stream.  ``None`` is a replan slot (3 in 15,
#: one request in five).  Random slots carry their participant count and
#: node count, so every cycle plans the same mix of kinds and sizes on a
#: fresh seeded platform; the LPs of broadcasts and reductions grow
#: fastest with the platform, so they get the smaller ones.
PAPER_CYCLE = (
    "fig2:scatter", ("scatter", 5, 20), ("gossip", 4, 12), None,
    "fig6:reduce", ("broadcast", 0, 8), ("reduce", 4, 8), None,
    "fig9:reduce", ("all-gather", 0, 5), ("reduce-scatter", 3, 6),
    ("all-reduce/sequential", 0, 4), None,
    ("all-reduce/pipelined", 3, 6), ("scatter", 7, 14),
)

#: Kinds whose plans replan slots may target.  A warm replan of a seeded
#: 8-node random reduce under a x3 link degradation ran the revised dual
#: simplex for over 25 s, so replans stay on the path-flow collectives.
REPLANNABLE = ("scatter", "gossip")

#: A replan targets one of this many latest replannable plans.
REPLAN_WINDOW = 3

PINNED_PAPER = {
    "fig2:scatter": ("fig2", "scatter", ("Ps", "P0", "P1"), {}, Fraction(1, 2)),
    "fig6:reduce": ("fig6", "reduce", (0, 0, 1, 2), {}, Fraction(1)),
    "fig9:reduce": ("fig9", "reduce", (6, 11, 8, 13, 9, 6, 12, 7, 10),
                    {"msg_size": 10, "task_work": 10}, Fraction(2, 9)),
}


def _paper_mix(seed: int) -> Iterator[Request]:
    paper = {key: paper_platform(key) for key in ("fig2", "fig6", "fig9")}
    rng = random.Random(f"paper_mix:{seed}")
    planned: List[int] = []        # stream indices of replannable plans
    i = 0
    while True:
        for slot in PAPER_CYCLE:
            if slot is None:
                yield _replan_request(rng, i, planned)
            elif isinstance(slot, str):
                key, kind, nodes, kw, tp = PINNED_PAPER[slot]
                keep = kind in REPLANNABLE
                if keep:
                    planned.append(i)
                    del planned[:-REPLAN_WINDOW]
                yield plan_request(slot, kind, paper[key], nodes,
                                   expect=tp, keep=keep, **kw)
            else:
                n = slot[2]
                kind, mode = (slot[0].split("/") + [None])[:2]
                g = random_platform(rng, n, f"rand{n}s{seed}r{i}")
                # broadcast, all-gather and the broadcast stage of a
                # sequential all-reduce pack arborescences, guaranteed
                # only when every node is a target (else a Steiner gap
                # can stall the packing: seed 707 drew one on 3 of 6)
                count = n if slot[1] == 0 else min(slot[1], n)
                nodes = rng.sample(g.nodes(), count)
                if kind == "reduce":  # target first, then participants
                    nodes = [nodes[0]] + nodes
                keep = kind in REPLANNABLE
                if keep:
                    planned.append(i)
                    del planned[:-REPLAN_WINDOW]
                yield plan_request(f"{g.name}:{slot[0]}", kind, g, nodes,
                                   collective=kind if kind == "reduce" else None,
                                   mode=mode, keep=keep,
                                   slot=f"{slot[0]}:{count}of{n}")
            i += 1


def _replan_request(rng: random.Random, i: int, planned: List[int]) -> Request:
    """A seeded fault against one of the last few replannable plans; the
    event itself is drawn when the target's platform is known."""
    target = planned[-1 - rng.randrange(len(planned))]
    return Request(kind="replan", label=f"replan@{i}", slot="replan",
                   target=target,
                   event=(rng.random(), rng.random(), rng.choice((2, 3, Fraction(3, 2)))),
                   recipe=("replan", i, target))


def draw_event(sol, draw) -> object:
    """Turn a replan draw into a concrete event on a link ``sol`` uses: a
    link failure when the directed link can go without disconnecting the
    platform, a degradation otherwise.  A used link makes the fault
    visible to the running schedule, so the faulted replay switches."""
    from repro.platform.perturb import LinkDegradation, LinkFailure

    g = sol.problem.platform
    edges = sorted({sol.spec.send_edge(key) for key in sol.send}, key=repr)
    u, kind, factor = draw
    src, dst = edges[int(u * len(edges))]
    if kind < 0.5:
        h = g.copy()
        h.remove_edge(src, dst)
        if h.is_strongly_connected():
            return LinkFailure(src, dst)
    return LinkDegradation(src, dst, factor)


# ----------------------------------------------------------------------
# datacenter_scale
# ----------------------------------------------------------------------

#: A fat-tree scatter replay at the default target lasts about 10 ms
#: beside a 1.5 s plan, too short to time steadily, so the datacenter
#: replays run 16 times the target; and a run holds only three or four
#: cycles, so each plan is replayed three times.
DATACENTER_REPLAY = {"replay_work": 16, "replay_repeats": 3}


def _datacenter_scale(seed: int) -> Iterator[Request]:
    """Four large exact plans, cycled, each with a pinned optimum: ring64
    scatter 1/63 (colgen), fat-tree k=6 scatter
    1/53 (colgen), the fig9 8-host pipelined all-reduce 2/81 (colgen),
    complete12 reduce 1 (revised engine; plan only: its period is
    3,219,600, so no bounded replay fits).  Sources and order stay fixed
    -- another source on these symmetric platforms changes the solve time
    (variable order) but not the problem -- so the seed only draws the
    fat-tree host speeds, which a scatter does not use."""
    rng = random.Random(f"datacenter_scale:{seed}")
    fig9 = paper_platform("fig9")
    fig9_hosts = (11, 8, 13, 9, 6, 12, 7, 10)
    ring = ring_platform(64, [1] * 64, "ring64")
    ft = fat_tree_platform(6, [rng.randint(10, 100) for _ in range(54)],
                           f"fattree6s{seed}")
    hosts = [f"h{i}" for i in range(54)]
    c12 = complete_platform(12, "complete12")
    while True:
        mix = [
            plan_request("ring64:scatter", "scatter", ring, ring.nodes(),
                         expect=Fraction(1, 63),
                         **DATACENTER_REPLAY),
            plan_request("fattree6:scatter", "scatter", ft, hosts,
                         expect=Fraction(1, 53),
                         **DATACENTER_REPLAY),
            plan_request("fig9-8host:all-reduce/pipelined", "all-reduce",
                         fig9, fig9_hosts, mode="pipelined",
                         expect=Fraction(2, 81), msg_size=10, task_work=10),
            plan_request("complete12:reduce", "reduce", c12,
                         [c12.nodes()[0]] + c12.nodes(),
                         collective="reduce", expect=Fraction(1),
                         replay=False),
        ]
        yield from mix


# ----------------------------------------------------------------------
# baseline_scale
# ----------------------------------------------------------------------

def _baseline_scale(seed: int) -> Iterator[Request]:
    """Classical plans, no LP: direct scatter on 8x31 and 16x31 two-level
    clusters, ring all-gather / reduce-scatter on 32- and 64-node rings.
    The scatter source is the first host: on a 16x31 cluster the source
    alone moved the plan time from 1.8 to 3.4 s (382 to 479 schedule
    slots, through name-ordered route tie-breaks), so a seeded source
    would make the seed, not the code, set the figures.  The seed draws
    the host speeds and the ring link costs."""
    rng = random.Random(f"baseline_scale:{seed}")
    i = 0
    while True:
        mix = []
        for clusters in (8, 16):
            g = cluster_platform(rng, clusters, 31,
                                 f"cluster{clusters}x31s{seed}r{i}")
            hosts = [n for n in g.nodes() if g.is_compute(n)]
            mix.append(plan_request(f"{g.name}:direct-scatter", "scatter", g,
                                    hosts,
                                    collective="direct-scatter", expect="sim",
                                    slot=f"cluster{clusters}x31:direct-scatter"))
        for kind, algo in (("all-gather", "ring-all-gather"),
                           ("reduce-scatter", "ring-reduce-scatter")):
            for n in (32, 64):
                g = ring_platform(n, [rng.choice((1, 2)) for _ in range(n)],
                                  f"ring{n}s{seed}r{i}")
                mix.append(plan_request(f"{g.name}:{algo}", kind, g,
                                        g.nodes(), collective=algo,
                                        expect="sim", slot=f"ring{n}:{algo}"))
        rng.shuffle(mix)
        i += 1
        yield from mix


STREAMS: Dict[str, Callable[[int], Iterator[Request]]] = {
    "paper_mix": _paper_mix,
    "datacenter_scale": _datacenter_scale,
    "baseline_scale": _baseline_scale,
}

#: Requests per stream cycle: runs stop only at a cycle boundary, so
#: every run measures the same mix of slots.
CYCLE = {"paper_mix": len(PAPER_CYCLE), "datacenter_scale": 4,
         "baseline_scale": 6}


def warmup_requests() -> List[Request]:
    """Small plans that touch the tableau and both replay engines, so
    lazy imports and first-call costs land in set-up."""
    return [plan_request(slot, kind, paper_platform(key), nodes, **kw)
            for slot, (key, kind, nodes, kw, _tp) in PINNED_PAPER.items()
            if key != "fig9"]


def stream(workload: str, seed: int) -> Iterator[Request]:
    return STREAMS[workload](seed)


def instance_digest(workload: str, seed: int, n: int = 0) -> str:
    """Digest of the first ``n`` requests (default: four cycles)."""
    n = n or 4 * CYCLE[workload]
    h = hashlib.sha256()
    for _, req in zip(range(n), stream(workload, seed)):
        h.update(repr(req.recipe).encode())
        h.update(repr(req.event).encode())
    return h.hexdigest()
