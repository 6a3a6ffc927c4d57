"""Unit tests for shortest-path routing."""

import random
from fractions import Fraction

import pytest

from repro.platform.generators import chain, random_connected, ring
from repro.platform.graph import PlatformGraph
from repro.platform.routing import (
    dijkstra, eccentricity_bound, graph_width, path_cost, shortest_path,
    shortest_path_tree, tree_path,
)


@pytest.fixture
def diamond():
    # a -> b -> d (cost 1+1), a -> c -> d (cost 3+? ) with a cheaper detour
    g = PlatformGraph("diamond")
    for n in "abcd":
        g.add_node(n, 1)
    g.add_edge("a", "b", 1)
    g.add_edge("b", "d", 1)
    g.add_edge("a", "c", 3)
    g.add_edge("c", "d", 1)
    return g


class TestDijkstra:
    def test_distances(self, diamond):
        dist, _ = dijkstra(diamond, "a")
        assert dist == {"a": 0, "b": 1, "c": 3, "d": 2}

    def test_parent_reconstruction(self, diamond):
        assert shortest_path(diamond, "a", "d") == ["a", "b", "d"]

    def test_unreachable_returns_none(self, diamond):
        diamond.add_node("z", 1)
        assert shortest_path(diamond, "a", "z") is None

    def test_unknown_source_raises(self, diamond):
        with pytest.raises(KeyError):
            dijkstra(diamond, "nope")

    def test_fraction_costs(self):
        g = PlatformGraph()
        g.add_edge("a", "b", Fraction(1, 3))
        g.add_edge("b", "c", Fraction(1, 6))
        dist, _ = dijkstra(g, "a")
        assert dist["c"] == Fraction(1, 2)

    def test_directed_asymmetry(self, diamond):
        # no edges back toward 'a'
        dist, _ = dijkstra(diamond, "d")
        assert set(dist) == {"d"}

    def test_prefers_cheap_multi_hop_over_expensive_direct(self):
        g = PlatformGraph()
        g.add_edge("a", "d", 10)
        g.add_edge("a", "b", 1)
        g.add_edge("b", "d", 1)
        assert shortest_path(g, "a", "d") == ["a", "b", "d"]


class TestPathHelpers:
    def test_path_cost(self, diamond):
        assert path_cost(diamond, ["a", "c", "d"]) == 4

    def test_path_cost_single_node(self, diamond):
        assert path_cost(diamond, ["a"]) == 0

    def test_shortest_path_tree_edges(self, diamond):
        t = shortest_path_tree(diamond, "a")
        assert t.has_edge("a", "b") and t.has_edge("b", "d")
        assert t.has_edge("a", "c")
        assert not t.has_edge("c", "d")
        assert t.num_edges() == 3

    def test_spt_keeps_speeds(self, diamond):
        t = shortest_path_tree(diamond, "a")
        assert t.speed("b") == 1


class TestCanonicalTieBreaking:
    """Equal-cost ties must resolve independently of edge insertion order
    (PR 10 regression: the planner memoises routes per (src, dst), so an
    order-dependent tree would make baseline plans non-deterministic)."""

    @staticmethod
    def _equal_diamond(order):
        g = PlatformGraph("tie")
        for n in "sabt":
            g.add_node(n, 1)
        for src, dst in order:
            g.add_edge(src, dst, 1)
        return g

    ORDERS = [
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        [("s", "b"), ("s", "a"), ("b", "t"), ("a", "t")],
    ]

    def test_parent_picks_min_name_predecessor(self):
        for order in self.ORDERS:
            g = self._equal_diamond(order)
            dist, parent = dijkstra(g, "s")
            assert dist["t"] == 2
            assert parent["t"] == "a", order

    def test_path_and_tree_are_insertion_order_independent(self):
        g1, g2 = (self._equal_diamond(o) for o in self.ORDERS)
        assert shortest_path(g1, "s", "t") == shortest_path(g2, "s", "t") \
            == ["s", "a", "t"]
        t1, t2 = shortest_path_tree(g1, "s"), shortest_path_tree(g2, "s")
        edges1 = {(e.src, e.dst) for e in t1.edges()}
        edges2 = {(e.src, e.dst) for e in t2.edges()}
        assert edges1 == edges2
        assert ("a", "t") in edges1 and ("b", "t") not in edges1

    @pytest.mark.parametrize("seed", range(12))
    def test_early_stop_keeps_every_target_path(self, seed):
        # costs in {1, 2} on a dense random graph: many equal-cost ties,
        # so a stop that froze a parent too early would change a path
        g = random_connected(24, extra_edges=40, seed=seed,
                             cost_choices=(1, 2))
        rng = random.Random(seed)
        nodes = g.nodes()
        for source in rng.sample(nodes, 4):
            dist, parent = dijkstra(g, source)
            for k in (1, 3, 10, len(nodes)):
                targets = rng.sample(nodes, k)
                d, p = dijkstra(g, source, targets)
                for t in targets:
                    assert d[t] == dist[t]
                    assert tree_path(p, t) == tree_path(parent, t), (
                        source, t)

    def test_fig2_spt_is_pinned(self):
        from repro.platform.examples import figure2_platform

        t = shortest_path_tree(figure2_platform(), "Ps")
        edges = {(e.src, e.dst) for e in t.edges()}
        assert edges == {("Ps", "Pa"), ("Ps", "Pb"),
                         ("Pa", "P0"), ("Pb", "P1")}


class TestWidth:
    def test_graph_width_chain(self):
        g = chain(4, cost=2)
        assert graph_width(g, "p0") == 6

    def test_eccentricity_bound_dominates_width(self):
        g = ring(5, cost=1)
        assert eccentricity_bound(g) >= graph_width(g, "p0")
