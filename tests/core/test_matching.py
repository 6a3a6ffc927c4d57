"""Unit tests for the bipartite matching decomposition."""

import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import matching
from repro.core.matching import (
    Matching, decompose_matchings, weighted_degrees,
)
from repro.core.schedule import schedule_from_rates

SRC = Path(__file__).resolve().parents[2] / "src"


def check_decomposition(edges, matchings, cap):
    """Common invariants of any valid decomposition."""
    # 1. durations sum to exactly cap
    assert sum((m.duration for m in matchings), 0) == cap
    # 2. every matching is node-disjoint
    for m in matchings:
        snd = [u for u, _ in m.pairs]
        rcv = [v for _, v in m.pairs]
        assert len(snd) == len(set(snd))
        assert len(rcv) == len(set(rcv))
    # 3. total time per edge is reproduced exactly
    shipped = {}
    for m in matchings:
        for (u, v) in m.pairs:
            shipped[(u, v)] = shipped.get((u, v), 0) + m.duration
    want = {}
    for (u, v, w) in edges:
        want[(u, v)] = want.get((u, v), 0) + w
    assert shipped == want


def check_certificate(edges, matchings, cap):
    """The invariants above plus the polynomial slot bound
    ``len(ms) <= |E| + |U| + |V|`` (each peel retires an edge)."""
    check_decomposition(edges, matchings, cap)
    n_edges = len({(u, v) for u, v, _ in edges})
    n_ports = len({u for u, _, _ in edges}) + len({v for _, v, _ in edges})
    assert len(matchings) <= n_edges + n_ports


class TestDecompose:
    def test_single_edge(self):
        edges = [("s1", "r1", 3)]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 3)

    def test_two_disjoint_edges_run_together(self):
        edges = [("s1", "r1", 2), ("s2", "r2", 2)]
        ms = decompose_matchings(edges)
        real = [m for m in ms if m.pairs]
        assert len(real) == 1 and len(real[0].pairs) == 2
        check_decomposition(edges, ms, 2)

    def test_conflicting_edges_serialize(self):
        edges = [("s1", "r1", 1), ("s1", "r2", 1)]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 2)

    def test_fraction_weights(self):
        edges = [("a", "x", Fraction(1, 3)), ("a", "y", Fraction(1, 6)),
                 ("b", "x", Fraction(1, 6))]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, Fraction(1, 2))

    def test_cap_above_max_degree_pads_idle(self):
        edges = [("s", "r", 1)]
        ms = decompose_matchings(edges, cap=5)
        check_decomposition(edges, ms, 5)

    def test_cap_below_degree_rejected(self):
        with pytest.raises(ValueError):
            decompose_matchings([("s", "r", 3)], cap=2)

    def test_empty_input(self):
        assert decompose_matchings([]) == []

    def test_zero_weight_edges_dropped(self):
        ms = decompose_matchings([("s", "r", 0), ("s", "q", 2)])
        check_decomposition([("s", "q", 2)], ms, 2)

    def test_polynomial_matching_count(self):
        # count is bounded by edges + padding, never explodes
        edges = [(f"s{i}", f"r{j}", 1) for i in range(4) for j in range(4)]
        ms = decompose_matchings(edges)
        assert len(ms) <= len(edges) + 9
        check_decomposition(edges, ms, 4)

    def test_figure3_instance(self):
        """The paper's Figure 3: the Fig-2 LP communication graph decomposes
        into matchings of total weight 12 (four in the paper's solution)."""
        edges = [("Ps", "rPa", 3), ("Ps", "rPb", 9),
                 ("Pa", "rP0", 2), ("Pb", "rP0", 4), ("Pb", "rP1", 8)]
        ms = decompose_matchings(edges, cap=12)
        check_decomposition(edges, ms, 12)
        real = [m for m in ms if m.pairs]
        assert len(real) <= 5  # paper exhibits 4; any small count is valid

    def test_unbalanced_sides(self):
        edges = [("s1", "r1", 1), ("s2", "r1", 1), ("s3", "r1", 1)]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 3)

    def test_regular_graph_perfect_matchings(self):
        # 2-regular bipartite graph: every matching should be perfect
        edges = [("a", "x", 1), ("a", "y", 1), ("b", "x", 1), ("b", "y", 1)]
        ms = decompose_matchings(edges)
        for m in ms:
            assert len(m.pairs) == 2
        check_decomposition(edges, ms, 2)


@st.composite
def large_bipartite(draw):
    """Up to 40 ports per side, Fraction weights, ``cap`` at or above the
    maximum weighted degree."""
    ns = draw(st.integers(min_value=1, max_value=40))
    nr = draw(st.integers(min_value=1, max_value=40))
    weight = st.fractions(min_value=Fraction(1, 30), max_value=Fraction(5),
                          max_denominator=30)
    pairs = draw(st.lists(st.tuples(st.integers(0, ns - 1),
                                    st.integers(0, nr - 1)),
                          min_size=1, max_size=160, unique=True))
    edges = [(f"s{u}", f"r{v}", draw(weight)) for u, v in pairs]
    du, dv = weighted_degrees(edges)
    slack = draw(st.fractions(min_value=0, max_value=Fraction(3),
                              max_denominator=7))
    return edges, max([*du.values(), *dv.values()]) + slack


@st.composite
def lopsided_bipartite(draw):
    """1-3 senders against up to 300 receivers (or, flipped, the other way
    round): the one-source scatter shape.  Integer weights, or the same
    weights over a common denominator; ``cap`` at or above the maximum
    weighted degree."""
    ns = draw(st.integers(min_value=1, max_value=3))
    nr = draw(st.integers(min_value=1, max_value=300))
    pairs = draw(st.lists(st.tuples(st.integers(0, ns - 1),
                                    st.integers(0, nr - 1)),
                          min_size=1, max_size=400, unique=True))
    den = draw(st.sampled_from([1, 7]))
    edges = [(f"s{u}", f"r{v}", Fraction(draw(st.integers(1, 40)), den)
              if den > 1 else draw(st.integers(1, 40))) for u, v in pairs]
    if draw(st.booleans()):
        edges = [(v, u, w) for u, v, w in edges]
    du, dv = weighted_degrees(edges)
    slack = draw(st.integers(min_value=0, max_value=30))
    return edges, max([*du.values(), *dv.values()]) + slack


class TestCertificate:
    @given(large_bipartite())
    @settings(max_examples=40, deadline=None)
    def test_large_fraction_instances(self, case):
        edges, cap = case
        check_certificate(edges, decompose_matchings(edges, cap=cap), cap)

    @given(lopsided_bipartite())
    @settings(max_examples=40, deadline=None)
    def test_lopsided_instances(self, case):
        edges, cap = case
        check_certificate(edges, decompose_matchings(edges, cap=cap), cap)

    def test_cluster1025_rate_set(self):
        """The 1025-node clustered distribution of the compiled-replay
        tier: a hub ships 31 unit messages per period to each of 32
        relays, and each relay one to each of its 31 leaves; T = 1024."""
        edges = []
        for r in range(32):
            edges.append((("S", "hub"), ("R", f"R{r:02d}"), Fraction(31)))
            edges += [(("S", f"R{r:02d}"), ("R", f"L{r:02d}_{k:02d}"),
                       Fraction(1)) for k in range(31)]
        cap = Fraction(1024)
        check_certificate(edges, decompose_matchings(edges, cap=cap), cap)

    @pytest.mark.parametrize("case", ["coprime", "cluster1025"])
    def test_schedule_from_rates_output(self, case):
        """The integer schedule build: its slots, read as matchings of the
        send/receive port graph, certify the input edge occupations, and
        each pair's transfer times fill its slot exactly."""
        if case == "coprime":  # the period falls back to counts-only
            rates = {("a", "b", "m"): (Fraction(1, 2), Fraction(1, 999983)),
                     ("a", "c", "m2"): (Fraction(1, 3),
                                        Fraction(1, 999979))}
            tp, deliveries = Fraction(1, 3), {"m": "b", "m2": "c"}
        else:  # hub -> 32 relays -> 31 leaves each, T = 1024
            rates, deliveries = {}, {}
            for r in range(32):
                for k in range(31):
                    item = f"m{r:02d}_{k:02d}"
                    rates[("hub", f"R{r:02d}", item)] = (Fraction(1, 1024), 1)
                    rates[(f"R{r:02d}", f"L{r:02d}_{k:02d}", item)] = \
                        (Fraction(1, 1024), 1)
                    deliveries[item] = f"L{r:02d}_{k:02d}"
            tp = Fraction(1, 1024)
        sched = schedule_from_rates(rates, tp, deliveries)
        T = sched.period
        edges = [(("S", i), ("R", j), rate * T * unit_time)
                 for (i, j, _item), (rate, unit_time) in rates.items()]
        slots = [Matching(duration=s.duration,
                          pairs=sorted({(("S", t.src), ("R", t.dst))
                                        for t in s.transfers}))
                 for s in sched.slots]
        check_certificate(edges, slots, T)
        for s in sched.slots:
            pair_time = {}
            for t in s.transfers:
                pair_time[t.src, t.dst] = pair_time.get((t.src, t.dst), 0) \
                    + t.time
            assert set(pair_time.values()) <= {s.duration}

    def test_deep_chain_needs_no_recursion_limit(self):
        """A 3000-port chain whose greedy first choices force one
        augmenting path through every sender: ``s_i`` prefers ``r_{i-1}``
        and ``s_0`` is searched last, so it must shift the whole chain."""
        n = 3000
        edges = []
        for i in range(1, n):
            edges += [(f"s{i}", f"r{i - 1}", 1), (f"s{i}", f"r{i}", 2)]
        edges.append(("s0", "r0", 2))
        limit = sys.getrecursionlimit()
        ms = decompose_matchings(edges)
        assert sys.getrecursionlimit() == limit
        check_certificate(edges, ms, 3)

    def test_no_recursion_limit_hack_in_src(self):
        offenders = [str(p) for p in SRC.rglob("*.py")
                     if "setrecursionlimit" in p.read_text()]
        assert offenders == []


class TestInputErrors:
    @pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1", None])
    def test_non_rational_weight_names_the_edge(self, bad):
        edges = [("s1", "r1", 1), ("s2", "r2", bad)]
        with pytest.raises(ValueError, match=r"\('s2', 'r2'\)"):
            decompose_matchings(edges)

    def test_float_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            decompose_matchings([("s", "r", 1)], cap=2.0)

    def test_missing_perfect_matching_is_a_runtime_error(self, monkeypatch):
        # a phantom sender with full degree but no edge is a tight port no
        # matching can cover
        monkeypatch.setattr(matching, "weighted_degrees", lambda edges: (
            {"s": 1, "ghost": 1}, {"r": 1, "phantom": 1}))
        with pytest.raises(RuntimeError, match="tight port 'ghost'"):
            decompose_matchings([("s", "r", 1)])


class TestWeightedDegrees:
    def test_degrees(self):
        du, dv = weighted_degrees([("a", "x", 2), ("a", "y", 3), ("b", "x", 4)])
        assert du == {"a": 5, "b": 4}
        assert dv == {"x": 6, "y": 3}
