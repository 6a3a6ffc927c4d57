"""Registry mechanics: registration, lookup, problem-type resolution."""

import pytest

from repro.collectives import (
    CollectiveSpec,
    available_collectives,
    get_collective,
    register_collective,
    resolve_collective,
    unregister_collective,
)
from repro.core.gossip import GossipProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.reduce_scatter import ReduceScatterProblem
from repro.core.scatter import ScatterProblem
from repro.platform.examples import figure2_platform, figure6_platform


class TestBuiltins:
    def test_all_builtins_registered(self):
        names = [s.name for s in available_collectives()]
        assert names == ["scatter", "reduce", "gossip", "prefix",
                         "reduce-scatter", "broadcast", "all-gather",
                         "all-reduce",
                         # classical baselines (PR 10) — name-only specs
                         "direct-scatter", "flat-tree-reduce",
                         "binary-tree-reduce", "ring-reduce-scatter",
                         "halving-reduce-scatter", "ring-all-gather",
                         "doubling-all-gather", "ring-all-reduce",
                         "rabenseifner-all-reduce"]

    def test_get_by_name(self):
        assert get_collective("scatter").problem_type is ScatterProblem
        assert get_collective("reduce-scatter").problem_type \
            is ReduceScatterProblem

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown collective"):
            get_collective("allgather")


class TestResolution:
    def test_by_problem_type(self):
        p = ScatterProblem(figure2_platform(), "Ps", ["P0"])
        assert resolve_collective(p).name == "scatter"
        g = GossipProblem(figure6_platform(), [0, 1], [0, 1])
        assert resolve_collective(g).name == "gossip"
        rs = ReduceScatterProblem(figure6_platform(), [0, 1, 2])
        assert resolve_collective(rs).name == "reduce-scatter"

    def test_reduce_problem_resolves_to_reduce_not_prefix(self):
        p = ReduceProblem(figure6_platform(), [0, 1, 2], target=0)
        assert resolve_collective(p).name == "reduce"
        assert resolve_collective(p, collective="prefix").name == "prefix"

    def test_resolution_is_import_order_independent(self):
        """Registering prefix ahead of reduce (as a direct
        `import repro.collectives.prefix` before any registry access
        would) must not capture bare ReduceProblems: prefix opts out of
        type resolution entirely."""
        from repro.collectives.prefix import PrefixSpec

        assert PrefixSpec.resolve_by_type is False
        import repro.collectives.registry as reg

        saved = dict(reg._registry)
        try:
            reg._registry.clear()
            reg._registry["prefix"] = saved["prefix"]
            reg._registry["reduce"] = saved["reduce"]
            p = ReduceProblem(figure6_platform(), [0, 1, 2], target=0)
            assert resolve_collective(p).name == "reduce"
        finally:
            reg._registry.clear()
            reg._registry.update(saved)

    def test_unresolvable_problem(self):
        with pytest.raises(KeyError, match="no registered collective"):
            resolve_collective(object())

    def test_priority_beats_registration_order(self):
        """Type resolution is explicit: a later-registered spec with a
        higher priority wins over an earlier one, regardless of order."""
        class LowSpec(CollectiveSpec):
            name = "prio-low"
            problem_type = ScatterProblem

        class HighSpec(CollectiveSpec):
            name = "prio-high"
            problem_type = ScatterProblem

        p = ScatterProblem(figure2_platform(), "Ps", ["P0"])
        try:
            register_collective(LowSpec())
            # scatter itself registered first with priority 0: a tie keeps
            # the first registered (behavior identical to the old rule)
            assert resolve_collective(p).name == "scatter"
            register_collective(HighSpec(), priority=5)
            assert resolve_collective(p).name == "prio-high"
        finally:
            unregister_collective("prio-low")
            unregister_collective("prio-high")
        assert resolve_collective(p).name == "scatter"

    def test_reduce_priority_is_explicit(self):
        """The reduce spec claims bare ReduceProblems with an explicit
        registration priority, not via import order."""
        import repro.collectives.registry as reg

        reg._load_builtins()
        assert reg._priorities["reduce"][0] > reg._priorities["prefix"][0]


class TestRegistration:
    def test_duplicate_name_rejected(self):
        spec = CollectiveSpec()
        spec.name = "scatter"
        with pytest.raises(ValueError, match="already registered"):
            register_collective(spec)

    def test_register_replace_and_unregister(self):
        class FakeSpec(CollectiveSpec):
            name = "fake-collective"
            title = "for tests"

        try:
            register_collective(FakeSpec())
            assert get_collective("fake-collective").title == "for tests"
            register_collective(FakeSpec(), replace=True)
        finally:
            unregister_collective("fake-collective")
        with pytest.raises(KeyError):
            get_collective("fake-collective")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_collective(CollectiveSpec())

    def test_validate_checks_problem_type(self):
        spec = get_collective("scatter")
        with pytest.raises(ValueError, match="expects a ScatterProblem"):
            spec.validate(ReduceProblem(figure6_platform(), [0, 1], target=0))
