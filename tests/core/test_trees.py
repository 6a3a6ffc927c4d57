"""Unit tests for reduction-tree extraction (Section 4.4)."""

from fractions import Fraction


from repro.collectives import solve_collective
from repro.core import intervals as iv
from repro.core.reduce_op import ReduceProblem
from repro.core.trees import (ReductionTree, TreeTask, TreeTransfer, extract_trees, find_tree, incidence, solution_op_values, trees_weight_sum)
from repro.platform.generators import complete
from repro.platform.graph import PlatformGraph


class TestFigure6Trees:
    def test_weights_sum_to_tp(self, fig6_solution):
        trees = extract_trees(fig6_solution)
        assert trees_weight_sum(trees) == fig6_solution.throughput

    def test_incidence_reconstructs_solution(self, fig6_solution):
        trees = extract_trees(fig6_solution)
        inc = incidence(trees)
        a = solution_op_values(fig6_solution)
        assert inc == {k: v for k, v in a.items() if v != 0}

    def test_tree_count_within_theorem1_bound(self, fig6_solution):
        trees = extract_trees(fig6_solution)
        n = len(fig6_solution.problem.platform.nodes())
        assert 1 <= len(trees) <= 2 * n ** 4

    def test_leaves_tile_the_full_interval(self, fig6_solution):
        for tree in extract_trees(fig6_solution):
            assert iv.validate_tree_intervals(
                tree.leaf_intervals(), fig6_solution.problem.n_values)

    def test_each_tree_has_enough_tasks(self, fig6_solution):
        # a reduction of n values needs exactly n-1 merges
        n = fig6_solution.problem.n_values
        for tree in extract_trees(fig6_solution):
            assert len(tree.tasks) == n - 1

    def test_describe_mentions_ops(self, fig6_solution):
        text = extract_trees(fig6_solution)[0].describe()
        assert "cons" in text and "weight" in text


class TestFigure5Tree:
    """The paper's Figure 5 tree, built by hand and checked structurally."""

    def test_figure5_structure(self):
        tree = ReductionTree(
            weight=1,
            transfers=(TreeTransfer(2, 1, (2, 2)),
                       TreeTransfer(0, 1, (0, 0)),
                       TreeTransfer(1, 0, (0, 2))),
            tasks=(TreeTask(1, (1, 1, 2)), TreeTask(1, (0, 0, 2))),
        )
        assert iv.validate_tree_intervals(tree.leaf_intervals(), 3)
        assert len(tree.tasks) == 2
        # the final result transfers back to the target P0
        assert tree.transfers[-1].interval == (0, 2)


class TestFindTree:
    def test_empty_solution_has_no_tree(self, fig6_problem):
        assert find_tree({}, fig6_problem) is None

    def test_partial_solution_stuck_returns_none(self, fig6_problem):
        # only the final transfer exists; its inputs can't be resolved
        a = {("send", 1, 0, (0, 2)): 1}
        assert find_tree(a, fig6_problem) is None

    def test_single_tree_found_and_weighted(self, fig6_problem):
        a = {
            ("send", 2, 1, (2, 2)): Fraction(1, 2),
            ("cons", 1, (1, 1, 2)): Fraction(1, 3),
            ("send", 1, 0, (1, 2)): Fraction(1, 2),
            ("cons", 0, (0, 0, 2)): Fraction(1, 2),
        }
        tree = find_tree(a, fig6_problem)
        assert tree is not None
        assert tree.weight == Fraction(1, 3)  # min over used ops

    def test_cyclic_flow_terminates_without_tree(self):
        # an adversarial A that is nothing but a transfer cycle: the walk
        # must terminate (each op key is used at most once) and find no tree
        g = PlatformGraph()
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_link("a", "b", 1)
        problem = ReduceProblem(g, ["a", "b"], "a")
        a = {
            ("send", "a", "b", (0, 1)): 1,
            ("send", "b", "a", (0, 1)): 1,
        }
        assert find_tree(a, problem) is None


class TestExtractProperties:
    def test_multiple_trees_on_symmetric_platform(self):
        # equal speeds and symmetric links often force mixing trees
        g = complete(4, cost=1)
        nodes = g.nodes()
        problem = ReduceProblem(g, nodes, nodes[0])
        sol = solve_collective(problem, backend="exact")
        trees = extract_trees(sol)
        assert trees_weight_sum(trees) == sol.throughput
        inc = incidence(trees)
        a = solution_op_values(sol)
        assert inc == {k: v for k, v in a.items() if v != 0}

    def test_extraction_does_not_mutate_solution(self, fig6_solution):
        before = dict(fig6_solution.send), dict(fig6_solution.cons)
        extract_trees(fig6_solution)
        assert (fig6_solution.send, fig6_solution.cons) == before

    def test_extract_caches_on_solution(self, fig6_problem):
        sol = solve_collective(fig6_problem, backend="exact")
        t1 = sol.extract()
        assert sol.extract() is t1
