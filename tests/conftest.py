"""Shared fixtures: the paper's instances and a few synthetic platforms."""

from __future__ import annotations

import pytest

from repro.collectives import solve_collective
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.platform.examples import (
    figure2_platform,
    figure2_targets,
    figure6_platform,
    figure9_participants,
    figure9_platform,
    figure9_target,
)
from repro.platform.generators import chain, complete, ring, star


@pytest.fixture
def fig2():
    return figure2_platform()


@pytest.fixture
def fig2_problem(fig2):
    return ScatterProblem(fig2, "Ps", figure2_targets())


@pytest.fixture(scope="session")
def fig2_solution():
    # canonical=True: the lex-smallest optimal vertex, so tests that pin
    # schedule/flow artifacts cannot break when the pricing rule changes
    problem = ScatterProblem(figure2_platform(), "Ps", figure2_targets())
    return solve_collective(problem, backend="exact", canonical=True)


@pytest.fixture
def fig6():
    return figure6_platform()


@pytest.fixture
def fig6_problem(fig6):
    return ReduceProblem(fig6, participants=[0, 1, 2], target=0)


@pytest.fixture(scope="session")
def fig6_solution():
    problem = ReduceProblem(figure6_platform(), participants=[0, 1, 2], target=0)
    return solve_collective(problem, backend="exact", canonical=True)


@pytest.fixture(scope="session")
def fig9_solution():
    problem = ReduceProblem(figure9_platform(),
                            participants=figure9_participants(),
                            target=figure9_target(), msg_size=10, task_work=10)
    return solve_collective(problem)


@pytest.fixture(scope="session")
def fig9_canonical_solution():
    """The lex-smallest optimal fig9 vertex — pricing-rule independent;
    use it for tests that pin tree/schedule artifacts."""
    problem = ReduceProblem(figure9_platform(),
                            participants=figure9_participants(),
                            target=figure9_target(), msg_size=10, task_work=10)
    return solve_collective(problem, canonical=True)


@pytest.fixture
def star4():
    return star(4)


@pytest.fixture
def chain5():
    return chain(5)


@pytest.fixture
def ring6():
    return ring(6)


@pytest.fixture
def complete4():
    return complete(4, speeds=[4, 2, 1, 1])
