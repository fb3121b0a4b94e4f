"""Bench: anytime search vs greedy on lattices beyond paper scale.

The paper selects from nine candidate views; these worlds come from
:func:`repro.cube.generate_lattice_inputs` at 10x and 100x that
candidate count (100 and 1,000 views over 10x / 100x the dataset).
Three claims are kept honest, and the acceptance criterion from the
search rollout is asserted inline every run:

* cold beam and local search land within 5% of greedy's scenario key
  spending at most 10% of greedy's subset evaluations (the 1,000-view
  acceptance lattice);
* warm-started re-selection of an unchanged epoch (the same problem,
  which is what the simulator's builder hands back) is nearly free:
  every evaluation is a memo hit, zero new pricings;
* the selections are deterministic per seed — each benchmark round
  returns the same subset (a drifting round would be measuring a bug).
"""

from __future__ import annotations

import pytest

from repro.cube import generate_lattice_inputs
from repro.optimizer import SelectionProblem, mv1, select_views


@pytest.fixture(scope="module")
def world_10x():
    """100 candidate views over a 100 GB (10x paper) dataset."""
    return generate_lattice_inputs(n_views=100, seed=3, target_gb=100.0)


@pytest.fixture(scope="module")
def world_100x():
    """1,000 candidate views over a 1 TB (100x paper) dataset."""
    return generate_lattice_inputs(n_views=1_000, seed=0, target_gb=1_000.0)


def _scenario(world):
    baseline = SelectionProblem(world.inputs).baseline()
    return mv1(baseline.total_cost * 2)


@pytest.fixture(scope="module")
def greedy_100x(world_100x):
    """Greedy's answer and evaluation bill on the acceptance lattice."""
    scenario = _scenario(world_100x)
    problem = SelectionProblem(world_100x.inputs)
    result = select_views(problem, scenario, "greedy")
    return scenario, result, problem.stats.calls


def test_greedy_cold_10x(benchmark, world_10x):
    scenario = _scenario(world_10x)

    def run():
        return select_views(
            SelectionProblem(world_10x.inputs), scenario, "greedy"
        )

    result = benchmark(run)
    assert scenario.feasible(result.outcome)


def test_beam_cold_10x(benchmark, world_10x):
    scenario = _scenario(world_10x)

    def run():
        return select_views(
            SelectionProblem(world_10x.inputs), scenario, "beam"
        )

    result = benchmark(run)
    assert scenario.feasible(result.outcome)


def test_greedy_cold_100x(benchmark, world_100x, greedy_100x):
    """The reference bill: greedy re-prices every candidate per round."""
    scenario, reference, _ = greedy_100x

    def run():
        return select_views(
            SelectionProblem(world_100x.inputs), scenario, "greedy"
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.outcome.subset == reference.outcome.subset


def test_beam_cold_100x(benchmark, world_100x, greedy_100x):
    """Acceptance: within 5% of greedy's key at <=10% of its calls."""
    scenario, greedy_result, greedy_calls = greedy_100x
    greedy_key = scenario.key(greedy_result.outcome)

    def run():
        problem = SelectionProblem(world_100x.inputs)
        return problem, select_views(problem, scenario, "beam")

    problem, result = benchmark(run)
    assert scenario.feasible(result.outcome)
    assert scenario.key(result.outcome)[0] <= greedy_key[0] * 1.05
    assert problem.stats.calls <= greedy_calls * 0.10


def test_local_cold_100x(benchmark, world_100x, greedy_100x):
    """Acceptance holds for the annealing walker too."""
    scenario, greedy_result, greedy_calls = greedy_100x
    greedy_key = scenario.key(greedy_result.outcome)

    def run():
        problem = SelectionProblem(world_100x.inputs)
        return problem, select_views(problem, scenario, "local")

    problem, result = benchmark(run)
    assert scenario.feasible(result.outcome)
    assert scenario.key(result.outcome)[0] <= greedy_key[0] * 1.05
    assert problem.stats.calls <= greedy_calls * 0.10


def test_beam_warm_reselect_100x(benchmark, world_100x):
    """Warm re-selection of an unchanged epoch: all memo hits."""
    scenario = _scenario(world_100x)
    problem = SelectionProblem(world_100x.inputs)
    cold = select_views(problem, scenario, "beam")
    priced_cold = problem.stats.priced

    def run():
        return select_views(
            problem, scenario, "beam", warm_start=cold.outcome.subset
        )

    warm = benchmark(run)
    assert warm.outcome.subset == cold.outcome.subset
    assert problem.stats.priced - priced_cold == 0
