"""The SelectionProblem seam: the kernel switch, fallbacks, telemetry."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.kernel import KernelWorld
from repro.optimizer import SelectionProblem


@pytest.fixture
def world(random_world_factory):
    return random_world_factory(11)


def test_kernel_on_by_default(world):
    problem = SelectionProblem(world.inputs)
    problem.baseline()
    assert problem._kernel_world is not None
    oracle = SelectionProblem(world.inputs, kernel=False)
    oracle.baseline()
    assert oracle._kernel_world is None


def test_no_environment_switch(world, monkeypatch):
    """The retired ``REPRO_NO_KERNEL`` variable is not read: a problem
    left at its default prices through the kernel even with it set."""
    monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    problem = SelectionProblem(world.inputs)
    problem.baseline()
    assert problem._kernel_world is not None


def test_oracle_problem_screens_but_prices_on_the_oracle(world, monkeypatch):
    """``kernel=False`` leaves the screener on; no subset it prices
    goes through the kernel world that screening factored."""
    problem = SelectionProblem(world.inputs, kernel=False)
    assert problem.screener() is not None
    assert problem._kernel_world is not None

    def refuse(self, subset):
        raise AssertionError("an oracle problem priced on the kernel")

    subset = frozenset(problem.candidate_names)
    with monkeypatch.context() as patch:
        patch.setattr(KernelWorld, "evaluate", refuse)
        got = problem.evaluate(subset)
    want = SelectionProblem(world.inputs).evaluate(subset)
    assert repr(got.breakdown) == repr(want.breakdown)


def test_oracle_pricing_reaches_every_problem_then_lets_go(
    world, oracle_pricing
):
    """The whole-run oracle switch the identity suites use: inside it
    even an explicit ``kernel=True`` prices on the oracle; after it
    the default is the kernel again."""
    with oracle_pricing():
        inside = SelectionProblem(world.inputs, kernel=True)
        inside.baseline()
    after = SelectionProblem(world.inputs)
    after.baseline()
    assert inside._kernel_world is None
    assert after._kernel_world is not None


def test_cascade_worlds_fall_back_to_oracle(world):
    cascade_dep = replace(world.deployment, cascade_materialization=True)
    inputs = replace(world.inputs, deployment=cascade_dep)
    problem = SelectionProblem(inputs, kernel=True)
    baseline = problem.baseline()
    assert problem._kernel_world is None
    oracle = SelectionProblem(inputs, kernel=False)
    assert repr(baseline.breakdown) == repr(oracle.baseline().breakdown)


def test_kernel_build_returns_none_for_negative_hours(world):
    bad = dict(world.inputs.base_query_hours)
    first = next(iter(bad))
    bad[first] = -1.0
    inputs = replace(world.inputs, base_query_hours=bad)
    assert KernelWorld.build(inputs) is None


def test_telemetry_counts_builds_and_evaluations(world):
    with telemetry.activate() as collector:
        problem = SelectionProblem(world.inputs, kernel=True)
        problem.baseline()
        for candidate in world.candidates[:2]:
            problem.singleton(candidate.name)
        problem.baseline()  # cache hit: no extra kernel evaluation
    registry = collector.registry
    assert registry.counter("kernel.builds") == 1
    expected = 1 + len(world.candidates[:2])
    assert registry.counter("kernel.evaluations") == expected
    assert registry.spans["kernel.build"].count == 1


def test_stats_semantics_unchanged_by_kernel(world):
    fast = SelectionProblem(world.inputs, kernel=True)
    slow = SelectionProblem(world.inputs, kernel=False)
    for problem in (fast, slow):
        problem.baseline()
        problem.baseline()
    assert fast.stats.calls == slow.stats.calls == 2
    assert fast.stats.priced == slow.stats.priced == 1
    assert fast.stats.hits == slow.stats.hits == 1
