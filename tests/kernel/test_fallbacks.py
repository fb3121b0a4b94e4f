"""Every kernel fallback is counted, under its reason.

:meth:`KernelWorld.build` returns ``None`` for worlds it cannot
reproduce byte for byte, and the caller prices them on the oracle.
Each ``None`` increments ``kernel.fallbacks{reason}`` once; a world
the kernel factors increments nothing there, so runs without a
fallback export no such series.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.kernel import KernelWorld
from repro.optimizer import SelectionProblem

REASONS = (
    "cascade_materialization",
    "non_positive_runs",
    "unusable_inputs",
)


@pytest.fixture
def world(random_world_factory):
    return random_world_factory(11)


def _fallbacks(inputs):
    """Build once under a fresh collector; the per-reason counts."""
    with telemetry.activate() as collector:
        assert KernelWorld.build(inputs) is None
    registry = collector.registry
    assert registry.counter("kernel.builds") == 0
    return {reason: registry.counter("kernel.fallbacks", reason=reason) for reason in REASONS}


def _only(reason):
    return {other: int(other == reason) for other in REASONS}


def test_cascade_materialization_is_counted(world):
    assert world.candidates
    dep = replace(world.deployment, cascade_materialization=True)
    inputs = replace(world.inputs, deployment=dep)
    assert _fallbacks(inputs) == _only("cascade_materialization")


def test_non_positive_runs_are_counted(world):
    # Validation rejects runs <= 0; NaN slips past it and is not > 0.
    dep = replace(world.deployment, runs_per_period=float("nan"))
    inputs = replace(world.inputs, deployment=dep)
    assert _fallbacks(inputs) == _only("non_positive_runs")


@pytest.mark.parametrize("bad", [-1.0, float("nan"), -0.0])
def test_unusable_inputs_are_counted(world, bad):
    hours = dict(world.inputs.base_query_hours)
    hours[next(iter(hours))] = bad
    inputs = replace(world.inputs, base_query_hours=hours)
    assert _fallbacks(inputs) == _only("unusable_inputs")


def test_a_factored_world_counts_no_fallback(world):
    with telemetry.activate() as collector:
        problem = SelectionProblem(world.inputs, kernel=True)
        problem.baseline()
    assert collector.registry.counter("kernel.builds") == 1
    assert not any(
        key[0] == "kernel.fallbacks" for key in collector.registry.counters
    )


def test_a_problem_counts_its_fallback_once(world):
    dep = replace(world.deployment, cascade_materialization=True)
    inputs = replace(world.inputs, deployment=dep)
    with telemetry.activate() as collector:
        problem = SelectionProblem(inputs, kernel=True)
        problem.baseline()
        for candidate in world.candidates:
            problem.singleton(candidate.name)
    registry = collector.registry
    assert registry.counter("kernel.fallbacks", reason="cascade_materialization") == 1
    assert registry.counter("kernel.evaluations") == 0


def _cascade(world):
    dep = replace(world.deployment, cascade_materialization=True)
    return replace(world.inputs, deployment=dep)


def _unusable(world):
    hours = dict(world.inputs.base_query_hours)
    hours[next(iter(hours))] = float("nan")
    return replace(world.inputs, base_query_hours=hours)


@pytest.mark.parametrize(
    "make, reason",
    [(_cascade, "cascade_materialization"), (_unusable, "unusable_inputs")],
)
@pytest.mark.parametrize("screen_first", [True, False])
def test_screening_and_pricing_share_one_build_attempt(
    world, make, reason, screen_first
):
    inputs = make(world)
    with telemetry.activate() as collector:
        problem = SelectionProblem(inputs, kernel=True)
        if screen_first:
            assert problem.screener() is None
        problem.baseline()
        for candidate in world.candidates:
            problem.singleton(candidate.name)
        assert problem.screener() is None
    registry = collector.registry
    assert registry.counter("kernel.fallbacks", reason=reason) == 1
    assert registry.counter("kernel.evaluations") == 0
