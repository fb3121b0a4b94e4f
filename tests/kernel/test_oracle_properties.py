"""The oracle harness: kernel == exact-Decimal path, to the byte.

The tentpole's correctness bar.  Over hundreds of seeded generative
worlds (random schemas, filtered workloads, speedup caps, maintenance
cycles, adversarial magnitudes — see ``make_random_world`` in the root
conftest), every subset pricing must agree with the Decimal oracle not
just to the cent but in the full ``repr`` of the breakdown — the
representation ledgers and reports are rendered from — and every
optimizer must select the same subset either way.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.optimizer import SelectionProblem, select_views
from repro.optimizer.scenarios import mv1, mv2, mv3

#: The fixed seed matrix CI runs; 200+ worlds per the acceptance bar.
ORACLE_SEEDS = range(200)


def _sample_subsets(world, cap=24):
    """Empty set, all singletons, a pair spread, the full set, and a
    few random subsets — bounded so 200 worlds stay fast."""
    names = [c.name for c in world.candidates]
    subsets = [frozenset()]
    subsets += [frozenset({n}) for n in names]
    subsets += [frozenset(p) for p in combinations(names, 2)]
    subsets.append(frozenset(names))
    rng = random.Random(world.seed * 7919 + 1)
    for _ in range(4):
        if names:
            k = rng.randint(1, len(names))
            subsets.append(frozenset(rng.sample(names, k)))
    seen = set()
    unique = []
    for subset in subsets:
        if subset not in seen:
            seen.add(subset)
            unique.append(subset)
    return unique[:cap]


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_kernel_reproduces_oracle_breakdowns(seed, random_world_factory):
    world = random_world_factory(seed)
    oracle = SelectionProblem(world.inputs, kernel=False)
    fast = SelectionProblem(world.inputs, kernel=True)
    for subset in _sample_subsets(world):
        want = oracle.evaluate(subset)
        got = fast.evaluate(subset)
        # repr equality is stronger than ==: it pins every Decimal's
        # exponent and trailing zeros, i.e. the ledger bytes.
        assert repr(got.breakdown) == repr(want.breakdown), (
            f"seed {seed}, subset {sorted(subset)}"
        )
        assert got.processing_hours == want.processing_hours
    # The kernel path actually engaged (worlds here are never cascade).
    assert fast._kernel_world is not None


@pytest.mark.parametrize("seed", range(0, 60, 2))
def test_kernel_and_oracle_select_identical_subsets(seed, random_world_factory):
    """Greedy and knapsack land on the same views with and without
    the kernel, and price them to identical ledger bytes."""
    world = random_world_factory(seed)
    if not world.candidates:
        pytest.skip("world drew no candidates")
    oracle = SelectionProblem(world.inputs, kernel=False)
    fast = SelectionProblem(world.inputs, kernel=True)
    baseline = oracle.baseline()
    scenarios = [
        mv1(baseline.total_cost * 2),
        mv2(fast.evaluate(frozenset(c.name for c in world.candidates))
            .processing_hours * 1.5),
        mv3(0.5),
    ]
    for scenario in scenarios:
        for algorithm in ("greedy", "knapsack"):
            want = select_views(oracle, scenario, algorithm)
            got = select_views(fast, scenario, algorithm)
            assert got.outcome.subset == want.outcome.subset
            assert repr(got.outcome.breakdown) == repr(want.outcome.breakdown)
            assert repr(got.baseline.breakdown) == repr(want.baseline.breakdown)


@pytest.mark.parametrize("seed", range(1, 30, 3))
def test_exhaustive_ground_truth_agrees(seed, random_world_factory):
    world = random_world_factory(seed)
    if not (1 <= len(world.candidates) <= 6):
        pytest.skip("exhaustive kept to small candidate sets")
    oracle = SelectionProblem(world.inputs, kernel=False)
    fast = SelectionProblem(world.inputs, kernel=True)
    scenario = mv3(0.25)
    want = select_views(oracle, scenario, "exhaustive")
    got = select_views(fast, scenario, "exhaustive")
    assert got.outcome.subset == want.outcome.subset
    assert repr(got.outcome.breakdown) == repr(want.outcome.breakdown)
