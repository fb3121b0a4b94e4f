"""Shared fixtures.

Datasets and experiment contexts are module-expensive to build, so the
commonly reused ones are session-scoped; tests must treat them as
read-only (they are, structurally: GrainTable and PlanningInputs expose
no mutators).
"""

from __future__ import annotations

import contextlib
import functools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro.costmodel import DeploymentSpec, PlanningEstimator
from repro.costmodel.estimator import PlanningInputs
from repro.cube import CuboidLattice, candidates_from_workload
from repro.cube.views import CandidateView
from repro.data import generate_sales
from repro.data.sizing import LogicalSizeModel
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.optimizer import SelectionProblem
from repro.pricing.compute import BillingGranularity
from repro.pricing.providers import (
    archive_cloud,
    aws_2012,
    aws_2012_marginal,
    flat_cloud,
)
from repro.schema import sales_schema
from repro.schema.hierarchy import Dimension, Hierarchy
from repro.schema.star import Measure, StarSchema
from repro.workload import paper_sales_workload
from repro.workload.query import AggregateQuery, DimensionFilter
from repro.workload.workload import Workload


@pytest.fixture(scope="session")
def sales_dataset_unscaled():
    """A small sales dataset with a 1:1 size model (empirical-mode safe)."""
    return generate_sales(n_rows=20_000, seed=11)


@pytest.fixture(scope="session")
def sales_dataset_10gb():
    """The paper-scale dataset: 60k physical rows billing as 10 GB."""
    return generate_sales(n_rows=60_000, seed=42, target_gb=10.0)


@pytest.fixture(scope="session")
def sales_lattice():
    return CuboidLattice(sales_schema())


@pytest.fixture(scope="session")
def paper_problem(sales_dataset_10gb):
    """A 5-query selection problem in the paper's deployment."""
    deployment = DeploymentSpec.paper_deployment(n_instances=5)
    workload = paper_sales_workload(sales_dataset_10gb.schema, 5)
    lattice = CuboidLattice(sales_dataset_10gb.schema)
    candidates = candidates_from_workload(lattice, workload)
    inputs = PlanningEstimator(sales_dataset_10gb, deployment).build(
        workload, candidates
    )
    return SelectionProblem(inputs)


@pytest.fixture(scope="session")
def experiment_context():
    """A fast experiment context (fewer physical rows, same logical world)."""
    return ExperimentContext(ExperimentConfig(n_rows=30_000, seed=42))


# -- whole-run oracle pricing ------------------------------------------
#
# ``SelectionProblem(inputs, kernel=False)`` is the one oracle switch.
# Suites that hold a whole run (CLI renders, Monte Carlo CSVs, metrics
# dumps, golden digests) to the exact-Decimal path need every problem
# the run builds priced that way, including the ones the simulator's
# problem builder and the experiment pipeline construct themselves.


@contextlib.contextmanager
def _oracle_pricing():
    init = SelectionProblem.__init__

    def oracle_init(self, inputs, kernel=True):
        init(self, inputs, kernel=False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SelectionProblem, "__init__", oracle_init)
        yield


@pytest.fixture
def oracle_pricing():
    """A context manager: every ``SelectionProblem`` built inside it
    prices on the oracle (``kernel=False``), whoever builds it."""
    return _oracle_pricing


# -- seeded generative worlds -----------------------------------------
#
# ``make_random_world(seed)`` is the generative factory behind the
# kernel-vs-oracle property suite: a random schema, a random filtered
# workload, a random deployment, and the PlanningInputs they induce —
# all derived from one ``random.Random(seed)`` stream, so every world
# is reproducible from its seed alone.  It is numpy-free on purpose
# (the analytic estimator only needs row counts and a size model), so
# the no-numpy CI job can run the same worlds through the kernel's
# pure-Python backend.


class _FactStub:
    """Just enough fact table for the analytic estimator: a row count."""

    def __init__(self, n_rows: int) -> None:
        self.n_rows = n_rows


class _DatasetStub:
    """Duck-typed stand-in for :class:`repro.data.Dataset` (analytic mode)."""

    def __init__(self, schema: StarSchema, n_rows: int, size_model: LogicalSizeModel) -> None:
        self.schema = schema
        self.fact = _FactStub(n_rows)
        self.size_model = size_model

    @property
    def logical_size_gb(self) -> float:
        return self.size_model.rows_to_gb(self.schema.base_grain, self.fact.n_rows)


@dataclass(frozen=True)
class RandomWorld:
    """One generated world: the triple plus its derived planning inputs."""

    seed: int
    schema: StarSchema
    workload: Workload
    candidates: Tuple[CandidateView, ...]
    deployment: DeploymentSpec
    inputs: PlanningInputs


def _random_schema(rng: random.Random) -> StarSchema:
    dims = []
    for d in range(rng.randint(2, 3)):
        n_levels = rng.randint(1, 3)
        levels = [f"d{d}l{i}" for i in range(n_levels)]
        cards = {}
        card = rng.choice([24, 60, 365, 1_000, 10_000])
        for level in levels:
            cards[level] = card
            card = max(1, card // rng.choice([2, 3, 5, 12]))
        dims.append(Dimension(f"dim{d}", Hierarchy(f"dim{d}", levels), cards))
    measures = [Measure(f"m{i}") for i in range(rng.randint(1, 2))]
    return StarSchema("world", dims, measures)


def _random_grain(rng: random.Random, schema: StarSchema) -> Tuple[str, ...]:
    return schema.validate_grain(
        tuple(
            rng.choice(list(dim.hierarchy.levels_with_all))
            for dim in schema.dimensions
        )
    )


def _random_queries(rng: random.Random, schema: StarSchema) -> List[AggregateQuery]:
    queries = []
    for i in range(rng.randint(2, 8)):
        grain = _random_grain(rng, schema)
        filters = []
        if rng.random() < 0.4:
            dim = rng.choice(schema.dimensions)
            level = rng.choice(list(dim.hierarchy.levels))
            card = dim.cardinality(level)
            n_members = rng.randint(1, min(4, card))
            members = frozenset(rng.sample(range(card), n_members))
            filters.append(DimensionFilter(dim.name, level, members))
        # Frequencies span adversarial magnitudes: fractional runs,
        # paper-typical counts, and hot queries at four orders up.
        frequency = rng.choice([0.25, 1.0, 1.0, 2.0, 30.0, 1e4])
        queries.append(
            AggregateQuery(f"Q{i + 1}", grain, frequency, tuple(filters))
        )
    return queries


def _random_candidates(
    rng: random.Random, schema: StarSchema, workload: Workload
) -> Tuple[CandidateView, ...]:
    base = schema.base_grain
    grains: List[Tuple[str, ...]] = []
    for query in workload:
        if query.grain != base and query.grain not in grains:
            grains.append(query.grain)
    for _ in range(rng.randint(0, 3)):
        grain = _random_grain(rng, schema)
        if grain != base and grain not in grains:
            grains.append(grain)
    return tuple(
        CandidateView(f"V{i + 1}", grain) for i, grain in enumerate(grains)
    )


def _random_deployment(rng: random.Random) -> DeploymentSpec:
    provider = rng.choice(
        [
            aws_2012(),
            aws_2012(BillingGranularity.PER_SECOND),
            aws_2012_marginal(BillingGranularity.PER_MINUTE),
            flat_cloud(),
            archive_cloud(),
        ]
    )
    instance_type = rng.choice(sorted(provider.compute.instance_types))
    return DeploymentSpec(
        provider=provider,
        instance_type=instance_type,
        n_instances=rng.randint(1, 8),
        storage_months=rng.choice([0.5, 1.0, 3.0, 12.0]),
        # 0 cycles is the zero-maintenance edge case.
        maintenance_cycles=rng.choice([0, 1, 30]),
        update_fraction_per_cycle=rng.choice([0.0, 0.002, 0.05]),
        runs_per_period=rng.choice([0.5, 1.0, 7.0, 30.0]),
        materialization_write_factor=rng.choice([1.0, 1.5, 3.0]),
        # None = uncapped; 1.0 = views never beat the base scan.
        view_speedup_cap=rng.choice([None, None, 1.0, 2.0, 8.0]),
    )


def make_random_world(seed: int) -> RandomWorld:
    """A reproducible random schema/workload/deployment world.

    The distributions cover the regimes the pricing path branches on:
    filtered queries (answerability + selectivity), speedup caps
    (clamped t_iV), zero-maintenance deployments, per-second vs
    round-up billing, slab vs marginal tiers, and dataset sizes from
    half a GB to adversarially large (tier boundaries, bill magnitudes
    near rounding edges).
    """
    rng = random.Random(seed)
    schema = _random_schema(rng)
    workload = Workload(schema, _random_queries(rng, schema))
    candidates = _random_candidates(rng, schema, workload)
    deployment = _random_deployment(rng)
    n_rows = rng.choice([10_000, 50_000, 200_000])
    target_gb = rng.choice([0.5, 10.0, 100.0, 5_000.0])
    size_model = LogicalSizeModel.for_target_size(schema, n_rows, target_gb)
    dataset = _DatasetStub(schema, n_rows, size_model)
    estimator = PlanningEstimator(dataset, deployment, mode="analytic")
    inputs = estimator.build(workload, candidates)
    return RandomWorld(
        seed=seed,
        schema=schema,
        workload=workload,
        candidates=candidates,
        deployment=deployment,
        inputs=inputs,
    )


@pytest.fixture(scope="session")
def random_world_factory():
    """The seeded generative world factory, as a fixture for suites."""
    return make_random_world


# -- seeded generative fleets ------------------------------------------
#
# ``make_random_fleet(seed)`` is the elastic-fleet counterpart of
# ``make_random_world``: a random tenant population — counts, workload
# prefixes (overlapping, since every tenant draws from the same paper
# pool), intensities, drift, arrival/departure schedules, attribution
# mode — derived from one ``random.Random(seed)`` stream over one
# cached tiny dataset, so fleet property suites are reproducible from
# their seeds alone.


@functools.lru_cache(maxsize=1)
def _fleet_dataset():
    """One tiny shared sales dataset for every generated fleet."""
    return generate_sales(n_rows=2_000, seed=13, target_gb=0.5)


@dataclass(frozen=True)
class RandomFleet:
    """One generated fleet: the population plus its run parameters.

    ``shiftable`` names a delayed-arrival, never-departing, drift-free
    tenant whose ``arrival_epoch`` can always be moved one epoch later
    without leaving the horizon — the handle the churn-causality
    property shifts.
    """

    seed: int
    n_epochs: int
    tenants: Tuple["Tenant", ...]
    attribution: str
    shiftable: str

    def simulator(
        self,
        tenants: Optional[Tuple["Tenant", ...]] = None,
        builds=None,
    ) -> "MultiTenantSimulator":
        """A simulator over these tenants (or a modified population).

        ``builds`` (a ``BuildConfig``) makes the shared warehouse's
        builds asynchronous; it changes nothing about the drawn fleet.
        """
        from repro.simulate.clock import SimulationClock
        from repro.simulate.presets import sales_deployment
        from repro.simulate.tenants import MultiTenantSimulator, TenantFleet

        fleet = TenantFleet(
            tenants if tenants is not None else self.tenants,
            dataset=_fleet_dataset(),
            deployment=sales_deployment(),
        )
        return MultiTenantSimulator(
            fleet,
            clock=SimulationClock(self.n_epochs),
            attribution=self.attribution,
            builds=builds,
        )


def make_random_fleet(seed: int) -> RandomFleet:
    """A reproducible random elastic fleet.

    Tenant ``a0`` anchors the fleet (founder, never departs), so every
    epoch keeps at least one active tenant whatever the rest of the
    schedule samples.  The other tenants draw overlapping paper-pool
    prefixes at varied intensities, may arrive late and/or depart
    early, and may drift (a dashboard arrival, a reweight, a drop)
    inside their active window.  One delayed-arrival tenant is kept
    drift-free with slack at the horizon so causality tests can shift
    its arrival (see :class:`RandomFleet`).
    """
    from repro.simulate.attribution import ATTRIBUTION_MODES
    from repro.simulate.events import (
        AddQueries as _Add,
        DropQueries as _Drop,
        ReweightQueries as _Reweight,
    )
    from repro.simulate.tenants import Tenant

    rng = random.Random(seed)
    schema = _fleet_dataset().schema
    n_epochs = rng.randint(6, 10)
    n_tenants = rng.randint(2, 6)

    def tenant_workload() -> Workload:
        prefix = rng.randint(1, 5)
        intensity = rng.choice([0.5, 1.0, 2.0])
        base = paper_sales_workload(schema, prefix)
        return base.reweighted(
            {q.name: q.frequency * intensity for q in base}
        )

    def drift(arrival: int, departure: Optional[int], size: int):
        window_end = departure if departure is not None else n_epochs
        epochs = list(range(arrival + 1, window_end))
        events = []
        if epochs and rng.random() < 0.5:
            events.append(
                _Add(
                    epoch=rng.choice(epochs),
                    queries=(
                        AggregateQuery.per(
                            schema,
                            "D1",
                            {"time": "day", "geography": "country"},
                            frequency=rng.choice([1.0, 3.0]),
                        ),
                    ),
                )
            )
        if epochs and rng.random() < 0.4:
            events.append(
                _Reweight(
                    epoch=rng.choice(epochs),
                    frequencies=(("Q1", rng.choice([0.25, 4.0])),),
                )
            )
        if epochs and size >= 2 and rng.random() < 0.3:
            events.append(
                _Drop(epoch=rng.choice(epochs), names=(f"Q{size}",))
            )
        return tuple(sorted(events, key=lambda e: e.epoch))

    tenants = [Tenant(name="a0", workload=tenant_workload())]
    # The guaranteed shiftable tenant: late arrival with room to move
    # one epoch later (arrival + 1 <= n_epochs - 2 keeps a >= 2-epoch
    # window), no departure, no drift.
    shift_arrival = rng.randint(1, n_epochs - 3)
    tenants.append(
        Tenant(
            name="shift",
            workload=tenant_workload(),
            arrival_epoch=shift_arrival,
        )
    )
    for i in range(n_tenants - 2):
        arrival = 0
        departure: Optional[int] = None
        roll = rng.random()
        if roll < 0.4:
            arrival = rng.randint(1, n_epochs - 3)
            if rng.random() < 0.5:
                departure = rng.randint(arrival + 2, n_epochs - 1)
        elif roll < 0.7:
            departure = rng.randint(2, n_epochs - 1)
        workload = tenant_workload()
        tenants.append(
            Tenant(
                name=f"t{i}",
                workload=workload,
                events=drift(arrival, departure, len(workload)),
                arrival_epoch=arrival,
                departure_epoch=departure,
            )
        )
    return RandomFleet(
        seed=seed,
        n_epochs=n_epochs,
        tenants=tuple(tenants),
        attribution=rng.choice(ATTRIBUTION_MODES),
        shiftable="shift",
    )


@pytest.fixture(scope="session")
def random_fleet_factory():
    """The seeded generative fleet factory, as a fixture for suites."""
    return make_random_fleet
