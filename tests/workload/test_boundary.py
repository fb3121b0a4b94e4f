"""The validation boundary: malformed input fails once, with a typed error.

``Workload(...)`` validates every query; the drift operations validate
only what arrives (see the ``Workload`` docstring).  This suite moves
each check's input across that boundary: seeded generators build a
valid world, corrupt exactly one thing, and assert the typed error —
``SchemaError`` from a constructor, or a ``SimulationError`` naming the
epoch from an event's ``apply``.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.errors import SchemaError, SimulationError
from repro.schema.hierarchy import ALL
from repro.simulate import WarehouseState
from repro.simulate.events import (
    AddQueries,
    DropQueries,
    TenantArrival,
    TenantDeparture,
    TenantRoster,
)
from repro.simulate.presets import population_fleet_simulator, sales_deployment
from repro.simulate.tenants import Tenant, TenantFleet
from repro.workload import AggregateQuery, Workload
from repro.workload.query import DimensionFilter

SEEDS = range(12)


def _bad_grains(rng, schema):
    """Grains ``validate_grain`` must refuse: wrong arity, unknown level."""
    good = tuple(
        rng.choice(list(dim.hierarchy.levels_with_all))
        for dim in schema.dimensions
    )
    unknown = list(good)
    unknown[rng.randrange(len(unknown))] = "no-such-level"
    return (good[:-1], good + (ALL,), tuple(unknown))


def _out_of_range_filter(rng, schema):
    dim = rng.choice(schema.dimensions)
    level = rng.choice(list(dim.hierarchy.levels))
    card = dim.cardinality(level)
    return DimensionFilter(dim.name, level, frozenset({card + rng.randrange(3)}))


@pytest.fixture(params=SEEDS)
def world(request, random_world_factory):
    return random_world_factory(request.param)


class TestConstructorBoundary:
    def test_bad_grains_rejected(self, world):
        rng = random.Random(world.seed)
        queries = list(world.workload)
        for grain in _bad_grains(rng, world.schema):
            bad = replace(rng.choice(queries), grain=grain)
            with pytest.raises(SchemaError):
                Workload(world.schema, [*queries, replace(bad, name="BAD")])

    def test_negative_filter_member_rejected(self, world):
        rng = random.Random(world.seed)
        dim = rng.choice(world.schema.dimensions)
        level = rng.choice(list(dim.hierarchy.levels))
        with pytest.raises(SchemaError, match="negative"):
            DimensionFilter(dim.name, level, frozenset({-1 - rng.randrange(5)}))

    def test_out_of_range_filter_member_rejected(self, world):
        rng = random.Random(world.seed)
        filt = _out_of_range_filter(rng, world.schema)
        query = AggregateQuery("BAD", world.schema.apex_grain, filters=(filt,))
        with pytest.raises(SchemaError, match="outside"):
            Workload(world.schema, [*world.workload, query])

    def test_duplicate_names_rejected(self, world):
        rng = random.Random(world.seed)
        queries = list(world.workload)
        twin = replace(rng.choice(queries), frequency=3.0)
        queries.insert(rng.randrange(len(queries) + 1), twin)
        with pytest.raises(SchemaError, match="unique"):
            Workload(world.schema, queries)

    def test_empty_workload_rejected(self, world):
        with pytest.raises(SchemaError):
            Workload(world.schema, [])


class TestDriftBoundary:
    """Drift operations check exactly the arriving queries and names."""

    def test_arrivals_checked(self, world):
        rng = random.Random(world.seed)
        workload = world.workload
        for grain in _bad_grains(rng, world.schema):
            with pytest.raises(SchemaError):
                workload.with_queries([AggregateQuery("NEW", grain)])
        taken = rng.choice(list(workload)).name
        with pytest.raises(SchemaError, match="already present"):
            workload.with_queries([AggregateQuery(taken, world.schema.apex_grain)])
        filt = _out_of_range_filter(rng, world.schema)
        with pytest.raises(SchemaError, match="outside"):
            workload.with_queries(
                [AggregateQuery("NEW", world.schema.apex_grain, filters=(filt,))]
            )

    def test_unknown_names_and_total_drops_refused(self, world):
        rng = random.Random(world.seed)
        workload = world.workload
        names = [q.name for q in workload]
        with pytest.raises(SchemaError, match="unknown"):
            workload.without([rng.choice(names), "no-such-query"])
        with pytest.raises(SchemaError, match="unknown"):
            workload.reweighted({"no-such-query": 2.0})
        with pytest.raises(SchemaError, match="every query"):
            workload.without(rng.sample(names, len(names)))
        # A refused drift leaves the workload as it was.
        assert [q.name for q in workload] == names


def _state(dataset, rng, tenants=("t0", "t1", "t2")):
    """A fleet-shaped warehouse: each tenant owns 1-3 queries."""
    schema = dataset.schema
    queries = []
    for tenant in tenants:
        for j in range(rng.randint(1, 3)):
            grain = tuple(
                rng.choice(list(dim.hierarchy.levels_with_all))
                for dim in schema.dimensions
            )
            queries.append(AggregateQuery(f"{tenant}/Q{j + 1}", grain))
    return WarehouseState(
        workload=Workload(schema, queries),
        dataset=dataset,
        deployment=sales_deployment(),
    )


class TestEventBoundary:
    """Events report the epoch they failed at, typed."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bad_arrivals_name_the_epoch(self, seed, sales_dataset_unscaled):
        rng = random.Random(seed)
        state = _state(sales_dataset_unscaled, rng)
        schema = state.workload.schema
        epoch = rng.randrange(1, 50)
        roster = TenantRoster(["t0", "t1", "t2", "t3"])
        for grain in _bad_grains(rng, schema):
            bad = AggregateQuery("t3/Q1", grain)
            for event in (
                AddQueries(epoch=epoch, queries=(bad,)),
                TenantArrival(epoch=epoch, tenant="t3", queries=(bad,)),
                TenantArrival(
                    epoch=epoch, tenant="t3", queries=(bad,), roster=roster
                ),
            ):
                with pytest.raises(SimulationError, match=f"epoch {epoch}:"):
                    event.apply(state)
        taken = rng.choice(list(state.workload)).name
        owner = taken.split("/")[0]
        clash = AggregateQuery(taken, schema.apex_grain)
        for event in (
            AddQueries(epoch=epoch, queries=(clash,)),
            TenantArrival(epoch=epoch, tenant=owner, queries=(clash,)),
            TenantArrival(
                epoch=epoch, tenant=owner, queries=(clash,), roster=roster
            ),
        ):
            with pytest.raises(SimulationError, match=f"epoch {epoch}:.*already"):
                event.apply(state)
        # A roster-placed arrival must bring the arriving tenant's queries.
        foreign = AggregateQuery("t1/NEW", schema.apex_grain)
        with pytest.raises(SimulationError, match=f"epoch {epoch}:.*rank"):
            TenantArrival(
                epoch=epoch, tenant="t3", queries=(foreign,), roster=roster
            ).apply(state)
        with pytest.raises(SimulationError, match="roster"):
            TenantArrival(epoch=epoch, tenant="t9", queries=(foreign,), roster=roster)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bad_departures_name_the_epoch(self, seed, sales_dataset_unscaled):
        rng = random.Random(seed)
        state = _state(sales_dataset_unscaled, rng)
        epoch = rng.randrange(1, 50)
        names = tuple(q.name for q in state.workload)
        unknown = (rng.choice(names), "t1/no-such-query")
        for event in (
            DropQueries(epoch=epoch, names=unknown),
            TenantDeparture(epoch=epoch, tenant="t1", names=unknown),
        ):
            with pytest.raises(SimulationError, match=f"epoch {epoch}:.*unknown"):
                event.apply(state)
        for event in (
            DropQueries(epoch=epoch, names=names),
            TenantDeparture(epoch=epoch, tenant="t0", names=names),
        ):
            with pytest.raises(SimulationError, match=f"epoch {epoch}:.*every"):
                event.apply(state)


class TestFleetBoundary:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_inverted_windows_rejected(self, seed, sales_dataset_unscaled):
        rng = random.Random(seed)
        workload = Workload(
            sales_dataset_unscaled.schema,
            [AggregateQuery("Q1", ("year", ALL))],
        )
        arrival = rng.randrange(0, 10)
        departure = arrival - rng.randrange(0, 3)
        with pytest.raises(SimulationError, match="after arrival_epoch"):
            Tenant(
                "t",
                workload,
                arrival_epoch=arrival,
                departure_epoch=departure,
            )

    def test_empty_fleets_rejected(self, sales_dataset_unscaled):
        with pytest.raises(SimulationError, match="at least one tenant"):
            TenantFleet([], sales_dataset_unscaled, sales_deployment())
        with pytest.raises(SimulationError, match="at least one tenant"):
            population_fleet_simulator(n_tenants=0)
