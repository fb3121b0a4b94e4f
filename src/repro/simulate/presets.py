"""Ready-made lifecycle scenarios.

:func:`drifting_sales_simulator` is the reference scenario the
example, CLI subcommand, benchmark and tests all share: the paper's
Section 6 warehouse (10 GB sales dataset, five AWS small instances,
daily workload runs) stepped through two years of life in which

* the workload starts as the paper's five coarse reporting queries,
* day-level dashboard queries arrive hot (epoch 5) and get hotter
  (epoch 9),
* the original monthly reports go cold and are retired (epochs 9, 13),
* the fact table grows 30% (epoch 8) and again 20% (epoch 16),
* the provider repricing moves the warehouse to a flat-rate price
  book (epoch 12), and
* a node is lost and not replaced (epoch 18).

The drift is deliberately adversarial to a static selection: the views
chosen at epoch 0 answer queries that no longer run, while the queries
that dominate the late workload cannot be answered by them at all.

:func:`multi_tenant_sales_simulator` is its multi-tenant sibling: the
same warehouse shared by *n* tenants whose workloads differ in size
and intensity and whose dashboard drift arrives staggered (tenant
``t2``'s dashboards land two epochs after ``t1``'s), over the shared
growth/repricing backdrop.  It is the preset behind
``python -m repro simulate --tenants N``.

:func:`stochastic_sales_simulator` replaces the hand-written drift
with sampled drift (:mod:`repro.simulate.stochastic`): the same base
warehouse, but the future is drawn from a seeded generator bundle —
Poisson query churn, seasonal frequency waves, noisy growth, a
spot-price walk.  ``seed`` fixes the starting world; ``drift_seed``
(default: ``seed``) fixes the sampled future, so a Monte Carlo harness
can hold the world constant while varying the future per trial.

:func:`elastic_multi_tenant_simulator` is its fleet: founding tenants,
each drifting under its own sampled streams over a shared sampled
backdrop, joined by a seeded churn process (:func:`repro.simulate.
stochastic.sample_fleet_churn`) whose tenants arrive and depart
mid-lifecycle — billed through
:class:`~repro.simulate.events.TenantArrival` /
:class:`~repro.simulate.events.TenantDeparture` — each with its own
sampled drift over its active window.  A churn process with
``arrival_rate=0.0`` samples no newcomers: that is the fixed sampled
fleet.

:func:`population_fleet_simulator` pushes the tenant *count* instead:
10³–10⁵ single-query tenants over a deliberately small world and
catalogue, sized for :meth:`~repro.simulate.tenants.
MultiTenantSimulator.run_sharded`'s streaming, sharded attribution.

Every preset but the population fleet takes ``builds=`` (a
:class:`~repro.simulate.builds.BuildConfig`): decided views then enter
a build queue and land only after their materialization hours have
elapsed on the wall clock.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..costmodel.params import DeploymentSpec, sales_deployment
from ..cube.candidates import candidates_from_workload
from ..cube.lattice import CuboidLattice
from ..data.generator import Dataset
from ..data.sales_generator import sales_dataset
from ..errors import SimulationError
from ..pricing.compute import BillingGranularity
from ..pricing.providers import (
    Provider,
    archive_cloud,
    aws_2012,
    flat_cloud,
)
from ..workload.query import AggregateQuery
from ..workload.workload import Workload, paper_sales_workload
from .clock import SimulationClock
from .events import (
    AddQueries,
    DropQueries,
    FleetChange,
    GrowFactTable,
    PriceChange,
    ReweightQueries,
    SimulationEvent,
)
from .builds import BuildConfig
from .simulator import LifecycleSimulator
from .state import WarehouseState
from .stochastic import (
    FleetChurn,
    GeneratorContext,
    compile_timeline,
    derive_seed,
    generator_preset,
    sample_fleet_churn,
    split_by_scope,
)
from .tenants import MultiTenantSimulator, Tenant, TenantFleet

__all__ = [
    "DRIFT_MIN_EPOCHS",
    "default_market",
    "drifting_sales_simulator",
    "elastic_multi_tenant_simulator",
    "multi_tenant_min_epochs",
    "multi_tenant_sales_simulator",
    "population_fleet_simulator",
    "sales_deployment",
    "stochastic_sales_simulator",
]

#: The reference scenario's last event fires at epoch 18, so its
#: clock needs at least this many epochs.
DRIFT_MIN_EPOCHS = 19


def default_market() -> "tuple[Provider, ...]":
    """The multi-provider market the arbitrage presets quote.

    Three deliberately different price structures (see
    :mod:`repro.pricing.providers`): the paper's AWS book at the
    simulations' per-second billing — the family spot walks reprice —
    plus the flat-rate and cold-storage counterpoints.  Seeding a
    simulation's initial :class:`~repro.simulate.state.WarehouseState`
    with this market is what turns ``PriceChange`` from an event into
    a decision: an :class:`~repro.simulate.arbitrage.ArbitrageAware`
    policy prices every quoted book each epoch and migrates when
    switching pays.
    """
    return (
        aws_2012(BillingGranularity.PER_SECOND),
        flat_cloud(),
        archive_cloud(),
    )


def _day_query(schema, name: str, geo_level: str, frequency: float) -> AggregateQuery:
    """A dashboard query: day-level time at ``geo_level`` geography."""
    return AggregateQuery.per(
        schema, name, {"time": "day", "geography": geo_level}, frequency=frequency
    )


def drifting_sales_simulator(
    n_epochs: int = 24,
    n_rows: int = 60_000,
    seed: int = 42,
    dataset_gb: float = 10.0,
    market: "tuple[Provider, ...] | None" = None,
    builds: "BuildConfig | None" = None,
) -> LifecycleSimulator:
    """The reference drifting-warehouse scenario (see module docs).

    ``n_epochs`` must leave room for the scheduled drift
    (>= ``DRIFT_MIN_EPOCHS``); the default is 24 epochs = two years of
    monthly billing periods.  ``market`` (e.g. :func:`default_market`)
    quotes candidate provider books to migration-aware policies;
    ``None`` keeps the classic single-provider world.

    ``builds`` (e.g. ``BuildConfig(slots=2, discipline="shortest")``)
    queues decided builds on the wall clock: a view lands only after
    its materialization hours have elapsed and is billed by
    partial-period proration from that instant.  Instant builds
    (``hours_per_month=float("inf")``) reproduce the ``None`` ledgers
    byte-identically — the sync-parity invariant.
    """
    if n_epochs < DRIFT_MIN_EPOCHS:
        raise SimulationError(
            f"the drifting scenario schedules events through epoch "
            f"{DRIFT_MIN_EPOCHS - 1}; n_epochs must be >= "
            f"{DRIFT_MIN_EPOCHS}, got {n_epochs}"
        )
    dataset = sales_dataset(n_rows, seed, dataset_gb)
    schema = dataset.schema
    workload = paper_sales_workload(schema, 5)
    initial = WarehouseState(
        workload=workload,
        dataset=dataset,
        deployment=sales_deployment(),
        market=market if market is not None else (),
    )

    events = [
        # A dashboard team arrives: day-level queries, refreshed often.
        AddQueries(
            epoch=5,
            queries=(
                _day_query(schema, "D1", "country", 3.0),
                _day_query(schema, "D2", "region", 3.0),
                _day_query(schema, "D3", "department", 2.0),
            ),
        ),
        # The data keeps landing: +30% fact volume.
        GrowFactTable(epoch=8, factor=1.3),
        # Dashboards get hotter, the old monthly reports go cold...
        ReweightQueries(
            epoch=9,
            frequencies=(("D1", 6.0), ("D2", 6.0), ("Q1", 0.25), ("Q2", 0.25)),
        ),
        DropQueries(epoch=9, names=("Q3",)),
        # ...the provider repricing lands...
        PriceChange(epoch=12, provider=flat_cloud()),
        # ...the remaining legacy reports are retired...
        DropQueries(epoch=13, names=("Q1", "Q2")),
        # ...more growth, and a node is lost without replacement.
        GrowFactTable(epoch=16, factor=1.2),
        FleetChange(epoch=18, n_instances=4),
    ]
    return LifecycleSimulator(
        initial=initial,
        clock=SimulationClock(n_epochs),
        events=events,
        builds=builds,
    )


def multi_tenant_min_epochs(n_tenants: int) -> int:
    """Epochs the staggered multi-tenant drift needs for ``n_tenants``.

    Tenant *i* (0-based) reweights at epoch ``9 + 2i`` and the shared
    backdrop's last event fires at epoch 16, so the horizon must cover
    whichever is later.
    """
    return max(17, 9 + 2 * (n_tenants - 1) + 1)


def _mixed_tenant_workload(schema, serial: int) -> "tuple[Workload, float]":
    """Tenant ``serial``'s ``(workload, intensity)`` in the fleet mix:
    the first 3, 5 or 4 paper queries at 1x, 2x or 0.5x (cycling)."""
    base = paper_sales_workload(schema, (3, 5, 4)[serial % 3])
    intensity = (1.0, 2.0, 0.5)[serial % 3]
    workload = base.reweighted({q.name: q.frequency * intensity for q in base})
    return workload, intensity


def _fleet_simulator(
    tenants: "list[Tenant]",
    dataset: Dataset,
    n_epochs: int,
    shared_events: "tuple[SimulationEvent, ...]" = (),
    market: "tuple[Provider, ...] | None" = None,
    deployment: "DeploymentSpec | None" = None,
    **run,
) -> MultiTenantSimulator:
    """Merge ``tenants`` onto one warehouse; ``run`` configures the
    :class:`~repro.simulate.tenants.MultiTenantSimulator` around it."""
    fleet = TenantFleet(
        tenants,
        dataset=dataset,
        deployment=deployment if deployment is not None else sales_deployment(),
        shared_events=shared_events,
        market=market if market is not None else (),
    )
    return MultiTenantSimulator(fleet, clock=SimulationClock(n_epochs), **run)


def multi_tenant_sales_simulator(
    n_tenants: int = 3,
    n_epochs: int = 24,
    n_rows: int = 60_000,
    seed: int = 42,
    dataset_gb: float = 10.0,
    attribution: str = "proportional",
    market: "tuple[Provider, ...] | None" = None,
    builds: "BuildConfig | None" = None,
) -> MultiTenantSimulator:
    """The reference multi-tenant scenario: *n* tenants, one warehouse.

    Tenant ``t{i}`` starts with a prefix of the paper workload (3, 5
    or 4 queries, cycling) at its own intensity (1x, 2x, 0.5x base
    frequency, cycling), grows a dashboard habit at epoch ``4 + 2i``
    (day-level queries, arriving staggered so tenants drift out of
    phase), and re-weights it hot at epoch ``9 + 2i`` while its oldest
    report cools.  The shared backdrop reuses the single-tenant drift:
    +30% data at epoch 8, the flat-rate repricing at epoch 12, +20%
    data at epoch 16.

    ``attribution`` picks the sharing rule applied every epoch (see
    :mod:`repro.simulate.attribution`).
    """
    if n_tenants < 1:
        raise SimulationError(f"the fleet needs at least one tenant, got {n_tenants}")
    needed = multi_tenant_min_epochs(n_tenants)
    if n_epochs < needed:
        raise SimulationError(
            f"the {n_tenants}-tenant scenario schedules events through "
            f"epoch {needed - 1}; n_epochs must be >= {needed}, "
            f"got {n_epochs}"
        )
    dataset = sales_dataset(n_rows, seed, dataset_gb)
    schema = dataset.schema

    geo_levels = ("country", "region", "department")
    tenants = []
    for i in range(n_tenants):
        workload, intensity = _mixed_tenant_workload(schema, i)
        events = (
            # The tenant's dashboard team arrives, out of phase with
            # its neighbours'.
            AddQueries(
                epoch=4 + 2 * i,
                queries=(
                    _day_query(schema, "D1", geo_levels[i % len(geo_levels)], 3.0),
                    _day_query(schema, "D2", "country", 2.0),
                ),
            ),
            # Dashboards get hot, the oldest report cools.
            ReweightQueries(
                epoch=9 + 2 * i,
                frequencies=(("D1", 6.0), ("Q1", 0.25 * intensity)),
            ),
        )
        tenants.append(Tenant(name=f"t{i + 1}", workload=workload, events=events))

    shared = (
        GrowFactTable(epoch=8, factor=1.3),
        PriceChange(epoch=12, provider=flat_cloud()),
        GrowFactTable(epoch=16, factor=1.2),
    )
    return _fleet_simulator(
        tenants,
        dataset,
        n_epochs,
        shared_events=shared,
        market=market,
        attribution=attribution,
        builds=builds,
    )


def stochastic_sales_simulator(
    generator: str = "mixed",
    n_epochs: int = 24,
    n_rows: int = 60_000,
    seed: int = 42,
    drift_seed: "int | None" = None,
    dataset_gb: float = 10.0,
    market: "tuple[Provider, ...] | None" = None,
    builds: "BuildConfig | None" = None,
) -> LifecycleSimulator:
    """The Section 6 warehouse under *sampled* drift.

    Same starting world as :func:`drifting_sales_simulator` (10 GB
    sales dataset, five paper queries, five AWS small instances), but
    the future is drawn from the named generator preset (see
    :data:`repro.simulate.stochastic.GENERATOR_PRESETS`) and compiled
    into a deterministic timeline.  ``seed`` fixes the dataset;
    ``drift_seed`` (default: ``seed``) fixes the sampled future.
    ``market`` (e.g. :func:`default_market`) quotes candidate books to
    migration-aware policies; the spot walk's repricings then move the
    AWS quote without yanking a migrated warehouse back onto it.
    """
    dataset = sales_dataset(n_rows, seed, dataset_gb)
    workload = paper_sales_workload(dataset.schema, 5)
    deployment = sales_deployment()
    timeline = compile_timeline(
        generator_preset(generator),
        seed if drift_seed is None else drift_seed,
        GeneratorContext(
            schema=dataset.schema,
            base_workload=workload,
            provider=deployment.provider,
            n_epochs=n_epochs,
        ),
    )
    return LifecycleSimulator(
        initial=WarehouseState(
            workload=workload,
            dataset=dataset,
            deployment=deployment,
            market=market if market is not None else (),
        ),
        clock=SimulationClock(n_epochs),
        events=timeline,
        builds=builds,
    )


def elastic_multi_tenant_simulator(
    n_tenants: int = 3,
    generator: str = "mixed",
    churn: "FleetChurn | None" = None,
    n_epochs: int = 24,
    n_rows: int = 60_000,
    seed: int = 42,
    drift_seed: "int | None" = None,
    dataset_gb: float = 10.0,
    attribution: str = "proportional",
    market: "tuple[Provider, ...] | None" = None,
    builds: "BuildConfig | None" = None,
) -> MultiTenantSimulator:
    """*n* tenants, one warehouse, every tenant's future sampled.

    Founding tenants ``t1`` ... ``tn`` start from the same
    size/intensity mix as :func:`multi_tenant_sales_simulator`.  The
    generator preset is split by scope: each tenant gets its own
    workload-scoped streams (churn, seasonal waves) drawn from a
    per-tenant child seed, and the warehouse-scoped streams (growth,
    spot-price walk) run once, on the shared world.

    ``churn`` (default ``FleetChurn()``; see
    :func:`~repro.simulate.stochastic.sample_fleet_churn`) draws
    tenants ``c0``, ``c1``, ... that arrive mid-lifecycle and may
    depart before the horizon, each drifting under its own streams
    over its active window and billed on arrival and departure.
    ``churn=FleetChurn(arrival_rate=0.0)`` draws nobody: the fixed
    sampled fleet.

    Founders never depart, so the warehouse is occupied at every
    epoch (a :class:`~repro.simulate.tenants.MultiTenantSimulator`
    requirement).  The trajectory is a pure function of
    ``(seed, drift_seed, churn, n_epochs)``: Monte Carlo trials vary
    ``drift_seed`` to resample both drift *and* population.
    """
    if n_tenants < 1:
        raise SimulationError(
            f"the fleet needs at least one founding tenant, got {n_tenants}"
        )
    dataset = sales_dataset(n_rows, seed, dataset_gb)
    schema = dataset.schema
    deployment = sales_deployment()
    base_seed = seed if drift_seed is None else drift_seed
    workload_gens, warehouse_gens = split_by_scope(generator_preset(generator))

    def sampled_tenant(
        name: str,
        serial: int,
        drift_label: str,
        arrival: int = 0,
        departure: "int | None" = None,
    ) -> Tenant:
        workload, _ = _mixed_tenant_workload(schema, serial)
        # Drift is compiled over the tenant's active window and
        # shifted to it, so a late arrival drifts relative to its own
        # onboarding, not the fleet's epoch 0.
        window = (departure if departure is not None else n_epochs) - arrival
        events: "tuple[SimulationEvent, ...]" = ()
        if window >= 2:
            events = tuple(
                compile_timeline(
                    workload_gens,
                    derive_seed(base_seed, drift_label),
                    GeneratorContext(
                        schema=schema,
                        base_workload=workload,
                        provider=deployment.provider,
                        n_epochs=window,
                    ),
                )
            )
            if arrival:
                events = tuple(
                    replace(event, epoch=event.epoch + arrival)
                    for event in events
                )
        return Tenant(
            name=name,
            workload=workload,
            events=events,
            arrival_epoch=arrival,
            departure_epoch=departure,
        )

    tenants = [
        sampled_tenant(f"t{i + 1}", i, f"tenant:{i}")
        for i in range(n_tenants)
    ]
    # The backdrop compiles before the churn process samples, so a
    # horizon too short to drift over fails on the drift floor, even
    # for a fleet that asked for no churn.
    shared_timeline = compile_timeline(
        warehouse_gens,
        derive_seed(base_seed, "shared"),
        GeneratorContext(
            schema=schema,
            base_workload=tenants[0].workload,
            provider=deployment.provider,
            n_epochs=n_epochs,
        ),
    )
    process = churn if churn is not None else FleetChurn()
    for index, lifecycle in enumerate(
        sample_fleet_churn(
            process, derive_seed(base_seed, "fleet-churn"), n_epochs
        )
    ):
        tenants.append(
            sampled_tenant(
                lifecycle.name,
                n_tenants + index,
                f"churn:{lifecycle.name}",
                arrival=lifecycle.arrival_epoch,
                departure=lifecycle.departure_epoch,
            )
        )
    return _fleet_simulator(
        tenants,
        dataset,
        n_epochs,
        shared_events=tuple(shared_timeline),
        market=market,
        deployment=deployment,
        attribution=attribution,
        builds=builds,
    )


def population_fleet_simulator(
    n_tenants: int = 10_000,
    elastic: bool = True,
    n_epochs: int = 4,
    n_rows: int = 5_000,
    seed: int = 42,
    dataset_gb: float = 1.0,
    attribution: str = "proportional",
) -> MultiTenantSimulator:
    """A population-scale fleet: 10³–10⁵ single-query tenants.

    Built for :meth:`~repro.simulate.tenants.MultiTenantSimulator.
    run_sharded`: every tenant owns exactly one query drawn from the
    five-query paper pool (cycling, at a seeded per-tenant intensity),
    so the pricing work stays bounded while the *attribution* work —
    splitting every epoch's bill across all tenants — scales with the
    population.  The candidate catalogue is the workload-grain one
    (:func:`~repro.cube.candidates.candidates_from_workload` over the
    pool), not the full lattice, keeping selection cheap at any
    population.

    ``elastic=True`` churns a seeded ~20% of the population: some
    tenants arrive after epoch 0, some founders depart before the
    horizon (tenant ``p0`` is always static, so the warehouse is never
    empty).  ``elastic=False`` is the fixed-fleet control the
    benchmark compares against.
    """
    if n_tenants < 1:
        raise SimulationError(
            f"the population needs at least one tenant, got {n_tenants}"
        )
    if n_epochs < 3:
        raise SimulationError(
            f"the population fleet needs n_epochs >= 3 (room for "
            f"mid-lifecycle churn), got {n_epochs}"
        )
    dataset = sales_dataset(n_rows, seed, dataset_gb)
    schema = dataset.schema
    pool = tuple(paper_sales_workload(schema, 5))
    rng = random.Random(derive_seed(seed, "population"))

    tenants = []
    for i in range(n_tenants):
        query = pool[i % len(pool)]
        intensity = 0.5 + rng.random()
        arrival = 0
        departure: "int | None" = None
        if elastic and i > 0 and rng.random() < 0.2:
            if rng.random() < 0.5:
                arrival = rng.randrange(1, n_epochs - 1)
            else:
                departure = rng.randrange(2, n_epochs)
        tenants.append(
            Tenant(
                name=f"p{i}",
                workload=Workload(
                    schema, (replace(query, frequency=query.frequency * intensity),)
                ),
                arrival_epoch=arrival,
                departure_epoch=departure,
            )
        )

    catalogue = candidates_from_workload(
        CuboidLattice(schema), Workload(schema, pool)
    )
    return _fleet_simulator(
        tenants, dataset, n_epochs, attribution=attribution, catalogue=catalogue
    )
