"""Online pricing arbitrage: migration economics, hysteresis, billing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.data import generate_sales
from repro.errors import SimulationError
from repro.money import Money, ZERO
from repro.pricing.compute import ComputePricing
from repro.pricing.migration import migration_transfer_cost
from repro.pricing.providers import aws_2012, flat_cloud
from repro.pricing.storage import StoragePricing
from repro.pricing.tiers import TierSchedule
from repro.pricing.transfer import TransferPricing
from repro.simulate import (
    ArbitrageAware,
    GeneratorContext,
    LifecycleSimulator,
    MarketReprice,
    MonteCarloConfig,
    PolicySpec,
    PriceChange,
    ProviderMigration,
    SimulationClock,
    SpotPriceWalk,
    Tenant,
    TenantFleet,
    MultiTenantSimulator,
    WarehouseState,
    compile_timeline,
    default_market,
    make_policy,
    provider_family,
    run_monte_carlo,
    spot_repriced,
    stochastic_sales_simulator,
)
from repro.simulate.presets import sales_deployment
from repro.workload import paper_sales_workload


def _with_outbound(provider, rate):
    """``provider`` with a flat outbound transfer rate (ingress free)."""
    return replace(
        provider,
        transfer=TransferPricing(TierSchedule.flat(Money(rate))),
    )


def _cheap_clone(provider, name, factor):
    """A different-family book with every compute/storage rate scaled."""
    compute = provider.compute
    return replace(
        provider,
        name=name,
        compute=ComputePricing(
            [
                replace(itype, hourly_rate=itype.hourly_rate * factor)
                for itype in compute.instance_types.values()
            ],
            compute.granularity,
        ),
        storage=StoragePricing(
            TierSchedule.flat(Money("0.14") * factor)
        ),
    )


@pytest.fixture(scope="module")
def world():
    dataset = generate_sales(n_rows=2_000, seed=7, target_gb=10.0)
    return dataset, paper_sales_workload(dataset.schema, 5)


def _simulator(world, deployment, market, n_epochs=6, events=(), **kwargs):
    dataset, workload = world
    return LifecycleSimulator(
        initial=WarehouseState(
            workload=workload,
            dataset=dataset,
            deployment=deployment,
            market=tuple(market),
        ),
        clock=SimulationClock(n_epochs),
        events=events,
        **kwargs,
    )


class TestMarketState:
    def test_candidate_books_exclude_the_active_family(self, world):
        dataset, workload = world
        deployment = sales_deployment()
        state = WarehouseState(
            workload=workload,
            dataset=dataset,
            deployment=deployment,
            market=default_market(),
        )
        families = {provider_family(p.name) for p in state.candidate_books()}
        assert families == {"flat-cloud", "archive-cloud"}

    def test_market_rejects_duplicate_families(self, world):
        dataset, workload = world
        with pytest.raises(SimulationError, match="twice"):
            WarehouseState(
                workload=workload,
                dataset=dataset,
                deployment=sales_deployment(),
                market=(aws_2012(), spot_repriced(aws_2012(), 1.5)),
            )

    def test_repriced_follows_only_the_active_family(self, world):
        dataset, workload = world
        deployment = sales_deployment()
        state = WarehouseState(
            workload=workload,
            dataset=dataset,
            deployment=deployment,
            market=(deployment.provider, flat_cloud()),
        )
        quote = spot_repriced(deployment.provider, 1.5)
        # On the quoted family: the deployment follows the quote.
        moved = state.repriced(quote)
        assert moved.deployment.provider.name == quote.name
        # Off the family (migrated to flat-cloud): only the market
        # entry updates, the deployment stays put.
        migrated = state.with_provider(flat_cloud())
        requoted = migrated.repriced(quote)
        assert requoted.deployment.provider.name == "flat-cloud"
        assert quote.name in {p.name for p in requoted.market}
        # The quote stays priceable as a migration target.
        assert quote.name in {
            p.name for p in requoted.candidate_books()
        }

    def test_market_is_not_part_of_the_state_key(self, world):
        dataset, workload = world
        deployment = sales_deployment()
        bare = WarehouseState(
            workload=workload, dataset=dataset, deployment=deployment
        )
        quoted = WarehouseState(
            workload=workload,
            dataset=dataset,
            deployment=deployment,
            market=default_market(),
        )
        assert bare.key() == quoted.key()

    def test_market_reprice_event_is_family_gated(self, world):
        dataset, workload = world
        deployment = sales_deployment()
        state = WarehouseState(
            workload=workload,
            dataset=dataset,
            deployment=replace(deployment, provider=flat_cloud()),
            market=(deployment.provider, flat_cloud()),
        )
        quote = spot_repriced(deployment.provider, 1.3)
        gated = MarketReprice(epoch=1, provider=quote).apply(state)
        assert gated.deployment.provider.name == "flat-cloud"
        # The unconditional event still moves the warehouse.
        forced = PriceChange(epoch=1, provider=quote).apply(state)
        assert forced.deployment.provider.name == quote.name


class TestMigrationBilling:
    def test_scheduled_migration_bills_exact_transfer_legs(self, world):
        # An empty catalogue pins the shipped volume to the dataset
        # alone, so the billed legs are computable in closed form.
        deployment = sales_deployment()
        simulator = _simulator(
            world,
            deployment,
            market=(),
            events=[ProviderMigration(epoch=2, provider=flat_cloud())],
            catalogue=(),
        )
        ledger = simulator.run(make_policy("never"))
        record = ledger.records[2]
        egress, ingress = migration_transfer_cost(
            deployment.provider, flat_cloud(), 10.0
        )
        assert record.migrated_to == "flat-cloud"
        assert record.migration_cost == egress + ingress
        assert record.migration_cost > ZERO
        assert ledger.migration_count == 1
        assert ledger.total_migration_cost == record.migration_cost
        assert ">>flat-cloud" in record.describe()

    def test_migration_rebuilds_every_kept_view_on_the_target(self, world):
        simulator = _simulator(
            world,
            sales_deployment(),
            market=(),
            n_epochs=5,
            events=[ProviderMigration(epoch=2, provider=flat_cloud())],
        )
        ledger = simulator.run(make_policy("never"))
        migrated = ledger.records[2]
        held = ledger.records[1].subset
        assert held  # the scenario materializes something
        assert migrated.views_built == migrated.subset
        assert migrated.build_cost > ZERO  # re-materialization billed
        # Ordinary epochs after the move carry the views again.
        assert ledger.records[3].views_built == ()

    def test_same_epoch_forced_reprice_bills_egress_on_the_book_left(
        self, world
    ):
        # A forced PriceChange and a policy migration share an epoch:
        # the warehouse is pushed onto a dear book at epoch 2 and the
        # arbitrage layer immediately leaves it.  The egress leg must
        # be billed on the dear book (the one actually departed), not
        # on the pre-event provider.
        deployment = sales_deployment()
        dear = _with_outbound(
            _cheap_clone(deployment.provider, "dear-cloud", 10.0), "0.50"
        )
        simulator = _simulator(
            world,
            deployment,
            market=(deployment.provider, dear),
            events=[PriceChange(epoch=2, provider=dear)],
            catalogue=(),
        )
        ledger = simulator.run(
            ArbitrageAware(make_policy("never"), horizon=4, hysteresis=1)
        )
        record = ledger.records[2]
        assert record.migrated_to == deployment.provider.name
        egress, ingress = migration_transfer_cost(
            dear, deployment.provider, 10.0
        )
        assert record.migration_cost == egress + ingress
        assert record.migration_cost == Money("0.50") * 10

    def test_total_cost_includes_the_migration_line(self, world):
        simulator = _simulator(
            world,
            sales_deployment(),
            market=(),
            events=[ProviderMigration(epoch=1, provider=flat_cloud())],
            catalogue=(),
        )
        record = simulator.run(make_policy("never")).records[1]
        assert record.total_cost == (
            record.operating_cost
            + record.build_cost
            + record.teardown_cost
            + record.migration_cost
        )


class TestArbitragePolicy:
    def test_never_migrates_when_egress_dominates(self, world):
        # The source charges $1000/GB on the way out; even a nearly
        # free target cannot amortize a five-figure exit bill.
        deployment = replace(
            sales_deployment(),
            provider=_with_outbound(sales_deployment().provider, "1000"),
        )
        cheap = _cheap_clone(deployment.provider, "cheap-cloud", 0.01)
        simulator = _simulator(
            world, deployment, market=(deployment.provider, cheap)
        )
        policy = ArbitrageAware(
            make_policy("never"), horizon=4, hysteresis=1
        )
        ledger = simulator.run(policy)
        assert ledger.migration_count == 0
        assert ledger.total_migration_cost == ZERO

    def test_always_migrates_under_free_egress(self, world):
        # Free egress, free ingress, a 100x cheaper target: the switch
        # cost is only the rebuild, which one epoch's savings clears.
        deployment = replace(
            sales_deployment(),
            provider=_with_outbound(sales_deployment().provider, 0),
        )
        cheap = _cheap_clone(deployment.provider, "cheap-cloud", 0.01)
        simulator = _simulator(
            world, deployment, market=(deployment.provider, cheap)
        )
        policy = ArbitrageAware(
            make_policy("never"), horizon=4, hysteresis=1
        )
        ledger = simulator.run(policy)
        assert ledger.migration_count == 1
        # Hysteresis 1 moves on the first assessable epoch (epoch 0
        # never migrates: nothing is deployed yet).
        assert ledger.records[1].migrated_to == "cheap-cloud"
        assert ledger.records[1].migration_cost == ZERO
        # And the move pays: cheaper than staying put.
        stay = _simulator(
            world, deployment, market=(deployment.provider, cheap)
        ).run(make_policy("never"))
        assert ledger.total_cost < stay.total_cost

    def test_hysteresis_prevents_thrash_under_spot_walk(self, world):
        dataset, workload = world
        deployment = sales_deployment()
        timeline = compile_timeline(
            (SpotPriceWalk(volatility=0.6, floor=0.5, ceiling=2.0),),
            5,
            GeneratorContext(
                schema=dataset.schema,
                base_workload=workload,
                provider=deployment.provider,
                n_epochs=16,
            ),
        )

        def migrations(hold: int) -> int:
            simulator = LifecycleSimulator(
                initial=WarehouseState(
                    workload=workload,
                    dataset=dataset,
                    deployment=deployment,
                    market=(deployment.provider, flat_cloud()),
                ),
                clock=SimulationClock(16),
                events=timeline,
            )
            policy = ArbitrageAware(
                make_policy("never"), horizon=12, hysteresis=hold
            )
            return simulator.run(policy).migration_count

        twitchy = migrations(1)
        held = migrations(3)
        assert twitchy >= 3  # the walk genuinely whipsaws this seed
        assert held < twitchy
        assert held <= 2

    def test_first_epoch_never_migrates(self, world):
        cheap = _cheap_clone(
            sales_deployment().provider, "cheap-cloud", 0.01
        )
        deployment = replace(
            sales_deployment(),
            provider=_with_outbound(sales_deployment().provider, 0),
        )
        simulator = _simulator(
            world, deployment, market=(deployment.provider, cheap)
        )
        ledger = simulator.run(
            ArbitrageAware(make_policy("never"), horizon=8, hysteresis=1)
        )
        assert ledger.records[0].migrated_to is None

    def test_empty_market_is_a_passthrough(self, world):
        simulator = _simulator(world, sales_deployment(), market=())
        wrapped = simulator.run(
            ArbitrageAware(make_policy("never"), horizon=6, hysteresis=2)
        )
        plain = _simulator(world, sales_deployment(), market=()).run(
            make_policy("never")
        )
        assert wrapped.total_cost == plain.total_cost
        assert wrapped.migration_count == 0

    def test_validation_and_describe(self):
        inner = make_policy("regret")
        with pytest.raises(SimulationError, match="horizon"):
            ArbitrageAware(inner, horizon=0, hysteresis=2)
        with pytest.raises(SimulationError, match="hysteresis"):
            ArbitrageAware(inner, horizon=6, hysteresis=0)
        with pytest.raises(SimulationError, match="nest"):
            ArbitrageAware(
                ArbitrageAware(inner, horizon=6, hysteresis=2),
                horizon=6,
                hysteresis=2,
            )
        assert (
            ArbitrageAware(inner, horizon=6, hysteresis=2).describe()
            == "arbitrage[regret(>0.05), h=6, hold 2]"
        )
        assert (
            ArbitrageAware(make_policy("never"), horizon=3, hysteresis=1)
            .describe()
            == "arbitrage[never, h=3]"
        )


class TestTenantAttribution:
    def test_migration_cost_attribution_sums_exactly(self, world):
        dataset, _ = world
        schema = dataset.schema
        tenants = [
            Tenant(
                name=f"t{i + 1}",
                workload=paper_sales_workload(schema, size),
            )
            for i, size in enumerate((3, 5))
        ]
        fleet = TenantFleet(
            tenants,
            dataset=dataset,
            deployment=sales_deployment(),
            shared_events=(
                ProviderMigration(epoch=2, provider=flat_cloud()),
            ),
        )
        simulator = MultiTenantSimulator(fleet, clock=SimulationClock(5))
        fleet_ledger = simulator.run(make_policy("regret"))
        fleet_ledger.verify_attribution()  # includes the migration rows
        migrated = fleet_ledger.fleet.records[2]
        assert migrated.migration_cost > ZERO
        shares = [
            ledger.records[2].migration_cost
            for ledger in fleet_ledger.tenants.values()
        ]
        assert sum(shares, ZERO) == migrated.migration_cost
        # Every other epoch attributes zero migration cost.
        for ledger in fleet_ledger.tenants.values():
            for record in ledger.records:
                if record.epoch != 2:
                    assert record.migration_cost == ZERO

    def test_even_mode_splits_the_switch_evenly(self, world):
        dataset, _ = world
        schema = dataset.schema
        tenants = [
            Tenant(name=f"t{i + 1}", workload=paper_sales_workload(schema, 3))
            for i in range(2)
        ]
        fleet = TenantFleet(
            tenants,
            dataset=dataset,
            deployment=sales_deployment(),
            shared_events=(
                ProviderMigration(epoch=1, provider=flat_cloud()),
            ),
        )
        simulator = MultiTenantSimulator(
            fleet, clock=SimulationClock(3), attribution="even"
        )
        fleet_ledger = simulator.run(make_policy("never"))
        first, second = (
            fleet_ledger.tenant("t1").records[1].migration_cost,
            fleet_ledger.tenant("t2").records[1].migration_cost,
        )
        assert first + second == fleet_ledger.fleet.records[1].migration_cost
        assert first == second


class TestMonteCarloArbitrage:
    def test_arbitrage_beats_stay_put_under_spot_drift(self):
        config = MonteCarloConfig(
            generator="spot",
            n_trials=4,
            n_epochs=8,
            n_rows=4_000,
            seed=7,
            policies=(
                PolicySpec("regret"),
                PolicySpec("regret", arbitrage=True),
            ),
        )
        assert config.quotes_market
        result = run_monte_carlo(config, jobs=1)
        arbitrage_label = "arbitrage[regret(>0.05), h=6, hold 2]"
        stay = result.metric("regret(>0.05)", "total_cost")
        moved = result.metric(arbitrage_label, "total_cost")
        assert moved.mean < stay.mean
        assert result.metric(arbitrage_label, "migrations").mean > 0
        assert result.metric("regret(>0.05)", "migrations").mean == 0
        assert "migrations" in result.metric_names()
        assert "migration_cost" in result.metric_names()

    def test_market_quotes_do_not_change_stay_put_costs(self):
        # The market is inert to non-arbitrage policies: quoting it
        # must not move a single digit of their ledgers.
        bare = stochastic_sales_simulator(
            generator="spot", n_epochs=6, n_rows=2_000, seed=3
        ).run(make_policy("never"))
        quoted = stochastic_sales_simulator(
            generator="spot",
            n_epochs=6,
            n_rows=2_000,
            seed=3,
            market=default_market(),
        ).run(make_policy("never"))
        assert bare.render() == quoted.render()

    def test_policyspec_validation(self):
        with pytest.raises(SimulationError, match="migration_horizon"):
            PolicySpec("never", migration_horizon=0)
        with pytest.raises(SimulationError, match="migration_hold"):
            PolicySpec("never", migration_hold=0)
        spec = PolicySpec("never", arbitrage=True, migration_horizon=3)
        assert spec.label() == "arbitrage[never, h=3, hold 2]"
