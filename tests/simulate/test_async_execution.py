"""Asynchronous epoch execution: parity, proration, sunk builds."""

import pytest

from repro.costmodel.computing import view_computing_cost
from repro.cube.lattice import CuboidLattice
from repro.data.sales_generator import generate_sales
from repro.money import Money, ZERO
from repro.simulate import (
    ArbitrageAware,
    BuildConfig,
    EpochProblemBuilder,
    MonteCarloConfig,
    PolicyDecision,
    PolicySpec,
    ReselectionPolicy,
    WarehouseState,
    default_market,
    drifting_sales_simulator,
    full_catalogue,
    make_policy,
    multi_tenant_sales_simulator,
    run_monte_carlo,
    sales_deployment,
    stochastic_sales_simulator,
)
from repro.workload.workload import paper_sales_workload

ROWS = 4_000
EPOCHS = 19  # the drifting scenario's minimum horizon

INSTANT = BuildConfig(slots=4, hours_per_month=float("inf"))
#: 0.5 compute-hours per wall-clock month: a one-hour build takes two
#: epochs, which is what makes mid-epoch landings and cancellations
#: easy to provoke in tests.
SLOW = BuildConfig(hours_per_month=0.5)


def sync_simulator(**kwargs):
    return drifting_sales_simulator(n_epochs=EPOCHS, n_rows=ROWS, **kwargs)


def slow_simulator(**kwargs):
    return drifting_sales_simulator(
        n_epochs=EPOCHS, n_rows=ROWS, builds=SLOW, **kwargs
    )


class TestSyncParity:
    """Zero-latency async must reproduce the sync ledgers byte for byte."""

    @pytest.mark.parametrize("name", ["never", "periodic", "regret"])
    def test_drifting_preset_parity(self, name):
        sync = sync_simulator().run(make_policy(name))
        instant = sync_simulator(builds=INSTANT).run(make_policy(name))
        assert instant.records == sync.records
        assert instant.render() == sync.render()

    def test_single_slot_is_enough_for_instant_parity(self):
        # Zero-duration builds chain through one slot within the
        # submission instant, so even slots=1 reproduces sync exactly.
        sync = sync_simulator().run(make_policy("periodic"))
        instant = drifting_sales_simulator(
            n_epochs=EPOCHS,
            n_rows=ROWS,
            builds=BuildConfig(slots=1, hours_per_month=float("inf")),
        ).run(make_policy("periodic"))
        assert instant.records == sync.records

    def test_stochastic_preset_parity(self):
        sync = stochastic_sales_simulator(
            generator="mixed", n_epochs=12, n_rows=ROWS, seed=7
        ).run(make_policy("regret"))
        instant = stochastic_sales_simulator(
            generator="mixed",
            n_epochs=12,
            n_rows=ROWS,
            seed=7,
            builds=INSTANT,
        ).run(make_policy("regret"))
        assert instant.records == sync.records

    def test_multi_tenant_preset_parity(self):
        sync = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=17, n_rows=ROWS
        ).run(make_policy("regret"))
        instant = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=17, n_rows=ROWS, builds=INSTANT
        ).run(make_policy("regret"))
        assert instant.render() == sync.render()
        assert instant.fleet.records == sync.fleet.records
        for name in ("t1", "t2"):
            assert (
                instant.tenant(name).records == sync.tenant(name).records
            )


class TestMidEpochLandings:
    def test_slow_builds_split_epochs_into_segments(self):
        ledger = slow_simulator().run(make_policy("periodic"))
        split = [r for r in ledger if r.segments]
        assert split, "slow builds must land mid-epoch somewhere"
        for record in split:
            assert sum(s.fraction for s in record.segments) == 1.0
            # Holdings only grow within an epoch, segment by segment.
            subsets = [frozenset(s.subset) for s in record.segments]
            for earlier, later in zip(subsets, subsets[1:]):
                assert earlier < later
        assert ledger.total_build_latency_months > 0

    def test_queries_answered_from_previous_holdings_until_landing(self):
        # Epoch 0 starts with nothing live: while the first views
        # build, queries run off the base table, so the first epoch's
        # response time must exceed the sync run's (which pretends the
        # views exist immediately).
        sync = sync_simulator().run(make_policy("never"))
        slow = slow_simulator().run(make_policy("never"))
        assert (
            slow.records[0].processing_hours
            > sync.records[0].processing_hours
        )

    def test_segment_billing_reconstructs_exactly(self):
        # Rebuild epoch 0's pricing world independently and re-derive
        # the prorated operating charge from the recorded segments.
        ledger = slow_simulator().run(make_policy("never"))
        record = ledger.records[0]
        assert record.segments
        dataset = generate_sales(n_rows=ROWS, seed=42, target_gb=10.0)
        state = WarehouseState(
            workload=paper_sales_workload(dataset.schema, 5),
            dataset=dataset,
            deployment=sales_deployment(),
        )
        builder = EpochProblemBuilder(
            full_catalogue(CuboidLattice(dataset.schema))
        )
        problem = builder.problem_for(state)
        expected = ZERO
        for segment in record.segments:
            breakdown = problem.evaluate(frozenset(segment.subset)).breakdown
            full = (
                breakdown.total - breakdown.computing.materialization_cost
            )
            expected = expected + (
                full if segment.fraction == 1.0 else full * segment.fraction
            )
        assert record.operating_cost == expected

    def test_materialization_billed_once_across_defer_and_land(self):
        # Same decisions, same views, same build hours: deferring the
        # landing must not change what materialization costs in total.
        sync = sync_simulator().run(make_policy("never"))
        slow = slow_simulator().run(make_policy("never"))
        assert slow.total_build_cost == sync.total_build_cost
        assert slow.rebuild_count == sync.rebuild_count
        built = [v for r in slow for v in r.views_built]
        assert len(built) == len(set(built))

    def test_steady_state_epochs_match_sync_once_everything_landed(self):
        sync = sync_simulator().run(make_policy("never"))
        slow = slow_simulator().run(make_policy("never"))
        # By mid-run the initial selection has fully landed; epochs
        # with no in-flight builds bill exactly like the sync run.
        steady = slow.records[6]
        assert not steady.segments
        assert steady.operating_cost == sync.records[6].operating_cost
        assert steady.processing_hours == pytest.approx(
            sync.records[6].processing_hours
        )


class _ScriptedPolicy(ReselectionPolicy):
    """Decides a fixed sequence of subsets, observing queue depth."""

    name = "scripted"

    def __init__(self, steps):
        super().__init__()
        self._steps = steps
        self.depths = []

    def decide_in_context(self, epoch_index, problem, current, context):
        self.depths.append(context.queue_depth)
        step = self._steps[min(epoch_index, len(self._steps) - 1)]
        return PolicyDecision(frozenset(step), reoptimized=True)

    def decide(self, epoch_index, problem, current):
        step = self._steps[min(epoch_index, len(self._steps) - 1)]
        return PolicyDecision(frozenset(step), reoptimized=True)


class TestCancellation:
    def _first_choice(self):
        """The view the reference policy builds first (a real name)."""
        ledger = sync_simulator().run(make_policy("never"))
        return ledger.records[0].views_built[0]

    def test_cancelled_build_bills_only_sunk_compute(self):
        view = self._first_choice()
        policy = _ScriptedPolicy([{view}, set()])
        # 0.2 compute-hours per month: the ~0.39-hour build needs ~2
        # epochs, so dropping it in epoch 1 cancels it mid-build.
        simulator = drifting_sales_simulator(
            n_epochs=EPOCHS,
            n_rows=ROWS,
            builds=BuildConfig(hours_per_month=0.2),
        )
        ledger = simulator.run(policy)
        first, second = ledger.records[0], ledger.records[1]
        assert first.views_built == ()
        assert second.views_cancelled == (view,)
        assert second.views_built == ()
        # Exactly one wall-clock month ran: 0.2 compute-hours sunk.
        deployment = sales_deployment()
        expected = view_computing_cost(
            deployment.provider.compute,
            deployment.instance_type,
            deployment.n_instances,
            query_hours=(),
            materialization_hours=(0.2,),
        ).materialization_cost
        assert second.cancelled_cost == expected
        assert ledger.total_build_cost == ZERO
        # Never landed, so there is nothing to tear down or egress.
        assert second.views_dropped == ()
        assert second.teardown_cost == ZERO
        assert "cancelled@1" in " ".join(second.events)

    def test_queue_depth_is_observable_by_policies(self):
        view = self._first_choice()
        policy = _ScriptedPolicy([{view}, {view}, {view}])
        simulator = drifting_sales_simulator(
            n_epochs=EPOCHS,
            n_rows=ROWS,
            builds=BuildConfig(hours_per_month=0.2),
        )
        simulator.run(policy)
        assert policy.depths[0] == 0
        assert policy.depths[1] >= 1  # still building at epoch 1

    def test_horizon_end_closes_out_inflight_builds(self):
        view = self._first_choice()
        # Submit in the last epoch: the build cannot land before the
        # horizon ends, so it is closed out at sunk cost.
        steps = [set()] * (EPOCHS - 1) + [{view}]
        ledger = slow_simulator().run(_ScriptedPolicy(steps))
        last = ledger.records[-1]
        assert last.views_cancelled == (view,)
        assert last.views_built == ()
        assert last.cancelled_cost > ZERO
        assert ledger.total_build_cost == ZERO

    def test_cancelled_while_queued_costs_nothing(self):
        ledger_sync = sync_simulator().run(make_policy("never"))
        subset = set(ledger_sync.records[0].subset)
        if len(subset) < 2:
            subset = {
                ledger_sync.records[0].subset[0],
                sync_simulator().builder.catalogue[0].name,
            }
        # One slot: the second view queues behind the first; dropping
        # it in epoch 1 cancels a job that never started.
        ordered = sorted(subset)
        policy = _ScriptedPolicy([set(ordered), {ordered[0]}])
        config = BuildConfig(slots=1, hours_per_month=0.25)
        ledger = drifting_sales_simulator(
            n_epochs=EPOCHS, n_rows=ROWS, builds=config
        ).run(policy)
        second = ledger.records[1]
        assert ordered[1] in second.views_cancelled
        assert second.cancelled_cost == ZERO


class TestMigrationCancellation:
    def test_migration_bills_sunk_compute_at_the_source_book(self):
        # A build runs for one month on the AWS book, then a scheduled
        # migration to flat-cloud abandons it.  The burned compute ran
        # on AWS, so the sunk charge must use AWS rates — not the
        # (cheaper) target's.
        from repro.pricing import flat_cloud
        from repro.simulate import (
            LifecycleSimulator,
            ProviderMigration,
            SimulationClock,
        )
        from repro.data.sales_generator import generate_sales

        dataset = generate_sales(n_rows=ROWS, seed=42, target_gb=10.0)
        initial = WarehouseState(
            workload=paper_sales_workload(dataset.schema, 5),
            dataset=dataset,
            deployment=sales_deployment(),
        )
        simulator = LifecycleSimulator(
            initial=initial,
            clock=SimulationClock(3),
            events=[ProviderMigration(epoch=1, provider=flat_cloud())],
            builds=BuildConfig(hours_per_month=0.2),
        )
        view = (
            sync_simulator().run(make_policy("never")).records[0].subset[0]
        )
        # Hold the view before the hop, drop it at the hop: the build
        # (~0.39 h at 0.2 h/month) is still running when the
        # migration fires at month 1 with 0.2 compute-hours sunk.
        ledger = simulator.run(_ScriptedPolicy([{view}, set(), set()]))
        hop = ledger.records[1]
        assert hop.migrated_to == "flat-cloud"
        assert hop.views_cancelled == (view,)
        source = sales_deployment()  # the AWS book the hours ran on
        expected = view_computing_cost(
            source.provider.compute,
            source.instance_type,
            source.n_instances,
            query_hours=(),
            materialization_hours=(0.2,),
        ).materialization_cost
        assert hop.cancelled_cost == expected
        # And AWS rates really differ from the target's, so the
        # assertion above distinguishes the two books.
        target = flat_cloud()
        wrong = view_computing_cost(
            target.compute,
            source.instance_type,
            source.n_instances,
            query_hours=(),
            materialization_hours=(0.2,),
        ).materialization_cost
        assert wrong != expected


class TestMultiTenantAsync:
    def test_async_attribution_balances_exactly(self):
        simulator = multi_tenant_sales_simulator(
            n_tenants=3, n_epochs=17, n_rows=ROWS, builds=SLOW
        )
        fleet_ledger = simulator.run(make_policy("periodic"))
        # run() verifies internally; re-verify explicitly and check
        # the segment path was actually exercised.
        fleet_ledger.verify_attribution()
        assert any(r.segments for r in fleet_ledger.fleet)
        total = sum(
            (t.total_cost for t in fleet_ledger.tenants.values()), ZERO
        )
        assert total == fleet_ledger.total_cost

    def test_async_attribution_balances_in_even_mode(self):
        simulator = multi_tenant_sales_simulator(
            n_tenants=2,
            n_epochs=17,
            n_rows=ROWS,
            attribution="even",
            builds=BuildConfig(slots=2, discipline="shortest",
                               hours_per_month=0.5),
        )
        fleet_ledger = simulator.run(make_policy("regret"))
        fleet_ledger.verify_attribution()


class TestAsyncMonteCarlo:
    def test_async_summaries_identical_across_jobs(self):
        config = MonteCarloConfig(
            n_trials=4,
            n_epochs=8,
            n_rows=ROWS,
            seed=7,
            build_slots=1,
            policies=(PolicySpec("regret"),),
        )
        serial = run_monte_carlo(config, jobs=1)
        parallel = run_monte_carlo(config, jobs=4)
        assert serial.rows() == parallel.rows()

    def test_async_metrics_surface_in_summaries(self):
        config = MonteCarloConfig(
            n_trials=2,
            n_epochs=8,
            n_rows=ROWS,
            seed=7,
            build_slots=2,
            build_discipline="shortest",
            policies=(PolicySpec("periodic"),),
        )
        result = run_monte_carlo(config)
        names = result.metric_names()
        assert "cancelled_cost" in names
        assert "build_latency_months" in names
        assert "builds=2x shortest" in result.summary()

    def test_build_knobs_validated(self):
        import repro.errors as errors

        with pytest.raises(errors.SimulationError, match="build_slots"):
            MonteCarloConfig(build_slots=-1)
        with pytest.raises(errors.SimulationError, match="discipline"):
            MonteCarloConfig(build_slots=1, build_discipline="lifo")


class TestArbitrageComposition:
    def test_arbitrage_runs_over_async_builds(self):
        # Migration cancels in-flight builds and re-queues the subset
        # on the target book; the run must stay consistent end to end.
        simulator = stochastic_sales_simulator(
            generator="spot",
            n_epochs=10,
            n_rows=ROWS,
            seed=7,
            market=default_market(),
            builds=BuildConfig(hours_per_month=1.0),
        )
        policy = ArbitrageAware(
            make_policy("regret"), horizon=2, hysteresis=1
        )
        ledger = simulator.run(policy)
        assert len(ledger) == 10
        assert ledger.total_cost > Money(0)
