"""Multi-tenant simulation: merging, attribution exactness, fairness."""

from __future__ import annotations

import pytest

from repro.errors import InfeasibleProblemError, SimulationError
from repro.money import Money, ZERO
from repro.optimizer import FairShareScenario, select_views
from repro.optimizer.scenarios import Tradeoff
from repro.simulate import (
    AddQueries,
    FleetChange,
    GrowFactTable,
    LifecycleSimulator,
    MultiTenantSimulator,
    SimulationClock,
    Tenant,
    TenantFleet,
    WarehouseState,
    make_policy,
    multi_tenant_min_epochs,
    multi_tenant_sales_simulator,
    qualify,
)
from repro.simulate.presets import sales_deployment
from repro.workload import paper_sales_workload
from repro.workload.query import AggregateQuery


def _day_query(schema, name, geo, frequency):
    return AggregateQuery.per(
        schema, name, {"time": "day", "geography": geo}, frequency=frequency
    )


@pytest.fixture(scope="module")
def small_fleet_sim():
    """A 3-tenant preset fleet, sized for tests."""
    return multi_tenant_sales_simulator(
        n_tenants=3, n_epochs=multi_tenant_min_epochs(3), n_rows=8_000, seed=7
    )


@pytest.fixture(scope="module")
def fleet_ledgers(small_fleet_sim):
    policies = [make_policy(name) for name in ("never", "periodic", "regret")]
    return small_fleet_sim.compare(policies)


class TestTenantValidation:
    def test_empty_name_rejected(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        with pytest.raises(SimulationError, match="non-empty"):
            Tenant("", workload)

    def test_separator_in_name_rejected(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        with pytest.raises(SimulationError, match="separat"):
            Tenant("a/b", workload)

    def test_global_event_on_tenant_rejected(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        with pytest.raises(SimulationError, match="workload events"):
            Tenant(
                "acme", workload,
                events=(GrowFactTable(epoch=1, factor=1.2),),
            )

    def test_nonpositive_budget_share_rejected(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        with pytest.raises(SimulationError, match="budget_share"):
            Tenant("acme", workload, budget_share=0.0)

    def test_qualified_names(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        tenant = Tenant("acme", workload)
        names = [q.name for q in tenant.qualified_workload()]
        assert names == ["acme/Q1", "acme/Q2", "acme/Q3"]
        assert qualify("acme", "Q1") == "acme/Q1"


class TestFleetValidation:
    def test_duplicate_tenant_names_rejected(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        with pytest.raises(SimulationError, match="unique"):
            TenantFleet(
                [Tenant("a", workload), Tenant("a", workload)],
                dataset=sales_dataset_10gb,
                deployment=sales_deployment(),
            )

    def test_workload_event_in_shared_rejected(self, sales_dataset_10gb):
        schema = sales_dataset_10gb.schema
        workload = paper_sales_workload(schema, 3)
        query = _day_query(schema, "D1", "country", 1.0)
        with pytest.raises(SimulationError, match="owning tenant"):
            TenantFleet(
                [Tenant("a", workload)],
                dataset=sales_dataset_10gb,
                deployment=sales_deployment(),
                shared_events=(AddQueries(epoch=1, queries=(query,)),),
            )

    def test_fleet_events_qualify_tenant_drift(self, sales_dataset_10gb):
        schema = sales_dataset_10gb.schema
        workload = paper_sales_workload(schema, 3)
        query = _day_query(schema, "D1", "country", 1.0)
        fleet = TenantFleet(
            [Tenant("a", workload, (AddQueries(epoch=1, queries=(query,)),))],
            dataset=sales_dataset_10gb,
            deployment=sales_deployment(),
            shared_events=(FleetChange(epoch=2, n_instances=4),),
        )
        events = fleet.events()
        assert events[0].queries[0].name == "a/D1"
        assert events[1].n_instances == 4

    def test_budget_shares_default_to_even(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        fleet = TenantFleet(
            [Tenant("a", workload), Tenant("b", workload)],
            dataset=sales_dataset_10gb,
            deployment=sales_deployment(),
        )
        assert fleet.budget_shares() == {"a": 0.5, "b": 0.5}

    def test_explicit_shares_leave_remainder_for_unset(
        self, sales_dataset_10gb
    ):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        fleet = TenantFleet(
            [
                Tenant("a", workload, budget_share=0.5),
                Tenant("b", workload),
                Tenant("c", workload),
            ],
            dataset=sales_dataset_10gb,
            deployment=sales_deployment(),
        )
        shares = fleet.budget_shares()
        assert shares["a"] == 0.5
        assert shares["b"] == shares["c"] == pytest.approx(0.25)
        caps = fleet.tenant_caps(Money("100.00"))
        assert caps["a"] == Money("50.00")

    def test_overcommitted_shares_rejected(self, sales_dataset_10gb):
        workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
        fleet = TenantFleet(
            [Tenant("a", workload, budget_share=1.5), Tenant("b", workload)],
            dataset=sales_dataset_10gb,
            deployment=sales_deployment(),
        )
        with pytest.raises(SimulationError, match="leaving"):
            fleet.budget_shares()


class TestAttributionExactness:
    def test_tenant_totals_sum_to_fleet_total(self, fleet_ledgers):
        for fleet_ledger in fleet_ledgers.values():
            tenant_sum = sum(
                (l.total_cost for l in fleet_ledger.tenants.values()), ZERO
            )
            assert tenant_sum == fleet_ledger.total_cost

    def test_every_epoch_component_balances(self, fleet_ledgers):
        for fleet_ledger in fleet_ledgers.values():
            # verify_attribution re-checks operating/build/teardown per
            # epoch with exact Decimal equality; it raising would fail
            # this test.
            fleet_ledger.verify_attribution()
            records = fleet_ledger.fleet.records
            tenant_records = [
                l.records for l in fleet_ledger.tenants.values()
            ]
            for index, record in enumerate(records):
                shares = [r[index] for r in tenant_records]
                assert (
                    sum((s.total_cost for s in shares), ZERO)
                    == record.total_cost
                )

    def test_tenant_hours_match_group_processing_hours(
        self, small_fleet_sim, fleet_ledgers
    ):
        """processing_hours_for (the tenant slice of Formula 9) agrees
        with the hours the attributor bills each tenant for at epoch 0."""
        problem = small_fleet_sim.builder.problem_for(
            small_fleet_sim.fleet.initial_state()
        )
        ledger = fleet_ledgers["never"]
        subset = frozenset(ledger.fleet.records[0].subset)
        for name, tenant_ledger in ledger.tenants.items():
            names = {
                q.name
                for q in problem.inputs.workload
                if q.name.startswith(f"{name}/")
            }
            assert tenant_ledger.records[0].processing_hours == pytest.approx(
                problem.processing_hours_for(subset, names)
            )

    def test_group_processing_hours_rejects_unknown_names(
        self, small_fleet_sim
    ):
        from repro.errors import CostModelError

        problem = small_fleet_sim.builder.problem_for(
            small_fleet_sim.fleet.initial_state()
        )
        with pytest.raises(CostModelError, match="unknown"):
            problem.processing_hours_for(frozenset(), {"nobody/Q1"})

    def test_tenant_hours_sum_to_fleet_hours(self, fleet_ledgers):
        for fleet_ledger in fleet_ledgers.values():
            tenant_hours = sum(
                l.total_hours for l in fleet_ledger.tenants.values()
            )
            assert tenant_hours == pytest.approx(
                fleet_ledger.fleet.total_hours
            )

    def test_both_modes_balance_and_differ(self):
        ledgers = {}
        for mode in ("proportional", "even"):
            sim = multi_tenant_sales_simulator(
                n_tenants=3,
                n_epochs=multi_tenant_min_epochs(3),
                n_rows=8_000,
                seed=7,
                attribution=mode,
            )
            ledgers[mode] = sim.run(make_policy("regret"))
        proportional, even = ledgers["proportional"], ledgers["even"]
        # Same fleet, same decisions, same total bill...
        assert proportional.total_cost == even.total_cost
        for mode_ledger in ledgers.values():
            tenant_sum = sum(
                (l.total_cost for l in mode_ledger.tenants.values()), ZERO
            )
            assert tenant_sum == mode_ledger.total_cost
        # ...but the split depends on the mode.
        assert any(
            proportional.tenant(name).total_cost
            != even.tenant(name).total_cost
            for name in proportional.tenants
        )

    def test_verify_attribution_catches_cooked_books(self, fleet_ledgers):
        from repro.bill import COMPONENTS
        from repro.simulate import FleetLedger, TenantLedger

        storage = [c.field for c in COMPONENTS].index("storage_cost")
        fleet_ledger = next(iter(fleet_ledgers.values()))
        cooked = {}
        for name, ledger in fleet_ledger.tenants.items():
            copy = TenantLedger(name, ledger.policy_name)
            for record in ledger.records:
                amounts = list(record.amounts)
                amounts[storage] = (record.storage_cost * 2).amount
                copy.fold(record._replace(amounts=tuple(amounts)))
            cooked[name] = copy
        broken = FleetLedger(fleet_ledger.fleet, cooked)
        with pytest.raises(SimulationError, match="shares"):
            broken.verify_attribution()


class TestSingleTenantParity:
    def test_one_tenant_reproduces_single_tenant_run(self, sales_dataset_10gb):
        """The acceptance criterion: a 1-tenant fleet is bit-for-bit the
        single-tenant simulator, and its one tenant is billed the whole
        fleet ledger."""
        schema = sales_dataset_10gb.schema
        workload = paper_sales_workload(schema, 5)
        tenant_events = (
            AddQueries(
                epoch=3, queries=(_day_query(schema, "D1", "country", 3.0),)
            ),
        )
        shared = (GrowFactTable(epoch=5, factor=1.3),)

        single = LifecycleSimulator(
            initial=WarehouseState(
                workload=workload,
                dataset=sales_dataset_10gb,
                deployment=sales_deployment(),
            ),
            clock=SimulationClock(8),
            events=list(tenant_events) + list(shared),
        )
        solo = single.run(make_policy("regret"))

        fleet = TenantFleet(
            [Tenant("solo", workload, tenant_events)],
            dataset=sales_dataset_10gb,
            deployment=sales_deployment(),
            shared_events=shared,
        )
        multi = MultiTenantSimulator(fleet, clock=SimulationClock(8))
        fleet_ledger = multi.run(make_policy("regret"))

        assert len(solo) == len(fleet_ledger.fleet)
        for ours, theirs in zip(solo.records, fleet_ledger.fleet.records):
            assert ours.epoch == theirs.epoch
            assert ours.subset == theirs.subset
            assert ours.operating_cost == theirs.operating_cost
            assert ours.build_cost == theirs.build_cost
            assert ours.teardown_cost == theirs.teardown_cost
            assert ours.processing_hours == theirs.processing_hours
            assert ours.views_built == theirs.views_built
            assert ours.views_dropped == theirs.views_dropped
            assert ours.reoptimized == theirs.reoptimized
            assert ours.regret == theirs.regret
        tenant = fleet_ledger.tenant("solo")
        assert tenant.total_cost == solo.total_cost
        assert tenant.total_cost == fleet_ledger.total_cost


class TestFairness:
    def test_needs_a_constraint(self):
        with pytest.raises(Exception, match="caps"):
            FairShareScenario(shares_fn=lambda outcome: {})

    def test_soft_mode_key_orders_by_overshoot_first(self, small_fleet_sim):
        problem = small_fleet_sim.builder.problem_for(
            small_fleet_sim.fleet.initial_state()
        )
        scenario = small_fleet_sim.fair_scenario_factory(
            max_share_slack=0.0
        )(problem)
        outcome = problem.baseline()
        key = scenario.key(outcome)
        # overshoot dollars first, then the base (cost) objective
        assert len(key) == 1 + len(Tradeoff(alpha=0.0).key(outcome))
        assert key[0] >= 0.0

    def test_shares_sum_to_outcome_total(self, small_fleet_sim):
        problem = small_fleet_sim.builder.problem_for(
            small_fleet_sim.fleet.initial_state()
        )
        attributor = small_fleet_sim.attributor
        for subset in (frozenset(), frozenset(list(problem.candidate_names)[:2])):
            outcome = problem.evaluate(subset)
            shares = attributor.outcome_shares(problem, outcome)
            assert sum(shares.values(), ZERO) == outcome.total_cost

    def test_hard_impossible_caps_are_infeasible(self, small_fleet_sim):
        problem = small_fleet_sim.builder.problem_for(
            small_fleet_sim.fleet.initial_state()
        )
        caps = {name: Money("0.01") for name in small_fleet_sim.fleet.tenant_names}
        scenario = small_fleet_sim.fair_scenario_factory(
            caps=caps, hard=True
        )(problem)
        with pytest.raises(InfeasibleProblemError):
            select_views(problem, scenario, "greedy")

    def test_soft_fairness_narrows_the_spread(self):
        """The fairness mode's acceptance-style check: under the soft
        even-split preference no tenant's share exceeds the cap by more
        than the unconstrained run's worst overshoot."""
        epochs = multi_tenant_min_epochs(2)
        plain = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=epochs, n_rows=8_000, seed=7
        )
        base_ledger = plain.run(make_policy("periodic", period=4))

        fair = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=epochs, n_rows=8_000, seed=7
        )
        factory = fair.fair_scenario_factory(max_share_slack=0.5)
        fair_ledger = fair.run(
            make_policy("periodic", period=4, scenario_factory=factory)
        )

        def spread(fleet_ledger):
            costs = [
                l.total_cost.to_float()
                for l in fleet_ledger.tenants.values()
            ]
            return max(costs) / min(costs)

        assert spread(fair_ledger) < spread(base_ledger)
        fair_ledger.verify_attribution()

    def test_regret_still_fires_under_soft_fairness(self):
        """Regression: soft fairness puts overshoot first in the key,
        so regret measured on key[0] alone would read 0 whenever both
        the held set and the optimum are overshoot-free — silently
        degenerating regret into never-reselect.  The lexicographic
        regret must still catch cost drift in the later components."""
        epochs = multi_tenant_min_epochs(2)
        sim = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=epochs, n_rows=8_000, seed=7
        )
        # A slack this large never binds, so key[0] (overshoot) is 0
        # for every subset and only the cost component can drive
        # re-selection.
        factory = sim.fair_scenario_factory(max_share_slack=1000.0)
        fair = sim.run(
            make_policy("regret", scenario_factory=factory)
        )
        plain = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=epochs, n_rows=8_000, seed=7
        ).run(make_policy("regret"))
        # With a never-binding fairness envelope the policy must track
        # the plain regret policy, drift-triggered re-selections included.
        assert (
            fair.fleet.reoptimization_count
            == plain.fleet.reoptimization_count
        )
        assert fair.total_cost == plain.total_cost

    def test_knapsack_falls_back_when_caps_bind(self, small_fleet_sim):
        """select_views(knapsack) on a fairness scenario must return a
        scenario-feasible outcome when one exists."""
        problem = small_fleet_sim.builder.problem_for(
            small_fleet_sim.fleet.initial_state()
        )
        # Generous caps: the unconstrained knapsack answer already fits.
        total = problem.baseline().total_cost
        caps = {
            name: total for name in small_fleet_sim.fleet.tenant_names
        }
        scenario = small_fleet_sim.fair_scenario_factory(
            caps=caps, hard=True
        )(problem)
        result = select_views(problem, scenario, "knapsack")
        assert scenario.feasible(result.outcome)


class TestPreset:
    def test_too_few_epochs_rejected(self):
        needed = multi_tenant_min_epochs(3)
        with pytest.raises(SimulationError, match=str(needed)):
            multi_tenant_sales_simulator(
                n_tenants=3, n_epochs=needed - 1, n_rows=5_000
            )

    def test_needs_a_tenant(self):
        with pytest.raises(SimulationError, match="at least one tenant"):
            multi_tenant_sales_simulator(n_tenants=0, n_rows=5_000)

    def test_tenants_drift_out_of_phase(self, small_fleet_sim):
        arrivals = [
            event.epoch
            for event in small_fleet_sim.simulator.timeline
            if isinstance(event, AddQueries)
        ]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)
