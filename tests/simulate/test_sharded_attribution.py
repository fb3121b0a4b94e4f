"""Sharded streaming attribution: partitioning, identity, error paths.

The generative suite (``test_fleet_properties.py``) proves sharded
runs byte-identical across shard counts on random fleets; this file
pins the machinery itself — ``shard_bounds`` partitioning, idle
shards, the validation that refuses malformed active splits, the
exact amounts an unbalanced book reports — with small deterministic
cases.
"""

from __future__ import annotations

import re
from dataclasses import replace
from decimal import Decimal

import pytest

from repro.bill import COMPONENTS
from repro.errors import SimulationError
from repro.money import MONEY_CONTEXT, Money
from repro.simulate import (
    FleetLedger,
    MultiTenantSimulator,
    NeverReselect,
    SimulationClock,
    Tenant,
    TenantFleet,
    TenantLedger,
)
from repro.simulate.ledger import FleetSummary, TenantTotals
from repro.simulate.presets import sales_deployment
from repro.simulate.sharding import ShardedAttribution, shard_bounds
from repro.workload import paper_sales_workload


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(6, 3) == ((0, 2), (2, 4), (4, 6))

    def test_remainder_goes_to_leading_shards(self):
        assert shard_bounds(7, 3) == ((0, 3), (3, 5), (5, 7))

    def test_more_shards_than_tenants_leaves_idle_shards(self):
        bounds = shard_bounds(3, 8)
        assert bounds[:3] == ((0, 1), (1, 2), (2, 3))
        assert all(start == stop for start, stop in bounds[3:])

    def test_partition_is_exact_for_all_small_sizes(self):
        """Bounds always tile [0, n) contiguously with balanced loads."""
        for n_tenants in range(18):
            for shards in range(1, 10):
                bounds = shard_bounds(n_tenants, shards)
                assert len(bounds) == shards
                cursor = 0
                for start, stop in bounds:
                    assert start == cursor
                    assert stop >= start
                    cursor = stop
                assert cursor == n_tenants
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1

    def test_zero_shards_rejected(self):
        with pytest.raises(SimulationError, match="shards must be >= 1"):
            shard_bounds(4, 0)


@pytest.fixture(scope="module")
def elastic_sim(sales_dataset_10gb):
    """A 3-tenant fleet with one arrival and one departure."""
    schema = sales_dataset_10gb.schema
    fleet = TenantFleet(
        [
            Tenant("a", paper_sales_workload(schema, 3)),
            Tenant("b", paper_sales_workload(schema, 2), arrival_epoch=1),
            Tenant(
                "c", paper_sales_workload(schema, 4), departure_epoch=2
            ),
        ],
        dataset=sales_dataset_10gb,
        deployment=sales_deployment(),
    )
    return MultiTenantSimulator(fleet, clock=SimulationClock(4))


@pytest.fixture(scope="module")
def captured_epochs(elastic_sim):
    """(record, problem, breakdown) per epoch, from a real run."""
    captured = []

    def observer(record, problem, breakdown):
        captured.append((record, problem, breakdown))

    elastic_sim.run(NeverReselect(), observer=observer)
    return captured


class TestShardedStreaming:
    def test_idle_shards_change_nothing(self, elastic_sim):
        """More shards than tenants is legal and byte-identical."""
        narrow = elastic_sim.run_sharded(NeverReselect(), shards=1)
        wide = elastic_sim.run_sharded(NeverReselect(), shards=16)
        assert narrow.to_csv() == wide.to_csv()
        assert wide.shards == 16

    def test_in_memory_run_writes_the_sharded_csv(self, elastic_sim):
        """The in-process route's ledgers are tenant totals too: its
        CSV is the sharded route's, byte for byte."""
        ledger = elastic_sim.run(NeverReselect())
        summary = elastic_sim.run_sharded(NeverReselect(), shards=3)
        assert ledger.to_csv() == summary.to_csv()
        ledger.verify_totals()

    def test_invalid_configuration_rejected(self, elastic_sim):
        with pytest.raises(SimulationError, match="shards must be >= 1"):
            ShardedAttribution(elastic_sim.attributor, shards=0)
        with pytest.raises(SimulationError, match="jobs must be >= 1"):
            ShardedAttribution(elastic_sim.attributor, jobs=0)

    def test_arrived_tenant_missing_from_active_split_rejected(
        self, elastic_sim, captured_epochs
    ):
        """Omitting the arriving tenant from the active split fails
        loudly (its queries are in the workload with no owner to
        charge), rather than silently dropping its share."""
        record, problem, breakdown = captured_epochs[1]
        assert record.arrivals, "fixture epoch 1 should carry b's arrival"
        sharded = ShardedAttribution(elastic_sim.attributor, shards=2)
        with pytest.raises(SimulationError, match="not active this epoch"):
            list(
                sharded.attribute_streaming(
                    problem, record, breakdown, tenants=("a", "c")
                )
            )

    def test_unsplittable_arrival_charge_rejected(
        self, elastic_sim, captured_epochs
    ):
        """An arrival charge naming a tenant outside the split must
        fail loudly, not vanish from the books."""
        from dataclasses import replace

        from repro.money import Money

        record, problem, breakdown = captured_epochs[1]
        doctored = replace(
            record, arrivals=(("ghost", Money("1.00")),)
        )
        sharded = ShardedAttribution(elastic_sim.attributor, shards=2)
        with pytest.raises(SimulationError, match="arrival charges"):
            list(
                sharded.attribute_streaming(
                    problem, doctored, breakdown, tenants=("a", "b", "c")
                )
            )

    def test_departed_tenant_in_active_split_rejected(
        self, elastic_sim, captured_epochs
    ):
        """A departure settlement for a tenant still listed as active
        is a bookkeeping contradiction."""
        record, problem, breakdown = captured_epochs[2]
        assert record.departures, "fixture epoch 2 should carry c's exit"
        sharded = ShardedAttribution(elastic_sim.attributor, shards=2)
        with pytest.raises(SimulationError, match="still in the active"):
            list(
                sharded.attribute_streaming(
                    problem, record, breakdown, tenants=("a", "b", "c")
                )
            )

    def test_close_is_idempotent(self, elastic_sim):
        sharded = ShardedAttribution(elastic_sim.attributor, shards=2)
        sharded.close()
        sharded.close()


#: A last-digit miss: invisible once both sides round to cents.
SLIVER = Money("1E-50")

_EXACT = re.compile(r"\(exact: (\S+) vs (\S+), difference (\S+)\)$")


def _assert_exact_report(error, prefix, fleet_amount):
    """The message keeps its cent-rounded prefix, then reports both
    exact amounts and their difference — here one ``SLIVER`` over."""
    message = str(error.value)
    cents = fleet_amount.quantized().amount
    assert message.startswith(
        f"{prefix} sum to ${cents}, fleet charged ${cents} (exact: "
    ), message
    tenant_sum, fleet, difference = map(Decimal, _EXACT.search(message).groups())
    assert fleet == fleet_amount.amount
    assert difference == SLIVER.amount
    assert tenant_sum == MONEY_CONTEXT.add(fleet, difference)


#: A tenant record's charge fields, in ``amounts`` order.
FIELDS = [component.field for component in COMPONENTS]

#: Every fleet charge the books checks compare, with a tenant record
#: field that books into it.
BOOKED = (
    ("operating", "storage_cost"),
    ("build", "build_cost"),
    ("teardown", "teardown_cost"),
    ("migration", "migration_cost"),
    ("cancelled", "cancelled_cost"),
    ("onboarding", "onboarding_cost"),
    ("offboarding", "offboarding_cost"),
)


def _slivered(tenant, record, field):
    """Tenant a's epoch-1 record one ``SLIVER`` over on ``field``."""
    if tenant != "a" or record.epoch != 1:
        return record
    amounts = list(record.amounts)
    amounts[FIELDS.index(field)] = (getattr(record, field) + SLIVER).amount
    return record._replace(amounts=tuple(amounts))


class TestUnbalancedBooksReportExactAmounts:
    def test_per_epoch_merge_check(self, elastic_sim, captured_epochs):
        """Both routes' merge check names the epoch and the exact miss."""
        record, problem, breakdown = captured_epochs[0]
        short = replace(record, operating_cost=record.operating_cost - SLIVER)
        prefix = "epoch 0: sharded operating shares"
        with pytest.raises(SimulationError) as error:
            elastic_sim.attributor.attribute(
                problem, short, breakdown, tenants=("a", "c")
            )
        _assert_exact_report(error, prefix, short.operating_cost)
        sharded = ShardedAttribution(elastic_sim.attributor, shards=2)
        with pytest.raises(SimulationError) as error:
            list(
                sharded.attribute_streaming(
                    problem, short, breakdown, tenants=("a", "c")
                )
            )
        _assert_exact_report(error, prefix, short.operating_cost)

    @pytest.mark.parametrize("charge, field", BOOKED, ids=[c for c, _ in BOOKED])
    def test_verify_attribution(self, elastic_sim, charge, field):
        ledger = elastic_sim.run(NeverReselect())
        doctored = {}
        for name, tenant_ledger in ledger.tenants.items():
            copy = TenantLedger(name, tenant_ledger.policy_name)
            for record in tenant_ledger.records:
                copy.fold(_slivered(name, record, field))
            doctored[name] = copy
        with pytest.raises(SimulationError) as error:
            FleetLedger(ledger.fleet, doctored).verify_attribution()
        _assert_exact_report(
            error,
            f"epoch 1: tenant {charge} shares",
            getattr(ledger.fleet.records[1], f"{charge}_cost"),
        )

    @pytest.mark.parametrize("charge, field", BOOKED, ids=[c for c, _ in BOOKED])
    def test_verify_totals(self, elastic_sim, charge, field):
        ledger = elastic_sim.run(NeverReselect())
        totals = {}
        for name, tenant_ledger in ledger.tenants.items():
            totals[name] = TenantTotals(name)
            for record in tenant_ledger.records:
                totals[name].fold(_slivered(name, record, field))
        with pytest.raises(SimulationError) as error:
            FleetSummary(ledger.fleet, totals).verify_totals()
        _assert_exact_report(
            error,
            f"lifetime {charge}: tenant totals",
            getattr(ledger.fleet, f"total_{charge}_cost"),
        )


class TestDuplicateActiveTenants:
    """A name listed twice in the active split would take two columns
    of every split while its queries fill one; the doubled column
    still balances the merge's books, so both routes must refuse it."""

    DOUBLED = ("a", "c", "c")

    def test_in_process_route_rejects(self, elastic_sim, captured_epochs):
        record, problem, breakdown = captured_epochs[0]
        with pytest.raises(SimulationError, match=r"duplicate active tenants \['c'\]"):
            elastic_sim.attributor.attribute(
                problem, record, breakdown, tenants=self.DOUBLED
            )

    def test_streaming_route_rejects(self, elastic_sim, captured_epochs):
        record, problem, breakdown = captured_epochs[0]
        sharded = ShardedAttribution(elastic_sim.attributor, shards=2)
        with pytest.raises(SimulationError, match=r"duplicate active tenants \['c'\]"):
            list(
                sharded.attribute_streaming(
                    problem, record, breakdown, tenants=self.DOUBLED
                )
            )
