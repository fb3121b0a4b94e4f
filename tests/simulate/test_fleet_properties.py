"""Generative invariant suite for elastic fleets.

Every test here draws whole fleets from ``make_random_fleet`` (see
``tests/conftest.py``): random populations, overlapping paper-pool
workloads, drift, arrival/departure schedules, and attribution modes,
all reproducible from a single integer seed.  The properties checked
are the elastic-fleet contract:

* **Balance** — per-tenant ledgers sum to the fleet ledger *exactly*
  (``Decimal`` equality, per epoch and per component) under churn.
* **Churn causality** — moving one tenant's arrival never changes any
  other tenant's records outside the perturbed epoch: billing has no
  action at a distance.
* **Sharded byte-identity** — streaming sharded attribution renders
  byte-identical CSVs for any shard count or worker count, and folds
  to exactly the totals the in-memory path produces — for synchronous
  fleets and for asynchronous ones billing segmented epochs.
* **Population scale** — a 10⁴-tenant elastic lifecycle completes with
  streaming ledger merges and balanced books (the acceptance run).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.money import ZERO
from repro.simulate import BuildConfig, NeverReselect, make_policy
from repro.simulate.ledger import TenantTotals
from repro.simulate.presets import population_fleet_simulator

BALANCE_SEEDS = range(100)
CAUSALITY_SEEDS = range(32)
SHARD_SEEDS = range(16)

#: Builds slow enough (half a compute-hour per wall-clock month) that
#: views land mid-epoch, so async fleets bill segmented epochs.
SLOW_BUILDS = BuildConfig(slots=1, hours_per_month=0.5)


@pytest.fixture(scope="module")
def async_runs(random_fleet_factory):
    """Per seed: the in-memory ledger and the 1/2/8-shard summaries of
    a reselecting fleet under slow (asynchronous) builds."""
    policy = make_policy("periodic")
    runs, segmented = [], 0
    for seed in SHARD_SEEDS:
        simulator = random_fleet_factory(seed).simulator(builds=SLOW_BUILDS)
        ledger = simulator.run(policy)
        segmented += sum(1 for r in ledger.fleet.records if r.segments)
        summaries = {
            shards: simulator.run_sharded(policy, shards=shards)
            for shards in (1, 2, 8)
        }
        runs.append((seed, ledger, summaries))
    # The async cases must exercise segmented epochs, not silently
    # turn synchronous.
    assert segmented > 0, "no async fleet billed a segmented epoch"
    return runs


def _by_epoch(ledger):
    """A tenant ledger's records, keyed by epoch."""
    return {record.epoch: record for record in ledger.records}


class TestBooksBalance:
    """Per-tenant ledgers sum to the fleet ledger exactly, any seed."""

    def test_balance_over_seeds(self, random_fleet_factory):
        for seed in BALANCE_SEEDS:
            fleet = random_fleet_factory(seed)
            ledger = fleet.simulator().run(NeverReselect())
            # verify_attribution already ran on return; re-check the
            # books explicitly so the property is asserted here too.
            ledger.verify_attribution()
            tenant_total = sum(
                (t.total_cost for t in ledger.tenants.values()), ZERO
            )
            assert tenant_total == ledger.fleet.total_cost, (
                f"seed {seed}: tenant bills {tenant_total} != "
                f"fleet bill {ledger.fleet.total_cost}"
            )
            shares = {}
            for tenant_ledger in ledger.tenants.values():
                for record in tenant_ledger.records:
                    shares[record.epoch] = (
                        shares.get(record.epoch, ZERO) + record.total_cost
                    )
            for record in ledger.fleet.records:
                assert shares.get(record.epoch, ZERO) == record.total_cost, (
                    f"seed {seed}: epoch {record.epoch} shares do not "
                    f"sum to the fleet charge"
                )

    def test_balance_under_reselection(self, random_fleet_factory):
        """Drifted fleets re-optimizing mid-churn still balance."""
        policy = make_policy("periodic")
        for seed in range(8):
            fleet = random_fleet_factory(seed)
            ledger = fleet.simulator().run(policy)
            ledger.verify_attribution()
            tenant_total = sum(
                (t.total_cost for t in ledger.tenants.values()), ZERO
            )
            assert tenant_total == ledger.fleet.total_cost, f"seed {seed}"


class TestChurnCausality:
    """One tenant's schedule never reaches into another's invoice."""

    def test_unrelated_records_invariant_to_shifted_arrival(
        self, random_fleet_factory
    ):
        """Shift the designated tenant's arrival one epoch later: every
        *other* tenant's records are byte-identical at every epoch
        except the one the perturbation vacated (where the attribution
        denominator legitimately changes)."""
        policy = NeverReselect()
        for seed in CAUSALITY_SEEDS:
            fleet = random_fleet_factory(seed)
            mover = next(
                t for t in fleet.tenants if t.name == fleet.shiftable
            )
            arrival = mover.arrival_epoch
            shifted_tenants = tuple(
                replace(t, arrival_epoch=arrival + 1)
                if t.name == fleet.shiftable
                else t
                for t in fleet.tenants
            )
            base = fleet.simulator().run(policy)
            moved = fleet.simulator(tenants=shifted_tenants).run(policy)
            for name, base_ledger in base.tenants.items():
                if name == fleet.shiftable:
                    continue
                base_records = _by_epoch(base_ledger)
                moved_records = _by_epoch(moved.tenant(name))
                assert set(base_records) == set(moved_records), (
                    f"seed {seed}: tenant {name!r} billed on different "
                    f"epochs after an unrelated arrival moved"
                )
                for epoch, record in base_records.items():
                    if epoch == arrival:
                        continue
                    other = moved_records[epoch]
                    assert record == other, (
                        f"seed {seed}: tenant {name!r} epoch {epoch} "
                        f"changed when tenant {fleet.shiftable!r} moved "
                        f"from e{arrival} to e{arrival + 1}:\n"
                        f"  base : {record.describe()}\n"
                        f"  moved: {other.describe()}"
                    )
                    assert record.describe() == other.describe()

    def test_prefix_identical_before_perturbation(self, random_fleet_factory):
        """Fleet records before the moved arrival are untouched —
        including the mover's own (absent) history."""
        policy = NeverReselect()
        for seed in range(8):
            fleet = random_fleet_factory(seed)
            mover = next(
                t for t in fleet.tenants if t.name == fleet.shiftable
            )
            arrival = mover.arrival_epoch
            shifted_tenants = tuple(
                replace(t, arrival_epoch=arrival + 1)
                if t.name == fleet.shiftable
                else t
                for t in fleet.tenants
            )
            base = fleet.simulator().run(policy)
            moved = fleet.simulator(tenants=shifted_tenants).run(policy)
            for before, after in zip(
                base.fleet.records, moved.fleet.records
            ):
                if before.epoch >= arrival:
                    break
                assert before == after, (
                    f"seed {seed}: epoch {before.epoch} predates the "
                    f"perturbation but changed"
                )


class TestShardedByteIdentity:
    """Sharded streaming attribution is exact and shard-count blind."""

    def test_csv_identical_across_shard_counts(self, random_fleet_factory):
        for seed in SHARD_SEEDS:
            simulator = random_fleet_factory(seed).simulator()
            csvs = {
                shards: simulator.run_sharded(
                    NeverReselect(), shards=shards
                ).to_csv()
                for shards in (1, 2, 8)
            }
            assert csvs[1] == csvs[2] == csvs[8], (
                f"seed {seed}: ledger CSV depends on the shard count"
            )

    def test_streaming_folds_to_in_memory_totals(self, random_fleet_factory):
        """run_sharded's streamed totals equal run()'s ledgers folded
        record-by-record — same rows, full precision."""
        for seed in SHARD_SEEDS:
            simulator = random_fleet_factory(seed).simulator()
            ledger = simulator.run(NeverReselect())
            summary = simulator.run_sharded(NeverReselect(), shards=2)
            for name, tenant_ledger in ledger.tenants.items():
                folded = TenantTotals(name)
                for record in tenant_ledger.records:
                    folded.fold(record)
                assert folded.row() == summary.tenant(name).row(), (
                    f"seed {seed}: tenant {name!r} streamed totals "
                    f"disagree with the in-memory ledger"
                )

    def test_async_books_balance(self, async_runs):
        """Segment-by-segment attribution balances exactly on both
        routes (each re-checks its books on return)."""
        for seed, ledger, summaries in async_runs:
            ledger.verify_attribution()
            tenant_total = sum(
                (t.total_cost for t in ledger.tenants.values()), ZERO
            )
            assert tenant_total == ledger.fleet.total_cost, f"seed {seed}"
            for summary in summaries.values():
                summary.verify_totals()

    def test_async_streaming_folds_to_in_memory_totals(self, async_runs):
        for seed, ledger, summaries in async_runs:
            for name, tenant_ledger in ledger.tenants.items():
                folded = TenantTotals(name)
                for record in tenant_ledger.records:
                    folded.fold(record)
                assert folded.row() == summaries[2].tenant(name).row(), (
                    f"seed {seed}: async tenant {name!r} streamed totals "
                    f"disagree with the in-memory ledger"
                )

    def test_async_csv_identical_across_shard_counts(self, async_runs):
        for seed, _, summaries in async_runs:
            csvs = {shards: s.to_csv() for shards, s in summaries.items()}
            assert csvs[1] == csvs[2] == csvs[8], (
                f"seed {seed}: async ledger CSV depends on the shard count"
            )

    def test_worker_processes_identical(self, random_fleet_factory):
        """Fanning shards across worker processes changes nothing."""
        for seed in (0, 7):
            simulator = random_fleet_factory(seed).simulator()
            serial = simulator.run_sharded(NeverReselect(), shards=1)
            parallel = simulator.run_sharded(
                NeverReselect(), shards=4, jobs=2
            )
            assert serial.to_csv() == parallel.to_csv()


class TestPopulationScale:
    """The acceptance run: 10⁴ elastic tenants, streamed exactly."""

    def test_mid_scale_shard_count_blind(self):
        simulator = population_fleet_simulator(n_tenants=2_000)
        first = simulator.run_sharded(NeverReselect(), shards=3)
        second = simulator.run_sharded(NeverReselect(), shards=8)
        assert first.to_csv() == second.to_csv()
        assert first.fleet.arrival_count > 0
        assert first.fleet.departure_count > 0

    def test_ten_thousand_tenant_lifecycle(self):
        simulator = population_fleet_simulator(n_tenants=10_000)
        summary = simulator.run_sharded(NeverReselect(), shards=8)
        assert len(summary.tenants) == 10_000
        assert summary.fleet.arrival_count > 0
        assert summary.fleet.departure_count > 0
        summary.verify_totals()
        tenant_total = sum(
            (t.total_cost for t in summary.tenants.values()), ZERO
        )
        assert tenant_total == summary.fleet.total_cost
        # Every billed epoch stays inside the horizon, and the books
        # carry real churn money.
        horizon = len(summary.fleet.records)
        for totals in summary.tenants.values():
            if totals.first_epoch is not None:
                assert 0 <= totals.first_epoch <= totals.last_epoch
                assert totals.last_epoch < horizon
        # Churn money reconciles exactly against the per-event pairs.
        # (On the paper's 2012 AWS book the amounts themselves can be
        # $0 — ingress is free and egress has a free first tier — so
        # the invariant is the reconciliation, not a nonzero bill.)
        arrival_charges = sum(
            (
                charge
                for record in summary.fleet.records
                for _, charge in record.arrivals
            ),
            ZERO,
        )
        departure_charges = sum(
            (
                charge
                for record in summary.fleet.records
                for _, charge in record.departures
            ),
            ZERO,
        )
        assert summary.fleet.total_onboarding_cost == arrival_charges
        assert summary.fleet.total_offboarding_cost == departure_charges
