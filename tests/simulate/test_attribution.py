"""The shared-cost attribution arithmetic, in isolation."""

from __future__ import annotations

import random
from decimal import Decimal
from functools import reduce
from operator import add, attrgetter
from typing import Dict, Mapping, Sequence

import pytest

from repro.bill import COMPONENTS, FLEET_CHARGES
from repro.errors import SimulationError
from repro.money import Money, ZERO
from repro.simulate import SharedCostAttributor, tenant_of_query
from repro.simulate.attribution import (
    AllocationEntry,
    _plan,
    merge_shares,
    shard_payload,
    shard_products,
)
from repro.simulate.ledger import (
    FleetLedger,
    FleetSummary,
    TenantEpochRecord,
    TenantLedger,
    TenantTotals,
)
from repro.simulate.sharding import shard_bounds


def allocate_exactly(
    amount: Money, weights: Mapping[str, float], order: Sequence[str]
) -> Dict[str, Money]:
    """Split ``amount`` by ``weights`` so the shares sum to it exactly.

    The reference form of one plan entry's split, in plain Money
    arithmetic: every tenant but the last gets ``amount * (weight /
    total_weight)``; the last gets the exact residual, which absorbs
    any rounding of the products.  Zero (or degenerate) total weight
    falls back to an even split — a charge must never vanish just
    because nobody's weight registered.  The attribution routes run it
    as :func:`shard_products` plus :func:`merge_shares`, which the
    property tests below hold repr-equal to this function.
    """
    if not order:
        raise SimulationError("cannot allocate a charge to zero tenants")
    total_weight = sum(max(0.0, weights.get(name, 0.0)) for name in order)
    if total_weight <= 0.0:
        weights = {name: 1.0 for name in order}
        total_weight = float(len(order))
    shares: Dict[str, Money] = {}
    running = ZERO
    for name in order[:-1]:
        share = amount * (max(0.0, weights.get(name, 0.0)) / total_weight)
        shares[name] = share
        running = running + share
    shares[order[-1]] = amount - running
    return shares


class TestAllocateExactly:
    def test_shares_sum_exactly(self):
        amount = Money("123.456789012345678901234567")
        weights = {"a": 0.123456789, "b": 7.2, "c": 0.0001}
        shares = allocate_exactly(amount, weights, ["a", "b", "c"])
        assert sum(shares.values(), ZERO) == amount

    def test_proportionality(self):
        # 3/4 is exactly representable, so the shares are exact too.
        shares = allocate_exactly(
            Money("8.00"), {"a": 3.0, "b": 1.0}, ["a", "b"]
        )
        assert shares["a"] == Money("6.00")
        assert shares["b"] == Money("2.00")

    def test_zero_weights_fall_back_to_even_split(self):
        shares = allocate_exactly(
            Money("10.00"), {"a": 0.0, "b": 0.0}, ["a", "b"]
        )
        assert shares["a"] == shares["b"] == Money("5.00")

    def test_missing_weight_counts_as_zero(self):
        shares = allocate_exactly(Money("4.00"), {"a": 1.0}, ["a", "b"])
        assert shares["a"] == Money("4.00")
        assert shares["b"] == ZERO

    def test_single_recipient_gets_everything(self):
        amount = Money("7.77")
        assert allocate_exactly(amount, {}, ["only"])["only"] == amount

    def test_negative_weights_ignored(self):
        shares = allocate_exactly(
            Money("4.00"), {"a": -5.0, "b": 1.0}, ["a", "b"]
        )
        assert shares["a"] == ZERO
        assert shares["b"] == Money("4.00")

    def test_empty_order_rejected(self):
        with pytest.raises(SimulationError, match="zero tenants"):
            allocate_exactly(Money("1.00"), {}, [])


def _draw_weights(rng, order):
    """Weights covering every normalization case: positive, zero,
    negative (clipped), missing (zero), or all zero (even fallback)."""
    case = rng.choice(("mixed", "mixed", "all-zero", "all-negative", "sparse"))
    if case == "all-zero":
        return {name: 0.0 for name in order}
    if case == "all-negative":
        return {name: -rng.random() for name in order}
    if case == "sparse":
        return {name: rng.random() for name in order if rng.random() < 0.3}
    return {
        name: rng.choice((0.0, -rng.random(), rng.random() * 10 ** rng.randint(-6, 6)))
        for name in order
    }


def _draw_amount(rng):
    """A Money amount of up to 30 digits at any exponent, mostly
    positive."""
    coefficient = rng.randint(0, 10 ** rng.randint(1, 30))
    return Money(
        Decimal(rng.choice((1, 1, 1, -1)) * coefficient).scaleb(
            rng.randint(-40, 4)
        )
    )


def _draw_plan(rng, order, mode):
    """One epoch's splits in the shape ``component_plan`` gives them.

    One to three billing periods of operating splits (processing,
    transfer, maintenance, base storage, view storage), then build,
    teardown, migration and cancelled.  Proportional mode splits
    processing, base storage and the three one-offs by one mapping, the
    processing weights; even mode splits base storage by one constant
    mapping and the one-offs by another.  Storage always takes two
    entries per period.
    """
    splits = []
    for _ in range(rng.randint(1, 3)):
        processing = _draw_weights(rng, order)
        if mode == "proportional":
            infrastructure = processing
        else:
            infrastructure = {name: 1.0 for name in order}
        splits += [
            ("processing_cost", _draw_amount(rng), processing),
            ("transfer_cost", _draw_amount(rng), _draw_weights(rng, order)),
            ("maintenance_cost", _draw_amount(rng), _draw_weights(rng, order)),
            ("storage_cost", _draw_amount(rng), infrastructure),
            ("storage_cost", _draw_amount(rng), _draw_weights(rng, order)),
        ]
    if mode != "proportional":
        infrastructure = {name: 1.0 for name in order}
    splits.append(("build_cost", _draw_amount(rng), _draw_weights(rng, order)))
    for field in ("teardown_cost", "migration_cost", "cancelled_cost"):
        splits.append((field, _draw_amount(rng), infrastructure))
    return splits


def _merged(entries, n, shards):
    """The plan merged from ``shards`` shards, as the routes do: the
    last tenant takes the residual, so no shard computes its product."""
    products = [
        shard_products(shard_payload(entries, start, min(stop, n - 1)))
        for start, stop in shard_bounds(n, shards)
    ]
    return merge_shares(entries, n, products)


class TestMergeMatchesReference:
    """No route calls ``allocate_exactly`` any more; the merge must stay
    repr-equal to it, whatever the shard split."""

    def test_single_entry_merge_is_allocate_exactly(self):
        rng = random.Random(20121)
        for draw in range(200):
            n = rng.randint(1, 7)
            order = [f"t{i}" for i in range(n)]
            amount = _draw_amount(rng)
            weights = _draw_weights(rng, order)
            expected = [
                repr(share)
                for share in allocate_exactly(amount, weights, order).values()
            ]
            entry = AllocationEntry.of("build_cost", amount, weights, order)
            for shards in range(1, n + 3):
                merged = _merged((entry,), n, shards)["build_cost"]
                assert [repr(Money(share)) for share in merged] == expected, (
                    f"draw {draw}: {n} tenants on {shards} shards, "
                    f"amount {amount!r}, weights {weights!r}"
                )

    @pytest.mark.parametrize("mode", ("proportional", "even"))
    def test_plan_merge_is_per_entry_reference(self, mode):
        """Entries sharing a weight vector, constant even-mode weights
        and two entries on one field merge to the per-entry reference
        splits, folded into columns in plan order."""
        rng = random.Random(f"plan-{mode}")
        for draw in range(60):
            n = rng.randint(1, 7)
            order = [f"t{i}" for i in range(n)]
            splits = _draw_plan(rng, order, mode)
            expected: Dict[str, list] = {}
            for field, amount, weights in splits:
                shares = list(allocate_exactly(amount, weights, order).values())
                column = expected.get(field)
                expected[field] = (
                    shares
                    if column is None
                    else [a + b for a, b in zip(column, shares)]
                )
            entries = _plan(splits, order)
            # Entries splitting by one mapping ship one vector, and
            # every entry's vector is its own normalized weights.
            vectors, work = shard_payload(entries, 0, n)
            vector_of = {}
            for (_, _, weights), entry, (amount, index) in zip(splits, entries, work):
                assert vector_of.setdefault(id(weights), index) == index
                assert vectors[index] == (entry.weights, entry.total)
                assert amount is entry.amount.amount
            assert len(vectors) <= len(vector_of) < len(splits)
            for shards in range(1, n + 3):
                merged = _merged(entries, n, shards)
                assert {
                    field: [repr(Money(share)) for share in column]
                    for field, column in merged.items()
                } == {
                    field: [repr(share) for share in column]
                    for field, column in expected.items()
                }, f"draw {draw}: {n} tenants on {shards} shards ({mode})"


def _draw_record(rng, epoch, tenant="t"):
    """A tenant record of random charges; zero products keep their
    exponent (``0E-19``)."""
    return TenantEpochRecord(
        epoch,
        tenant,
        rng.random() * 100,
        tuple(
            rng.choice((_draw_amount(rng), Money(Decimal("0E-19")), ZERO)).amount
            for _ in COMPONENTS
        ),
    )


class TestTenantEpochRecord:
    def test_the_record_is_the_merge_row(self):
        assert TenantEpochRecord._fields == (
            "epoch", "tenant", "processing_hours", "amounts",
        )

    def test_each_charge_reads_its_amount(self):
        rng = random.Random(3)
        for epoch in range(40):
            record = _draw_record(rng, epoch)
            charges = [getattr(record, c.field) for c in COMPONENTS]
            assert [repr(charge) for charge in charges] == [
                repr(Money(amount)) for amount in record.amounts
            ]
            assert repr(record.total_cost) == repr(reduce(add, charges))
            assert repr(record.operating_cost) == repr(reduce(add, charges[:4]))


class TestTenantTotalsFold:
    def test_ledger_totals_equal_record_by_record_sums(self):
        """A ledger's totals read its fold, yet are repr-equal to its
        records' Money charges summed record by record from ZERO."""
        rng = random.Random(7)
        for draw in range(40):
            ledger = TenantLedger("t", "policy")
            for epoch in range(rng.randint(0, 8)):
                ledger.fold(_draw_record(rng, epoch))
            records = ledger.records

            def summed(field):
                return repr(sum(map(attrgetter(field), records), ZERO))

            assert repr(ledger.total_cost) == summed("total_cost"), draw
            for charge in FLEET_CHARGES:
                total = getattr(ledger, f"total_{charge.field}")
                assert repr(total) == summed(charge.field), (draw, charge)
            for component in COMPONENTS:
                total = getattr(ledger, component.field)
                assert repr(total) == summed(component.field), (draw, component)
            assert ledger.total_hours == sum(r.processing_hours for r in records)
            assert ledger.n_records == len(records)

    def test_tenant_books_are_one_fold(self):
        assert issubclass(TenantLedger, TenantTotals)
        assert issubclass(FleetLedger, FleetSummary)

    @pytest.mark.parametrize(
        "books",
        (lambda: TenantTotals("t"), lambda: TenantLedger("t", "policy")),
        ids=("totals", "ledger"),
    )
    def test_fold_refuses_other_tenants_and_past_epochs(self, books):
        def share(epoch, tenant):
            return TenantEpochRecord(
                epoch, tenant, 0.0, (ZERO.amount,) * len(COMPONENTS)
            )

        totals = books()
        with pytest.raises(SimulationError, match="tenant 'u' folded into 't'"):
            totals.fold(share(0, "u"))
        totals.fold(share(1, "t"))
        with pytest.raises(SimulationError, match="epoch 1 folded after epoch 1"):
            totals.fold(share(1, "t"))
        assert totals.n_records == 1


class TestTenantOfQuery:
    def test_prefix_is_extracted(self):
        assert tenant_of_query("acme/Q1") == "acme"

    def test_unscoped_name_is_none(self):
        assert tenant_of_query("Q1") is None

    def test_only_first_separator_splits(self):
        assert tenant_of_query("acme/sub/Q1") == "acme"


class TestConstruction:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError, match="attribution mode"):
            SharedCostAttributor(["a"], mode="fair-ish")

    def test_needs_a_tenant(self):
        with pytest.raises(SimulationError, match="at least one"):
            SharedCostAttributor([])

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(SimulationError, match="unique"):
            SharedCostAttributor(["a", "a"])

    def test_describe_names_mode_and_size(self):
        attributor = SharedCostAttributor(["a", "b"], mode="even")
        assert "even" in attributor.describe()
        assert "2" in attributor.describe()
