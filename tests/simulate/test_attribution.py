"""The shared-cost attribution arithmetic, in isolation."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

from repro.errors import SimulationError
from repro.money import Money, ZERO
from repro.simulate import (
    SharedCostAttributor,
    allocate_exactly,
    tenant_of_query,
)
from repro.simulate.attribution import (
    AllocationEntry,
    merge_shares,
    shard_payload,
    shard_products,
)
from repro.simulate.sharding import shard_bounds


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


class TestMergeMatchesReference:
    """No route calls ``allocate_exactly`` any more; the merge must stay
    repr-equal to it, whatever the shard split."""

    def test_single_entry_merge_is_allocate_exactly(self):
        rng = random.Random(20121)
        for draw in range(200):
            n = rng.randint(1, 7)
            order = [f"t{i}" for i in range(n)]
            coefficient = rng.randint(0, 10 ** rng.randint(1, 30))
            amount = Money(
                Decimal(rng.choice((1, 1, 1, -1)) * coefficient).scaleb(
                    rng.randint(-40, 4)
                )
            )
            weights = _draw_weights(rng, order)
            expected = [
                repr(share)
                for share in allocate_exactly(amount, weights, order).values()
            ]
            entry = AllocationEntry.of("build_cost", amount, weights, order)
            for shards in range(1, n + 3):
                # As the routes do: the last tenant takes the residual,
                # so no shard computes its product.
                products = [
                    shard_products(shard_payload((entry,), start, min(stop, n - 1)))
                    for start, stop in shard_bounds(n, shards)
                ]
                merged = merge_shares((entry,), n, products)["build_cost"]
                assert [repr(Money(share)) for share in merged] == expected, (
                    f"draw {draw}: {n} tenants on {shards} shards, "
                    f"amount {amount!r}, weights {weights!r}"
                )


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
