"""Compute pricing: Table 2 rates, billing granularities, validation."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PricingError
from repro.money import Money
from repro.pricing.compute import BillingGranularity, ComputePricing, InstanceType
from repro.pricing.providers import aws_2012


@pytest.fixture(scope="module")
def compute():
    return aws_2012().compute


class TestCatalogue:
    def test_table2_prices(self, compute):
        expected = {
            "micro": "0.03",
            "small": "0.12",
            "large": "0.48",
            "xlarge": "0.96",
        }
        for name, price in expected.items():
            assert compute.instance(name).hourly_rate == Money(price)

    def test_small_instance_matches_paper_description(self, compute):
        # Section 2.2: "1.7 GB RAM, 1 EC2 Compute Unit, 160 GB".
        small = compute.instance("small")
        assert small.memory_gb == pytest.approx(1.7)
        assert small.compute_units == 1.0
        assert small.local_storage_gb == 160

    def test_unknown_instance_names_known_ones(self, compute):
        with pytest.raises(PricingError, match="small"):
            compute.instance("gpu-monster")

    def test_duplicate_instance_names_rejected(self):
        itype = InstanceType("x", Money(1), 1.0, 1.0, 0)
        with pytest.raises(PricingError):
            ComputePricing([itype, itype])

    def test_invalid_instance_fields_rejected(self):
        with pytest.raises(PricingError):
            InstanceType("x", Money(-1), 1.0, 1.0, 0)
        with pytest.raises(PricingError):
            InstanceType("x", Money(1), 0.0, 1.0, 0)
        with pytest.raises(PricingError):
            InstanceType("x", Money(1), 1.0, -1.0, 0)


class TestBilling:
    def test_paper_example_2(self, compute):
        # 50 h on two small instances: 2 x RoundUp(50) x 0.12 = $12.
        assert compute.cost("small", 50.0, 2) == Money("12.00")

    def test_started_hour_is_charged(self, compute):
        assert compute.cost("small", 50.01, 2) == Money("0.12") * 51 * 2

    def test_zero_usage_is_free_even_hourly(self, compute):
        assert compute.cost("small", 0.0, 2) == Money(0)

    def test_per_second_bills_exactly(self, compute):
        per_second = replace(compute, granularity=BillingGranularity.PER_SECOND)
        assert per_second.cost("small", 0.5, 1) == Money("0.06")

    def test_per_minute_rounds_to_minutes(self):
        granularity = BillingGranularity.PER_MINUTE
        assert granularity.billable_hours(0.5) == pytest.approx(0.5)
        assert granularity.billable_hours(1 / 3600) == pytest.approx(1 / 60)

    def test_negative_usage_rejected(self, compute):
        with pytest.raises(PricingError):
            compute.cost("small", -1.0, 1)

    def test_negative_instances_rejected(self, compute):
        with pytest.raises(PricingError):
            compute.cost("small", 1.0, -1)

    def test_granularity_override_per_call(self, compute):
        cost = compute.cost(
            "small", 0.5, 1, granularity=BillingGranularity.PER_SECOND
        )
        assert cost == Money("0.06")


class TestGranularityProperties:
    durations = st.floats(min_value=0, max_value=10_000, allow_nan=False)

    @given(hours=durations)
    def test_billable_at_least_actual(self, hours):
        for granularity in BillingGranularity:
            assert granularity.billable_hours(hours) >= hours - 1e-9

    @given(hours=durations)
    def test_granularities_are_ordered(self, hours):
        hourly = BillingGranularity.PER_HOUR.billable_hours(hours)
        minutely = BillingGranularity.PER_MINUTE.billable_hours(hours)
        secondly = BillingGranularity.PER_SECOND.billable_hours(hours)
        assert secondly <= minutely + 1e-9 <= hourly + 2e-9

    @given(hours=durations)
    def test_cost_scales_linearly_with_instances(self, hours):
        pricing = aws_2012().compute
        one = pricing.cost("small", hours, 1)
        three = pricing.cost("small", hours, 3)
        assert three == one * 3
