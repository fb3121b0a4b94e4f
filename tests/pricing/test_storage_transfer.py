"""Storage and transfer pricing: paper values and direction handling."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PricingError
from repro.money import Money
from repro.pricing.providers import archive_cloud, aws_2012, flat_cloud
from repro.pricing.storage import StoragePricing
from repro.pricing.tiers import TierSchedule
from repro.pricing.transfer import TransferPricing


class TestStorage:
    def test_paper_example_9_monthly_rate(self):
        # 550 GB at the first-TB rate for 12 months = $924.
        assert aws_2012().storage.cost(550, 12) == Money("924.00")

    def test_fractional_months(self):
        storage = StoragePricing(TierSchedule.flat(Money("0.10")))
        assert storage.cost(100, 0.5) == Money(5)

    def test_negative_duration_rejected(self):
        with pytest.raises(PricingError):
            aws_2012().storage.cost(100, -1)

    @given(
        volume=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        months=st.floats(min_value=0, max_value=120, allow_nan=False),
    )
    def test_cost_is_monthly_rate_times_months(self, volume, months):
        storage = aws_2012().storage
        assert storage.cost(volume, months) == storage.monthly_cost(volume) * months


class TestTransfer:
    def test_paper_example_1(self):
        assert aws_2012().transfer.outbound_cost(10.0) == Money("1.08")

    def test_inbound_free_on_aws_model(self):
        transfer = aws_2012().transfer
        assert transfer.inbound is None
        assert transfer.inbound_cost(10_000.0) == Money(0)

    def test_inbound_charged_when_schedule_present(self):
        transfer = TransferPricing(
            outbound=TierSchedule.flat(Money("0.10")),
            inbound=TierSchedule.flat(Money("0.02")),
        )
        assert transfer.inbound is not None
        assert transfer.inbound_cost(50) == Money(1)

    def test_negative_volumes_rejected(self):
        with pytest.raises(PricingError):
            aws_2012().transfer.outbound_cost(-1)
        with pytest.raises(PricingError):
            aws_2012().transfer.inbound_cost(-1)


class TestProviderPresets:
    def test_all_presets_price_a_typical_month(self):
        for provider in (aws_2012(), flat_cloud(), archive_cloud()):
            compute = provider.compute
            some_instance = next(iter(compute.instance_types))
            assert compute.cost(some_instance, 10, 2) > Money(0)
            assert provider.storage.cost(100, 1) > Money(0)
            assert provider.transfer.outbound_cost(100) >= Money(0)

    def test_archive_cloud_is_cheap_storage_dear_egress(self):
        archive = archive_cloud()
        aws = aws_2012()
        assert archive.storage.monthly_cost(1000) < aws.storage.monthly_cost(1000)
        assert archive.transfer.outbound_cost(100) > aws.transfer.outbound_cost(100)

    def test_marginal_variant_differs_only_past_first_band(self):
        from repro.pricing.providers import aws_2012_marginal

        slab = aws_2012().storage
        marginal = aws_2012_marginal().storage
        assert slab.monthly_cost(512) == marginal.monthly_cost(512)
        assert slab.monthly_cost(2560) != marginal.monthly_cost(2560)
