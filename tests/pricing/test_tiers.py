"""Tier schedules: the paper's bands, both semantics, and their edges."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PricingError
from repro.money import Money, dollars
from repro.pricing.tiers import Tier, TierMode, TierSchedule


def bandwidth_schedule() -> TierSchedule:
    """The paper's Table 3 (outbound bandwidth)."""
    return TierSchedule.from_band_widths(
        [
            (1.0, dollars(0)),
            (10 * 1024.0 - 1.0, dollars("0.12")),
            (40 * 1024.0, dollars("0.09")),
            (100 * 1024.0, dollars("0.07")),
            (None, dollars("0.05")),
        ]
    )


def storage_schedule(mode: TierMode) -> TierSchedule:
    """The paper's Table 4 (S3 storage)."""
    return TierSchedule.from_band_widths(
        [
            (1024.0, dollars("0.14")),
            (49 * 1024.0, dollars("0.125")),
            (450 * 1024.0, dollars("0.11")),
            (None, dollars("0.095")),
        ],
        mode,
    )


class TestValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(PricingError):
            TierSchedule([])

    def test_final_tier_must_be_unbounded(self):
        with pytest.raises(PricingError):
            TierSchedule([Tier(10.0, Money(1))])

    def test_only_final_tier_unbounded(self):
        with pytest.raises(PricingError):
            TierSchedule([Tier(None, Money(1)), Tier(None, Money(2))])

    def test_bounds_strictly_increasing(self):
        with pytest.raises(PricingError):
            TierSchedule([Tier(10.0, Money(1)), Tier(10.0, Money(2)), Tier(None, Money(3))])

    def test_negative_rate_rejected(self):
        with pytest.raises(PricingError):
            Tier(None, Money(-1))

    def test_negative_volume_rejected(self):
        with pytest.raises(PricingError):
            bandwidth_schedule().cost(-1.0)


class TestMarginalSemantics:
    def test_paper_example_1(self):
        # 10 GB out, first GB free: (10 - 1) x 0.12 = $1.08.
        assert bandwidth_schedule().cost(10.0) == Money("1.08")

    def test_zero_volume_is_free(self):
        assert bandwidth_schedule().cost(0.0) == Money(0)

    def test_within_free_band(self):
        assert bandwidth_schedule().cost(0.5) == Money(0)

    def test_spans_three_bands(self):
        # 11 TB: 1 GB free + (10T-1) at 0.12 + 1T at 0.09.
        schedule = bandwidth_schedule()
        expected = (
            Money("0.12") * (10 * 1024.0 - 1)
            + Money("0.09") * 1024.0
        )
        assert schedule.cost(11 * 1024.0) == expected

    def test_marginal_rate_lookup(self):
        schedule = bandwidth_schedule()
        assert schedule.marginal_rate(0.0) == Money(0)
        assert schedule.marginal_rate(1.0) == Money("0.12")
        assert schedule.marginal_rate(10 * 1024.0) == Money("0.09")

    def test_flat_schedule(self):
        assert TierSchedule.flat(Money(2)).cost(3.5) == Money(7)


class TestSlabSemantics:
    def test_paper_example_3_rate_selection(self):
        # 2560 GB falls in the second band: whole volume at 0.125.
        schedule = storage_schedule(TierMode.SLAB)
        assert schedule.cost(2560.0) == Money("0.125") * 2560

    def test_below_first_boundary(self):
        schedule = storage_schedule(TierMode.SLAB)
        assert schedule.cost(512.0) == Money("0.14") * 512

    def test_band_edge_cliff_is_real(self):
        # Slab pricing is non-monotonic: crossing into the cheaper band
        # (band bounds are exclusive, so 1024 GB is already "next 49
        # TB") makes the *larger* volume bill less.
        schedule = storage_schedule(TierMode.SLAB)
        below_edge = schedule.cost(1023.0)   # 1023 x 0.14  = 143.22
        at_edge = schedule.cost(1024.0)      # 1024 x 0.125 = 128.00
        assert at_edge < below_edge

    def test_marginal_has_no_cliff_at_same_edge(self):
        schedule = storage_schedule(TierMode.MARGINAL)
        assert schedule.cost(1024.0) > schedule.cost(1023.0)

    def test_replacing_the_mode_converts(self):
        slab = replace(storage_schedule(TierMode.MARGINAL), mode=TierMode.SLAB)
        assert slab.mode is TierMode.SLAB
        assert slab.cost(2560.0) == Money("0.125") * 2560


class TestProperties:
    volumes = st.floats(min_value=0, max_value=1e7, allow_nan=False)

    @given(v=volumes)
    def test_marginal_cost_nonnegative(self, v):
        assert bandwidth_schedule().cost(v) >= Money(0)

    @given(a=volumes, b=volumes)
    def test_marginal_cost_monotone(self, a, b):
        schedule = storage_schedule(TierMode.MARGINAL)
        lo, hi = sorted([a, b])
        assert schedule.cost(lo) <= schedule.cost(hi)

    @given(v=volumes)
    def test_marginal_never_exceeds_top_rate_times_volume(self, v):
        schedule = storage_schedule(TierMode.MARGINAL)
        assert schedule.cost(v) <= Money("0.14") * v + Money("0.0001")

    @given(v=st.floats(min_value=0.001, max_value=1e7, allow_nan=False))
    def test_slab_cost_is_rate_times_volume(self, v):
        schedule = storage_schedule(TierMode.SLAB)
        assert schedule.cost(v) == schedule.marginal_rate(v) * v

    @given(v=volumes)
    def test_decreasing_rates_make_marginal_at_least_slab(self, v):
        # With rates decreasing by band, slab charges the (cheaper)
        # top band's rate to every unit, so slab <= marginal.
        marginal = storage_schedule(TierMode.MARGINAL).cost(v)
        slab = storage_schedule(TierMode.SLAB).cost(v)
        assert slab <= marginal + Money("0.0001")
