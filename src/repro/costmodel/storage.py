"""Storage cost — the paper's Section 3.3 (Formula 5) and Section 4.3.

    Cs = sum over intervals of cs(DS) x (t_end - t_start) x s(DS)

where ``cs`` is the provider's (tiered) GB-month rate and intervals are
spans of constant stored volume (:class:`~repro.costmodel.params.StorageTimeline`).

With materialized views (Section 4.3) the same formula runs on a
timeline whose every interval is shifted up by the views' total size:
"original data and materialized views are stored for the whole
considered storage period".
"""

from __future__ import annotations

from decimal import Decimal

from ..errors import CostModelError
from ..money import MONEY_CONTEXT, Money, ZERO
from ..pricing.storage import StoragePricing
from ..pricing.tiers import RateTable, TierMode, tier_cost
from .params import StorageSteps, StorageTimeline

__all__ = ["storage_cost", "storage_cost_with_views", "storage_fold"]


def storage_fold(
    table: RateTable, mode: TierMode, initial_gb: float, steps: StorageSteps
) -> Decimal:
    """Formula 5 on raw Decimals: each interval's GB-month charge x months.

    ``table`` and ``mode`` are the storage schedule's
    :attr:`~repro.pricing.tiers.TierSchedule.rate_table` and mode,
    ``initial_gb`` the volume stored from month 0 and ``steps`` the
    timeline's :meth:`~repro.costmodel.params.StorageTimeline.steps`.
    Folded from a ``ZERO`` seed in interval order; :func:`storage_cost`
    and :func:`storage_cost_with_views` (which the evaluation kernel
    memoizes) both price storage through it.
    """
    add = MONEY_CONTEXT.add
    multiply = MONEY_CONTEXT.multiply
    total = ZERO.amount
    volume_gb = initial_gb
    for deltas, months in steps:
        for delta_gb in deltas:
            volume_gb += delta_gb
        total = add(total, multiply(tier_cost(table, mode, volume_gb), months))
    return total


def storage_cost(pricing: StoragePricing, timeline: StorageTimeline) -> Money:
    """Formula 5: tiered GB-month cost over the timeline's intervals.

    >>> from repro.pricing import aws_2012
    >>> timeline = StorageTimeline(512, 12, [(7, 2048)])
    >>> storage_cost(aws_2012().storage, timeline)   # paper's Example 3 setup
    Money('2101.76000')

    (The paper prints $2131.76 for this computation; its own formula
    yields $2101.76 — :mod:`repro.experiments.running_example` flags
    the row.)
    """
    schedule = pricing.schedule
    return Money(
        storage_fold(
            schedule.rate_table,
            schedule.mode,
            timeline.initial_volume_gb,
            timeline.steps(),
        )
    )


def storage_cost_with_views(
    pricing: StoragePricing,
    timeline: StorageTimeline,
    views_total_gb: float,
) -> Money:
    """Section 4.3: Formula 5 on the view-augmented timeline.

    >>> from repro.pricing import aws_2012
    >>> base = StorageTimeline(500, 12)
    >>> storage_cost_with_views(aws_2012().storage, base, 50.0)  # Example 9
    Money('924.0000')

    The views raise the volume stored from month 0, as
    :meth:`~repro.costmodel.params.StorageTimeline.with_extra_volume`
    does; the timeline's steps stay as they are.
    """
    if views_total_gb < 0:
        raise CostModelError("extra volume cannot be negative")
    schedule = pricing.schedule
    return Money(
        storage_fold(
            schedule.rate_table,
            schedule.mode,
            float(timeline.initial_volume_gb + views_total_gb),
            timeline.steps(),
        )
    )
