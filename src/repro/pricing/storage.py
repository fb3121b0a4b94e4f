"""Storage pricing (the paper's Table 4, S3-like).

Storage is billed per GB-month under a tiered schedule.  The paper's
Formula 5 splits the storage period into intervals of constant volume
(volume changes when data is inserted) and sums
``cs(DS) x (t_end - t_start) x s(DS)`` per interval; the interval
mechanics themselves live in :mod:`repro.costmodel.storage` — this
module only answers "what does *v* GB cost for *m* months".
"""

from __future__ import annotations

from dataclasses import dataclass

from .tiers import TierSchedule
from ..errors import PricingError
from ..money import Money

__all__ = ["StoragePricing"]


@dataclass(frozen=True)
class StoragePricing:
    """A provider's per-GB-month storage schedule.

    Examples
    --------
    The paper's Example 9 — 550 GB stored for 12 months at the
    first-TB rate:

    >>> from repro.pricing.providers import aws_2012
    >>> aws_2012().storage.cost(volume_gb=550, months=12)
    Money('924.00')
    """

    #: The underlying tier schedule (rates are per GB-month).
    schedule: TierSchedule

    def monthly_cost(self, volume_gb: float) -> Money:
        """Cost of holding ``volume_gb`` for one month."""
        return self.schedule.cost(volume_gb)

    def cost(self, volume_gb: float, months: float) -> Money:
        """Cost of holding a constant ``volume_gb`` for ``months`` months.

        Fractional months are allowed (storage is metered continuously);
        negative durations are a caller bug.
        """
        if months < 0:
            raise PricingError(f"storage duration cannot be negative: {months}")
        return self.monthly_cost(volume_gb) * months
