"""Bandwidth pricing (the paper's Table 3).

The 2012 AWS model the paper adopts: all inbound transfer is free;
outbound transfer is tiered with the first GB free.  Formula 2 of the
paper includes inbound terms (queries, the initial dataset, inserted
data) which vanish under this model, collapsing to Formula 3 — both
formulas are implemented so the simplification is testable rather than
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .tiers import TierSchedule
from ..errors import PricingError
from ..money import Money, ZERO

__all__ = ["TransferPricing"]


@dataclass(frozen=True)
class TransferPricing:
    """A provider's data-transfer schedule, split by direction.

    Parameters
    ----------
    outbound:
        Tier schedule for data leaving the cloud (query results).
    inbound:
        Tier schedule for data entering the cloud, or ``None`` when
        inbound transfer is free (the AWS model of the paper).
    """

    outbound: TierSchedule
    inbound: Optional[TierSchedule] = None

    def outbound_cost(self, volume_gb: float) -> Money:
        """Cost of sending ``volume_gb`` out of the cloud.

        Prices query results, view decommission exports and the
        egress leg of a provider migration
        (:mod:`repro.pricing.migration`).

        Parameters
        ----------
        volume_gb:
            Gigabytes leaving the cloud; must be non-negative.

        Returns
        -------
        Money
            The tiered egress charge.

        Examples
        --------
        The paper's Example 1 — a 10 GB query result:

        >>> from repro.pricing.providers import aws_2012
        >>> aws_2012().transfer.outbound_cost(10.0)
        Money('1.080')
        """
        if volume_gb < 0:
            raise PricingError(f"volume cannot be negative: {volume_gb}")
        return self.outbound.cost(volume_gb)

    def inbound_cost(self, volume_gb: float) -> Money:
        """Cost of sending ``volume_gb`` into the cloud (often zero).

        Parameters
        ----------
        volume_gb:
            Gigabytes entering the cloud; must be non-negative.

        Returns
        -------
        Money
            The tiered ingress charge — exactly zero when the
            provider's inbound schedule is ``None`` (the AWS model of
            the paper).
        """
        if volume_gb < 0:
            raise PricingError(f"volume cannot be negative: {volume_gb}")
        if self.inbound is None:
            return ZERO
        return self.inbound.cost(volume_gb)
